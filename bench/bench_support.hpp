// Shared plumbing for the figure-reproduction benches: their key=value
// knobs, read like charisma_sim's, and the standard six-protocol sweep
// setup.
//
// Knobs shared by the sweep benches (each bench's header lists its own):
//   warmup=SECONDS        warmup per run (>= 0, default 4)
//   measure=SECONDS       measured simulation per run (> 0, default 12)
//   replications=N        replications per point (>= 1, default per bench)
//   threads=N             sweep worker threads (0 = hardware concurrency,
//                         the default)
// The environment carries only the output directories,
// CHARISMA_BENCH_JSON_DIR and CHARISMA_BENCH_CSV_DIR.
#pragma once

#include <sys/resource.h>
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "charisma.hpp"

namespace charisma::bench {

/// Peak resident set of this process so far, in bytes (Linux reports
/// ru_maxrss in kilobytes). Monotone — use current_rss_bytes for deltas.
inline long long peak_rss_bytes() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<long long>(usage.ru_maxrss) * 1024;
}

/// Current resident set in bytes via /proc/self/status (0 where absent).
/// Unlike the peak this can fall after frees, so before/after deltas
/// around a world's construction give its footprint.
inline long long current_rss_bytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      long long kb = 0;
      fields >> kb;
      return kb * 1024;
    }
  }
  return 0;
}

/// The key=value arguments of a bench run as `argv`, which may set only
/// `keys` (none for a bench without knobs). A CHARISMA_BENCH_* environment
/// variable other than the two output directories, a knob of older
/// revisions, fails by name instead of being ignored.
inline common::KeyValueConfig knobs(int argc, char** argv,
                                    const std::vector<std::string>& keys) {
  for (char** var = environ; *var != nullptr; ++var) {
    const std::string entry(*var);
    const std::string name = entry.substr(0, entry.find('='));
    if (name.starts_with("CHARISMA_BENCH_") &&
        name != "CHARISMA_BENCH_JSON_DIR" && name != "CHARISMA_BENCH_CSV_DIR") {
      throw std::invalid_argument(
          name + " is set, but bench knobs are key=value arguments: unset "
          "it and pass the knob on the command line");
    }
  }
  const auto config =
      common::KeyValueConfig::from_args({argv + 1, argv + argc});
  config.reject_unknown(keys);
  return config;
}

/// A cell count of a bench world, which needs two cells.
inline constexpr experiment::Domain kWorldCells{2.0, experiment::kInf, false,
                                                false};

/// warmup=, measure= and replications= (default `default_reps`).
inline experiment::RunSpec standard_spec(const common::KeyValueConfig& config,
                                         int default_reps = 1) {
  experiment::RunSpec spec;
  spec.warmup_s =
      experiment::read_double(config, "warmup", 4.0, experiment::kNonNegative);
  spec.measure_s =
      experiment::read_double(config, "measure", 12.0, experiment::kPositive);
  spec.replications = experiment::read_int(
      config, "replications", default_reps, experiment::kAtLeastOne);
  return spec;
}

/// Sweep worker threads (threads=; 0, the default, = hardware threads).
inline unsigned standard_threads(const common::KeyValueConfig& config) {
  return static_cast<unsigned>(
      experiment::read_int(config, "threads", 0, experiment::kNonNegative));
}

/// "key=value" with `value` printed so that it reads back as the same
/// double.
inline std::string knob(const std::string& key, double value) {
  char text[32];
  const auto end = std::to_chars(text, text + sizeof text, value).ptr;
  return key + "=" + std::string(text, end);
}

/// The multi-cell world charisma_sim runs for the "key=value" `knobs`
/// (experiment::parse_scenario), which must set cells= to at least 2.
inline mac::CellularConfig world_from(const std::vector<std::string>& knobs) {
  return experiment::parse_scenario(common::KeyValueConfig::from_args(knobs))
      .world.value();
}

inline void print_banner(const std::string& what, const std::string& paper) {
  std::cout << "================================================================\n"
            << what << "\n"
            << "Paper reference: " << paper << "\n"
            << "================================================================\n";
}

/// Appends one measurement to `<dir>/<stem>.json` (dir from
/// CHARISMA_BENCH_JSON_DIR, else the working directory). The file is a
/// schema_version-2 *trajectory*: `{"benchmark": ..., "schema_version": 2,
/// "trajectory": [ <point>, ... ]}` — each bench run appends a point
/// (stamped with UTC time and the short git revision, suffixed "-dirty"
/// when tracked files differ from that commit) instead of
/// overwriting, so the committed file records how the numbers moved across
/// revisions. `fields` is the caller's preformatted `"key": value` list,
/// comma-joined, without braces (multi-line entries should indent
/// continuation lines by six spaces to match the point layout). A missing
/// file or an old schema-1 single-object file starts a fresh trajectory.
inline void append_trajectory_point(const std::string& benchmark,
                                    const std::string& stem,
                                    const std::string& fields) {
  const char* dir = std::getenv("CHARISMA_BENCH_JSON_DIR");
  const std::string path =
      (dir != nullptr ? std::string(dir) + "/" : std::string()) + stem +
      ".json";

  char timestamp[32] = "unknown";
  {
    const std::time_t now = std::time(nullptr);
    std::tm tm_utc{};
    if (gmtime_r(&now, &tm_utc) != nullptr) {
      std::strftime(timestamp, sizeof timestamp, "%Y-%m-%dT%H:%M:%SZ",
                    &tm_utc);
    }
  }

  std::string git_rev = "unknown";
  if (std::FILE* pipe = popen(
          "git describe --always --dirty --exclude='*' 2>/dev/null", "r")) {
    char buf[64];
    if (std::fgets(buf, sizeof buf, pipe) != nullptr) {
      git_rev.assign(buf);
      while (!git_rev.empty() &&
             (git_rev.back() == '\n' || git_rev.back() == '\r')) {
        git_rev.pop_back();
      }
      if (git_rev.empty()) git_rev = "unknown";
    }
    pclose(pipe);
  }

  const std::string point = "    {\n      \"timestamp\": \"" +
                            std::string(timestamp) +
                            "\",\n      \"git_rev\": \"" + git_rev +
                            "\",\n      " + fields + "\n    }";

  std::string existing;
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream ss;
      ss << in.rdbuf();
      existing = ss.str();
    }
  }

  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::cerr << "could not write " << path << '\n';
    return;
  }
  const auto tail = existing.rfind("\n  ]");
  if (existing.find("\"schema_version\": 2") != std::string::npos &&
      tail != std::string::npos) {
    out << existing.substr(0, tail) << ",\n"
        << point << existing.substr(tail);
  } else {
    out << "{\n  \"benchmark\": \"" << benchmark << "\",\n"
        << "  \"schema_version\": 2,\n  \"trajectory\": [\n"
        << point << "\n  ]\n}\n";
  }
  std::cout << "(appended trajectory point to " << path << ")\n";
}

/// When CHARISMA_BENCH_CSV_DIR is set, also writes the table as
/// `<dir>/<stem>.csv` (for downstream plotting).
inline void maybe_write_csv(const common::TextTable& table,
                            const std::string& stem) {
  const char* dir = std::getenv("CHARISMA_BENCH_CSV_DIR");
  if (dir == nullptr) return;
  const std::string path = std::string(dir) + "/" + stem + ".csv";
  if (table.write_csv(path)) {
    std::cout << "(wrote " << path << ")\n";
  } else {
    std::cerr << "could not write " << path << '\n';
  }
}

}  // namespace charisma::bench
