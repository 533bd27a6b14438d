// World-loop scaling bench — the multi-cell epoch loop after PR 4's three
// optimisations (parallel share-nothing cell stepping, the allocation-free
// periodic frame slot, and the batched SNR/pilot plane). Sweeps cells ×
// worker threads on one fixed population, cross-checks that every thread
// count reproduces the serial run bit for bit (the WorkerPool barrier
// design makes that a hard guarantee, and this bench re-verifies it on
// every run), and records the trajectory point as BENCH_world.json.
//
//   ./bench_world [voice_users=96] [data_users=24] [measure=8] [repeats=3]
//                 [cells=2,4,8] [threads=1,2,4,<hardware>]
//                 [shards=1,2,4,<hardware>] [protocol=dtdma_fr]
//                 [memory_users=100k] [memory_cells=91] [band=1200]
//
// voice_users=, data_users=, measure= and protocol= (one protocol) are
// charisma_sim's. repeats= times each world that many times at the same
// seed and keeps the least wall clock. cells= (each >= 2), threads= and
// shards= take comma lists of charisma_sim's values: the cell counts of
// the sweep, the thread counts swept at each, and the coordinator shard
// counts of the shard-overhead stage (0 = hardware concurrency). The
// memory stage's knobs are described below. CHARISMA_BENCH_JSON_DIR says
// where BENCH_world.json lands (default: the working directory).
//
// Shard-overhead stage (PR 9): the world plane (mobility, band rosters,
// pilot filtering, attachment) is computed over coordinator shards whose
// proposals merge in user order — bit-identity is re-verified across the
// shard list on every run (non-zero exit on violation), and the epoch
// wall clock is split into serial-plane (coordinator merge/apply) vs
// sharded world-plane vs per-cell plane/frame buckets, with the per-cell
// SNR/SINR-plane round (part of the cell bucket) also printed alone.
//
// Memory stage (sparse presence, PR 8): one large hexagonal world with a
// finite pilot-band radius, measured for resident bytes per user against a
// small dense (band=all-cells) calibration world of the same geometry. Each
// probe reads the resident set twice: after construction plus two epochs,
// and again after a further warmed window (steady_*) of a sixteenth of the
// measured seconds (0.5 s at the default), once traffic has attached,
// backlogs have queued and the cells' fairness ledgers have filled. The two sparse probes (mt and compact traffic streams) also
// report the wall clock of their CellularWorld constructor (construct_s),
// which is where a world's bank rows, bands and shells are built.
//   memory_users=N   total users, 4:1 voice:data; accepts k/M suffixes
//                    ("250k", "1M"); 0 skips the stage (default 100k)
//   memory_cells=N   hex cells, >= 2 (default 91, a full ring)
//   band=F           charisma_sim's pilot-band radius in metres (default
//                    1200 = 1.2x the 1000 m site spacing, a 7-cell band)
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_support.hpp"

namespace {

using namespace charisma;

// A thread or shard count list: 0 entries resolve to `hardware`, the
// serial reference 1 is always added, and the list comes back sorted and
// deduplicated, so the reference runs first.
std::vector<unsigned> concurrency_list(const std::vector<int>& given,
                                       unsigned hardware) {
  std::vector<unsigned> out{1};
  for (const int n : given) {
    out.push_back(n == 0 ? hardware : static_cast<unsigned>(n));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// charisma_sim's line world (cell_radius_m=500) at 90 km/h, with the
// channel's default 100 Hz Doppler spread.
mac::CellularConfig world_config(int cells, unsigned threads, int voice,
                                 int data) {
  return bench::world_from(
      {"cells=" + std::to_string(cells), "threads=" + std::to_string(threads),
       "voice_users=" + std::to_string(voice),
       "data_users=" + std::to_string(data), "seed=2024",
       "shadow_sigma_db=6", "kmh=90", "doppler_hz=100"});
}

struct Point {
  int cells;
  unsigned threads;
  double wall_s;
  double speedup;        // vs threads=1 at the same cell count
  bool deterministic;    // full aggregate metrics match the serial run
};

// A hexagonal world for the memory stage: charisma_sim's layout=hex
// reuse=3 world (interference 0.4) at the world_config speed and Doppler,
// band radius as given (0 = dense).
mac::CellularConfig memory_config(int cells, int voice, int data,
                                  double band_radius_m,
                                  const std::string& rng = "mt") {
  return bench::world_from(
      {"cells=" + std::to_string(cells), "layout=hex", "reuse=3",
       bench::knob("band", band_radius_m),
       "voice_users=" + std::to_string(voice),
       "data_users=" + std::to_string(data), "seed=2024",
       "traffic_rng=" + rng, "shadow_sigma_db=6", "kmh=90",
       "doppler_hz=100"});
}

struct MemoryProbe {
  long long rss_bytes = 0;         // construction + two epochs
  long long steady_rss_bytes = 0;  // ... + the warmed window
  double construct_s = 0.0;  // wall clock of the CellularWorld constructor
  double band_cells_mean = 0.0;
  int users = 0;
};

// Builds the world, runs a couple of epochs (mobility moves, bands churn,
// traffic of attached users materializes) and reads the RSS delta, then
// runs the warmed window and reads it again, while the world is alive.
// Free heap pages go back to the system first, so reusing an earlier
// probe's frees counts as growth too; what the allocator keeps in
// partly used pages can still understate a delta, so callers should
// probe smaller worlds first.
MemoryProbe probe_memory(const mac::CellularConfig& cfg,
                         protocols::ProtocolId protocol,
                         common::Time steady_window_s) {
  malloc_trim(0);
  const long long before = bench::current_rss_bytes();
  const auto start = std::chrono::steady_clock::now();
  mac::CellularWorld world(cfg, [&](const mac::ScenarioParams& p) {
    return protocols::make_protocol(protocol, p);
  });
  const std::chrono::duration<double> construct =
      std::chrono::steady_clock::now() - start;
  world.run(0.0, 2.0 * mac::CellularWorld::kDecisionInterval);
  MemoryProbe probe;
  probe.construct_s = construct.count();
  probe.rss_bytes = bench::current_rss_bytes() - before;
  world.advance(steady_window_s);
  probe.steady_rss_bytes = bench::current_rss_bytes() - before;
  probe.users = cfg.params.num_voice_users + cfg.params.num_data_users;
  std::size_t band_total = 0;
  for (int u = 0; u < probe.users; ++u) {
    band_total += world.band_cells(static_cast<common::UserId>(u)).size();
  }
  probe.band_cells_mean =
      probe.users > 0
          ? static_cast<double>(band_total) / static_cast<double>(probe.users)
          : 0.0;
  return probe;
}

// The bit-identical cross-check is ProtocolMetrics::operator== — the same
// exact, every-field equality the determinism test uses.

}  // namespace

int main(int argc, char** argv) try {
  // Every knob is read here, before the first world runs.
  const auto args = bench::knobs(
      argc, argv,
      {"voice_users", "data_users", "measure", "repeats", "cells", "threads",
       "shards", "protocol", "memory_users", "memory_cells", "band"});
  const int voice = experiment::read_count(args, "voice_users", 96);
  const int data = experiment::read_count(args, "data_users", 24);
  const double measure_s =
      experiment::read_double(args, "measure", 8.0, experiment::kPositive);
  const int reps =
      experiment::read_int(args, "repeats", 3, experiment::kAtLeastOne);
  const double warmup_s = std::min(0.5, measure_s * 0.25);
  const unsigned hardware =
      std::max(1u, std::thread::hardware_concurrency());
  const auto protocol_list = experiment::read_protocol_list(
      args, "protocol", {protocols::ProtocolId::kDtdmaFr});
  if (protocol_list.size() != 1) {
    throw std::invalid_argument("protocol= must name one protocol");
  }
  const auto protocol = protocol_list.front();
  const auto cells_list =
      experiment::read_int_list(args, "cells", {2, 4, 8}, bench::kWorldCells);
  // The serial run is the determinism/speedup reference; it is measured
  // first even when the list omits it (0 = hardware concurrency).
  const std::vector<int> hardware_default{1, 2, 4,
                                          static_cast<int>(hardware)};
  const auto threads_list = concurrency_list(
      experiment::read_int_list(args, "threads", hardware_default,
                                experiment::kNonNegative),
      hardware);
  const auto shards_list = concurrency_list(
      experiment::read_int_list(args, "shards", hardware_default,
                                experiment::kNonNegative),
      hardware);
  const int mem_users = experiment::read_count(args, "memory_users", 100'000);
  const int mem_cells =
      experiment::read_int(args, "memory_cells", 91, bench::kWorldCells);
  const double band_radius_m =
      experiment::read_double(args, "band", 1200.0, experiment::kNonNegative);
  const double steady_window_s = measure_s / 16.0;
  bench::print_banner(
      "World-loop scaling: parallel cells, allocation-free frames, "
      "batched pilots",
      "CHARISMA extension (no paper figure); PR 4 trajectory point");

  std::cout << "population: " << voice << " voice + " << data
            << " data users, measure " << measure_s
            << " s, hardware concurrency " << hardware << "\n\n";

  common::TextTable table("Epoch-loop wall clock, cells x threads");
  table.set_header({"cells", "threads", "wall (s)", "epochs/s",
                    "speedup vs 1T", "bit-identical"});

  std::vector<Point> points;
  for (int cells : cells_list) {
    double ref_wall = 0.0;
    mac::ProtocolMetrics ref_metrics;
    std::int64_t ref_handoffs = 0;
    for (unsigned threads : threads_list) {
      // Fresh world per repetition (identical seed); min wall clock
      // filters scheduler noise and first-touch warmup.
      const auto cfg = world_config(cells, threads, voice, data);
      double best_wall = 0.0;
      mac::ProtocolMetrics m;
      std::int64_t handoffs = 0;
      for (int rep = 0; rep < reps; ++rep) {
        mac::CellularWorld world(cfg, [&](const mac::ScenarioParams& p) {
          return protocols::make_protocol(protocol, p);
        });
        const auto start = std::chrono::steady_clock::now();
        world.run(warmup_s, measure_s);
        const std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - start;
        if (rep == 0 || wall.count() < best_wall) best_wall = wall.count();
        m = world.aggregate_metrics();
        handoffs = world.handoffs();
      }

      Point point{cells, threads, best_wall, 1.0, true};
      if (threads == threads_list.front()) {  // the serial reference
        ref_wall = best_wall;
        ref_metrics = m;
        ref_handoffs = handoffs;
      }
      point.speedup = ref_wall / point.wall_s;
      point.deterministic = m == ref_metrics && handoffs == ref_handoffs;
      points.push_back(point);

      const double epochs =
          (warmup_s + measure_s) / mac::CellularWorld::kDecisionInterval;
      table.add_row({common::TextTable::num(cells, 0),
                     common::TextTable::num(threads, 0),
                     common::TextTable::num(point.wall_s, 4),
                     common::TextTable::num(epochs / point.wall_s, 1),
                     common::TextTable::num(point.speedup, 2),
                     point.deterministic ? "yes" : "NO"});
    }
  }
  table.print(std::cout);
  bench::maybe_write_csv(table, "bench_world");

  bool all_deterministic = true;
  double best_speedup = 0.0;
  int best_cells = 0;
  unsigned best_threads = 0;
  for (const auto& p : points) {
    all_deterministic = all_deterministic && p.deterministic;
    if (p.cells >= 4 && p.threads >= 4 && p.speedup > best_speedup) {
      best_speedup = p.speedup;
      best_cells = p.cells;
      best_threads = p.threads;
    }
  }
  std::cout << "\nall thread counts bit-identical to serial: "
            << (all_deterministic ? "yes" : "NO — BUG") << '\n';
  if (best_threads != 0) {
    std::cout << "best >=4-cell/>=4-thread speedup: "
              << common::TextTable::num(best_speedup, 2) << "x (" << best_cells
              << " cells, " << best_threads << " threads)";
    if (hardware < 4) {
      std::cout << " — this host exposes only " << hardware
                << " CPU(s); thread scaling cannot show here";
    }
    std::cout << '\n';
  }

  // --- Shard-overhead stage: the coordinator plane, split over shards ---
  // threads=1 on purpose: with the pool out of the picture this measures
  // the pure cost of the propose/merge split (arena writes + coordinator
  // replay) against the monolithic serial plane, which is the regression
  // the 1-CPU container can actually catch. Bit-identity across the shard
  // list is re-verified on every run and feeds the exit code.
  struct ShardPoint {
    unsigned shards;
    double wall_s;
    double overhead;        // wall / shards=1 wall - 1 (noise floor: the
                            // cell plane dwarfs the world plane)
    double plane_overhead;  // (serial+shard plane s) / shards=1 - 1 — the
                            // coordinator cost the shard knob actually moves
    mac::CellularWorld::EpochTimings timings;
    bool deterministic;
  };
  const int shard_cells = cells_list.empty() ? 4 : cells_list.front();
  common::TextTable shard_table(
      "Coordinator shard overhead (threads=1, " +
      std::to_string(shard_cells) +
      " cells); epoch split serial/shard/cell, SNR plane within cell");
  shard_table.set_header({"shards", "wall (s)", "wall ovh", "plane ovh",
                          "serial ms/ep", "shard ms/ep", "cell ms/ep",
                          "snr ms/ep", "bit-identical"});
  std::vector<ShardPoint> shard_points;
  double shard_ref_wall = 0.0;
  double shard_ref_plane = 0.0;
  mac::ProtocolMetrics shard_ref_metrics;
  std::int64_t shard_ref_handoffs = 0;
  for (unsigned shards : shards_list) {
    auto cfg = world_config(shard_cells, /*threads=*/1, voice, data);
    cfg.num_shards = shards;
    double best_wall = 0.0;
    double best_plane = 0.0;  // min over reps, like the wall
    mac::CellularWorld::EpochTimings timings{};
    mac::ProtocolMetrics m;
    std::int64_t handoffs = 0;
    for (int rep = 0; rep < reps; ++rep) {
      mac::CellularWorld world(cfg, [&](const mac::ScenarioParams& p) {
        return protocols::make_protocol(protocol, p);
      });
      const auto start = std::chrono::steady_clock::now();
      world.run(warmup_s, measure_s);
      const std::chrono::duration<double> wall =
          std::chrono::steady_clock::now() - start;
      if (rep == 0 || wall.count() < best_wall) {
        best_wall = wall.count();
        timings = world.epoch_timings();
      }
      const auto t = world.epoch_timings();
      const double plane = t.serial_plane_s + t.shard_plane_s;
      if (rep == 0 || plane < best_plane) best_plane = plane;
      m = world.aggregate_metrics();
      handoffs = world.handoffs();
    }
    if (shards == shards_list.front()) {
      shard_ref_wall = best_wall;
      shard_ref_plane = best_plane;
      shard_ref_metrics = m;
      shard_ref_handoffs = handoffs;
    }
    ShardPoint point{shards, best_wall, best_wall / shard_ref_wall - 1.0,
                     shard_ref_plane > 0.0
                         ? best_plane / shard_ref_plane - 1.0
                         : 0.0,
                     timings,
                     m == shard_ref_metrics && handoffs == shard_ref_handoffs};
    shard_points.push_back(point);
    const double epochs =
        timings.epochs > 0 ? static_cast<double>(timings.epochs) : 1.0;
    shard_table.add_row(
        {common::TextTable::num(shards, 0),
         common::TextTable::num(point.wall_s, 4),
         common::TextTable::num(point.overhead * 100.0, 1) + "%",
         common::TextTable::num(point.plane_overhead * 100.0, 1) + "%",
         common::TextTable::num(timings.serial_plane_s * 1e3 / epochs, 3),
         common::TextTable::num(timings.shard_plane_s * 1e3 / epochs, 3),
         common::TextTable::num(timings.cell_plane_s * 1e3 / epochs, 3),
         common::TextTable::num(timings.snr_plane_s * 1e3 / epochs, 3),
         point.deterministic ? "yes" : "NO"});
  }
  std::cout << '\n';
  shard_table.print(std::cout);

  double max_shard_overhead = 0.0;
  double max_plane_overhead = 0.0;
  for (const auto& p : shard_points) {
    all_deterministic = all_deterministic && p.deterministic;
    max_shard_overhead = std::max(max_shard_overhead, p.overhead);
    max_plane_overhead = std::max(max_plane_overhead, p.plane_overhead);
  }
  std::cout << "all shard counts bit-identical to the serial plane: "
            << (shard_points.back().deterministic && all_deterministic
                    ? "yes"
                    : "NO — BUG")
            << "\nmax sharding overhead vs shards=1 (threads=1): "
            << common::TextTable::num(max_plane_overhead * 100.0, 1)
            << "% of the world plane (wall-clock delta "
            << common::TextTable::num(max_shard_overhead * 100.0, 1)
            << "%, noise-dominated by the cell plane on small worlds)\n";

  // --- Memory stage: sparse presence bytes/user vs a dense calibration ---
  std::ostringstream memory_fields;
  if (mem_users > 0) {
    const int total = mem_users;
    const int mem_voice = total - total / 5;
    const int mem_data = total - mem_voice;
    // Dense calibration first: a band=all-cells world at 1/50 the
    // population calibrates what dense state costs per user at this cell
    // count (the full population would need cells/band times the sparse
    // footprint — tens of GB). Probing small-before-large bounds the
    // allocator-reuse error: the sparse probe can hide at most the freed
    // calibration footprint, ~2% of its own.
    const int cal_users = std::max(200, total / 50);
    const int cal_voice = cal_users - cal_users / 5;
    const auto dense_probe = probe_memory(
        memory_config(mem_cells, cal_voice, cal_users - cal_voice, 0.0),
        protocol, steady_window_s);
    // Compact before mt: probing the smaller world first bounds the
    // allocator-reuse understatement for both sparse probes.
    const auto compact_probe = probe_memory(
        memory_config(mem_cells, mem_voice, mem_data, band_radius_m,
                      "compact"),
        protocol, steady_window_s);
    const auto sparse_probe = probe_memory(
        memory_config(mem_cells, mem_voice, mem_data, band_radius_m),
        protocol, steady_window_s);
    const auto per_user = [](long long bytes, const MemoryProbe& probe) {
      return static_cast<double>(bytes) / probe.users;
    };
    const double dense_bpu = per_user(dense_probe.rss_bytes, dense_probe);
    const double sparse_bpu = per_user(sparse_probe.rss_bytes, sparse_probe);
    const double compact_bpu =
        per_user(compact_probe.rss_bytes, compact_probe);
    const double steady_dense_bpu =
        per_user(dense_probe.steady_rss_bytes, dense_probe);
    const double steady_sparse_bpu =
        per_user(sparse_probe.steady_rss_bytes, sparse_probe);
    const double steady_compact_bpu =
        per_user(compact_probe.steady_rss_bytes, compact_probe);
    const double ratio = sparse_bpu > 0.0 ? dense_bpu / sparse_bpu : 0.0;
    const double compact_ratio =
        compact_bpu > 0.0 ? sparse_bpu / compact_bpu : 0.0;
    std::cout << "\nmemory (sparse presence): " << total << " users, "
              << mem_cells << " hex cells, band radius " << band_radius_m
              << " m (mean " << common::TextTable::num(
                     sparse_probe.band_cells_mean, 2)
              << " cells/user)\n  construction + 2 epochs: sparse "
              << common::TextTable::num(sparse_bpu / 1024.0, 1)
              << " KiB/user   dense model (" << dense_probe.users
              << "-user calibration, " << common::TextTable::num(
                     dense_probe.band_cells_mean, 0)
              << " cells/user): "
              << common::TextTable::num(dense_bpu / 1024.0, 1)
              << " KiB/user   ratio "
              << common::TextTable::num(ratio, 2) << "x\n  traffic_rng=compact: "
              << common::TextTable::num(compact_bpu / 1024.0, 2)
              << " KiB/user   mt/compact ratio "
              << common::TextTable::num(compact_ratio, 2)
              << "x\n  + " << steady_window_s << " s warmed window: sparse "
              << common::TextTable::num(steady_sparse_bpu / 1024.0, 2)
              << " KiB/user   compact "
              << common::TextTable::num(steady_compact_bpu / 1024.0, 2)
              << " KiB/user   dense model "
              << common::TextTable::num(steady_dense_bpu / 1024.0, 1)
              << " KiB/user\n  world construction: mt "
              << common::TextTable::num(sparse_probe.construct_s, 3)
              << " s   compact "
              << common::TextTable::num(compact_probe.construct_s, 3)
              << " s\n";
    memory_fields << ",\n      \"peak_rss_bytes\": " << bench::peak_rss_bytes()
                  << ",\n      \"memory\": {\"users\": " << total
                  << ", \"cells\": " << mem_cells
                  << ", \"band_radius_m\": " << band_radius_m
                  << ", \"band_cells_mean\": " << sparse_probe.band_cells_mean
                  << ", \"bytes_per_user\": " << sparse_bpu
                  << ", \"dense_model_bytes_per_user\": " << dense_bpu
                  << ", \"dense_over_sparse_ratio\": " << ratio
                  << ", \"compact_bytes_per_user\": " << compact_bpu
                  << ", \"mt_over_compact_ratio\": " << compact_ratio
                  << ", \"steady_window_s\": " << steady_window_s
                  << ", \"steady_bytes_per_user\": " << steady_sparse_bpu
                  << ", \"steady_compact_bytes_per_user\": "
                  << steady_compact_bpu
                  << ", \"steady_dense_model_bytes_per_user\": "
                  << steady_dense_bpu
                  << ", \"construct_s\": " << sparse_probe.construct_s
                  << ", \"compact_construct_s\": "
                  << compact_probe.construct_s << "}";
  }

  std::ostringstream fields;
  fields << "\"protocol\": \"" << protocols::protocol_name(protocol)
         << "\",\n      \"voice_users\": " << voice
         << ",\n      \"data_users\": " << data
         << ",\n      \"measure_s\": " << measure_s
         << ",\n      \"hardware_concurrency\": " << hardware
         << memory_fields.str()
         << ",\n      \"all_thread_counts_bit_identical_to_serial\": "
         << (all_deterministic ? "true" : "false")
         << ",\n      \"best_speedup_cells4plus_threads4plus\": "
         << best_speedup
         << ",\n      \"max_shard_overhead_vs_serial_plane\": "
         << max_plane_overhead
         << ",\n      \"max_shard_wall_overhead_vs_shards1\": "
         << max_shard_overhead
         << ",\n      \"shard_stage\": {\"cells\": " << shard_cells
         << ", \"threads\": 1, \"points\": [\n";
  for (std::size_t i = 0; i < shard_points.size(); ++i) {
    const auto& p = shard_points[i];
    const double epochs =
        p.timings.epochs > 0 ? static_cast<double>(p.timings.epochs) : 1.0;
    fields << "        {\"shards\": " << p.shards << ", \"wall_s\": "
           << p.wall_s << ", \"overhead_vs_shards1\": " << p.overhead
           << ", \"plane_overhead_vs_shards1\": " << p.plane_overhead
           << ", \"serial_plane_ms_per_epoch\": "
           << p.timings.serial_plane_s * 1e3 / epochs
           << ", \"shard_plane_ms_per_epoch\": "
           << p.timings.shard_plane_s * 1e3 / epochs
           << ", \"cell_plane_ms_per_epoch\": "
           << p.timings.cell_plane_s * 1e3 / epochs
           << ", \"snr_plane_ms_per_epoch\": "
           << p.timings.snr_plane_s * 1e3 / epochs
           << ", \"bit_identical\": " << (p.deterministic ? "true" : "false")
           << "}" << (i + 1 < shard_points.size() ? "," : "") << "\n";
  }
  fields << "      ]},\n      \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    fields << "        {\"cells\": " << p.cells << ", \"threads\": "
           << p.threads << ", \"wall_s\": " << p.wall_s
           << ", \"speedup_vs_serial\": " << p.speedup
           << ", \"bit_identical_to_serial\": "
           << (p.deterministic ? "true" : "false") << "}"
           << (i + 1 < points.size() ? "," : "") << "\n";
  }
  fields << "      ]";
  bench::append_trajectory_point("world_epoch_loop", "BENCH_world",
                                 fields.str());
  return all_deterministic ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
