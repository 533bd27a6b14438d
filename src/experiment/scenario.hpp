// One scenario recipe: the translation from key=value knobs to the
// library's configs, shared by charisma_sim, the examples and the world
// benches. Every numeric knob goes through one range-checked reader, so an
// out-of-domain value fails by name before any library constructor sees
// it; the benches read their own knobs through the same readers. A world
// (cells >= 2) takes 26 dB at the 200 m path-loss reference unless
// mean_snr_db= is given, the Doppler spread of kmh= at 2 GHz, sites
// 2 · cell_radius_m apart, co-channel interference 0.4 on hex layouts (0 on
// the line) unless interference= is given, and a mobility field sized to
// the sites.
#pragma once

#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.hpp"
#include "experiment/runner.hpp"
#include "experiment/sweep.hpp"
#include "mac/cellular_world.hpp"
#include "protocols/factory.hpp"

namespace charisma::experiment {

/// The values a numeric knob accepts: lo..hi, each end closed or open.
struct Domain {
  double lo, hi;
  bool lo_open, hi_open;

  bool contains(double v) const {
    return (lo_open ? v > lo : v >= lo) && (hi_open ? v < hi : v <= hi);
  }
  std::string describe() const;
};

inline constexpr double kInf = std::numeric_limits<double>::infinity();
inline constexpr Domain kPositive{0.0, kInf, true, false};
inline constexpr Domain kNonNegative{0.0, kInf, false, false};
inline constexpr Domain kAtLeastOne{1.0, kInf, false, false};
inline constexpr Domain kProbability{0.0, 1.0, true, false};      // (0, 1]
inline constexpr Domain kLossProbability{0.0, 1.0, false, true};  // [0, 1)
inline constexpr Domain kFraction{0.0, 1.0, false, false};        // [0, 1]
inline constexpr Domain kPopulation{0.0, std::numeric_limits<int>::max(),
                                    false, false};

// The readers behind every knob. Each returns `fallback` when `key` is
// absent and throws std::invalid_argument naming `key` for a value it
// cannot read whole or one outside `domain`.

/// A real number.
double read_double(const common::KeyValueConfig& config,
                   const std::string& key, double fallback,
                   const Domain& domain);

/// A whole number.
int read_int(const common::KeyValueConfig& config, const std::string& key,
             int fallback, const Domain& domain);

/// A count, which accepts magnitude suffixes (250k, 1M), in kPopulation
/// and in `domain`.
int read_count(const common::KeyValueConfig& config, const std::string& key,
               int fallback, const Domain& domain = kPopulation);

/// A comma-separated list of whole numbers (x=20,60,100), at least one.
std::vector<int> read_int_list(const common::KeyValueConfig& config,
                               const std::string& key,
                               const std::vector<int>& fallback,
                               const Domain& domain);

/// A comma-separated list of protocol names (prma,rmav), at least one,
/// each spelled as protocols::parse_protocol reads it.
std::vector<protocols::ProtocolId> read_protocol_list(
    const common::KeyValueConfig& config, const std::string& key,
    const std::vector<protocols::ProtocolId>& fallback);

/// Every key parse_scenario accepts; a typo fails loudly instead of
/// silently taking the default. It accepts and ignores charisma_sim's own
/// `help` and `csv`.
extern const std::vector<std::string> kScenarioKeys;

/// The keys only the multi-cell world reads: a scenario with cells < 2
/// rejects them by name instead of silently ignoring them.
extern const std::vector<std::string> kWorldOnlyKeys;

/// The reference text of every key in kScenarioKeys (charisma_sim help=1).
std::string_view scenario_help();

struct Scenario {
  /// The single-cell scenario, run window and CHARISMA options. A world's
  /// per-cell scenario is world->params.
  RunSpec spec;
  /// protocol=, or the paper's six for protocol=all.
  std::vector<protocols::ProtocolId> protocols;
  /// The multi-cell world, present exactly when cells >= 2.
  std::optional<mac::CellularConfig> world;
  /// verify=: re-run a world point serially and require bit-identical
  /// metrics.
  bool verify = false;
  /// sweep= and x= (single cell only).
  std::optional<SweepConfig> sweep;
};

/// Builds the scenario `config` describes. Throws std::invalid_argument
/// whose message begins with the offending knob ("kmh= must be ...") or,
/// for a key outside kScenarioKeys, names it as an unknown key.
Scenario parse_scenario(const common::KeyValueConfig& config);

}  // namespace charisma::experiment
