// One scenario recipe: the translation from key=value knobs to the
// library's configs, shared by charisma_sim, the examples and the world
// benches. Every numeric knob goes through one range-checked reader, so an
// out-of-domain value fails by name before any library constructor sees
// it. A world (cells >= 2) takes 26 dB at the 200 m path-loss reference
// unless mean_snr_db= is given, the Doppler spread of kmh= at 2 GHz, sites
// 2 · cell_radius_m apart, co-channel interference 0.4 on hex layouts (0 on
// the line) unless interference= is given, and a mobility field sized to
// the sites.
#pragma once

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

/// A numeric knob's value, or `fallback` when it is absent; throws
/// std::invalid_argument naming `key` when the value lies outside `domain`.
double read_double(const common::KeyValueConfig& config,
                   const std::string& key, double fallback,
                   const Domain& domain);

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
