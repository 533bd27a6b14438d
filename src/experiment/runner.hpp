// Replicated execution of one (protocol, scenario) cell: runs R independent
// replications (different seeds, common across protocols for variance
// reduction) and aggregates the paper's metrics with confidence intervals.
#pragma once

#include <cstdint>
#include <string>

#include "common/stats.hpp"
#include "core/charisma.hpp"
#include "mac/metrics.hpp"
#include "mac/scenario.hpp"
#include "protocols/factory.hpp"

namespace charisma::experiment {

struct RunSpec {
  mac::ScenarioParams params{};
  double warmup_s = 3.0;
  double measure_s = 15.0;
  int replications = 2;
  core::CharismaOptions charisma{};
};

/// Aggregate over replications of one protocol on one scenario.
struct ReplicatedResult {
  std::string protocol;
  int num_voice_users = 0;
  int num_data_users = 0;
  bool request_queue = true;
  int replications = 0;

  // Across-replication accumulators of the derived metrics.
  common::Accumulator voice_loss;
  common::Accumulator voice_drop;
  common::Accumulator voice_error;
  common::Accumulator data_throughput;   ///< packets per frame
  common::Accumulator data_delay_s;
  common::Accumulator slot_utilization;
  common::Accumulator slot_waste;
  common::Accumulator request_success;
  /// User-frames of channel evolution per executed jump (exactly 1 under
  /// the default eager advancement; the lazy-channel win factor otherwise).
  common::Accumulator materialization_stride;

  // Pooled raw counters (for Wilson intervals on proportions).
  common::RatioCounter voice_loss_pooled;  ///< "success" = packet lost

  /// Pooled data-delay distribution across replications (tail quantiles;
  /// check histogram_clip_warning before trusting them).
  common::Histogram data_delay_pooled{mac::ProtocolMetrics::kDelayHistLo,
                                      mac::ProtocolMetrics::kDelayHistHi,
                                      mac::ProtocolMetrics::kDelayHistBins};

  void add(const mac::ProtocolMetrics& metrics);
};

/// Seed for replication `rep` of the sweep point keyed by `point_key`.
/// Protocol-independent, so every protocol sees the same channel/traffic
/// world (common random numbers).
std::uint64_t replication_seed(std::uint64_t base_seed,
                               std::uint64_t point_key, int rep);

/// Runs all replications of `protocol` under `spec` serially (run_sweep
/// parallelizes across cells on a WorkerPool). Throws invalid_argument when
/// spec.replications < 1.
ReplicatedResult run_replications(protocols::ProtocolId protocol,
                                  const RunSpec& spec,
                                  std::uint64_t point_key = 0);

}  // namespace charisma::experiment
