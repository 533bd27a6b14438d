// Replicated execution of one (protocol, scenario) cell: runs R independent
// replications (different seeds, common across protocols for variance
// reduction) of a single cell or a multi-cell world, and keeps each run's
// metrics for the paper's means, pooled rates and confidence intervals.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "core/charisma.hpp"
#include "mac/cellular_world.hpp"
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

/// Every replication of one protocol on one scenario: each run's metrics,
/// in replication order.
struct ReplicatedResult {
  std::string protocol;
  std::vector<mac::ProtocolMetrics> runs;

  /// Mean over the runs of `metric` (a ProtocolMetrics member function such
  /// as &ProtocolMetrics::voice_loss_rate, or any callable on one run's
  /// metrics), accumulated in replication order.
  template <typename Metric>
  double mean(Metric&& metric) const {
    common::Accumulator across;
    for (const auto& run : runs) across.add(std::invoke(metric, run));
    return across.mean();
  }

  /// Voice packets lost ("success") out of those generated, pooled over the
  /// runs (for Wilson intervals on the loss probability).
  common::RatioCounter voice_loss_pooled() const;

  /// The runs' data-delay distributions merged (tail quantiles; check
  /// histogram_clip_warning before trusting them).
  common::Histogram data_delay_pooled() const;
};

/// Seed for replication `rep` of the sweep point keyed by `point_key`.
/// Protocol-independent, so every protocol sees the same channel/traffic
/// world (common random numbers).
std::uint64_t replication_seed(std::uint64_t base_seed,
                               std::uint64_t point_key, int rep);

/// Runs replications 0 .. spec.replications - 1 of `protocol` in order
/// (run_sweep parallelizes across cells on a WorkerPool; a world steps on
/// its own threads). Replication r runs at
/// replication_seed(spec.params.seed, point_key, r) for spec's window:
/// a single cell on spec.params, or, when `world` is given, that
/// multi-cell world (world.params, reseeded; spec.params gives only the
/// base seed) and its aggregate metrics. With `verify`, replication 0 of a world must measure a
/// non-empty window and reproduce bit for bit on one thread and one shard,
/// else std::runtime_error. Throws std::invalid_argument when
/// spec.replications < 1.
ReplicatedResult run_replications(
    protocols::ProtocolId protocol, const RunSpec& spec,
    std::uint64_t point_key = 0,
    const std::optional<mac::CellularConfig>& world = std::nullopt,
    bool verify = false);

}  // namespace charisma::experiment
