// Load sweeps: the x-axes of the paper's Figs. 11-13 (number of voice or
// data users) run for a set of protocols, parallelized over (point,
// protocol) cells with common random numbers per point.
#pragma once

#include <vector>

#include "experiment/runner.hpp"
#include "experiment/worker_pool.hpp"

namespace charisma::experiment {

enum class SweepAxis { kVoiceUsers, kDataUsers };

struct SweepConfig {
  RunSpec spec{};  ///< base scenario; the axis field is overwritten
  SweepAxis axis = SweepAxis::kVoiceUsers;
  std::vector<int> x_values;
  std::vector<protocols::ProtocolId> protocols_to_run;
};

struct SweepCell {
  int x = 0;
  protocols::ProtocolId protocol{};
  ReplicatedResult result;
};

/// Runs the full grid, one pool task per (x, protocol) cell; cells come
/// back ordered by (x, protocol) and are identical at any pool size.
std::vector<SweepCell> run_sweep(const SweepConfig& config, WorkerPool& pool);

/// Extracts the series (x, metric(result)) for one protocol from sweep
/// cells, in x order.
template <typename MetricFn>
std::vector<std::pair<int, double>> series_of(
    const std::vector<SweepCell>& cells, protocols::ProtocolId protocol,
    MetricFn&& metric) {
  std::vector<std::pair<int, double>> series;
  for (const auto& cell : cells) {
    if (cell.protocol == protocol) {
      series.emplace_back(cell.x, metric(cell.result));
    }
  }
  return series;
}

}  // namespace charisma::experiment
