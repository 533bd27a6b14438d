#include "experiment/sweep.hpp"

#include <stdexcept>

namespace charisma::experiment {

std::vector<SweepCell> run_sweep(const SweepConfig& config, WorkerPool& pool) {
  if (config.x_values.empty() || config.protocols_to_run.empty()) {
    throw std::invalid_argument("run_sweep: empty grid");
  }
  const std::size_t per_point = config.protocols_to_run.size();
  std::vector<SweepCell> cells(config.x_values.size() * per_point);
  pool.for_each(cells.size(), [&](std::size_t i) {
    const std::size_t xi = i / per_point;
    SweepCell& cell = cells[i];
    cell.x = config.x_values[xi];
    cell.protocol = config.protocols_to_run[i % per_point];
    RunSpec spec = config.spec;
    if (config.axis == SweepAxis::kVoiceUsers) {
      spec.params.num_voice_users = cell.x;
    } else {
      spec.params.num_data_users = cell.x;
    }
    // The point key depends only on the x index, so all protocols at a
    // point share seeds (common random numbers).
    cell.result = run_replications(cell.protocol, spec,
                                   static_cast<std::uint64_t>(xi));
  });
  return cells;
}

}  // namespace charisma::experiment
