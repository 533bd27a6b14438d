// Report builders: renders sweep results as the rows/series the paper's
// figures report, and extracts capacity numbers (users supported at a QoS
// threshold), which fig11_voice_loss and fig13_data_delay print next to
// their panels.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "experiment/sweep.hpp"

namespace charisma::experiment {

using MetricSelector = std::function<double(const ReplicatedResult&)>;

/// One table per figure panel: first column the x axis, one column per
/// protocol, formatted with `formatter` (e.g. TextTable::sci for loss
/// probabilities).
common::TextTable figure_table(
    const std::string& title, const std::string& x_label,
    const std::vector<SweepCell>& cells,
    const std::vector<protocols::ProtocolId>& protocols_order,
    const MetricSelector& metric,
    const std::function<std::string(double)>& formatter);

/// Largest x for which the (monotonically interpolated) series stays at or
/// below `threshold`; nullopt when the first point already violates it,
/// and the largest swept x when no point does.
std::optional<double> capacity_at_threshold(
    const std::vector<std::pair<int, double>>& series, double threshold);

/// Warning line when more than `warn_fraction` of the histogram's mass fell
/// outside its [lo, hi) range — quantiles read off it are then clipped at
/// the range edges and should not be trusted. nullopt when the histogram is
/// healthy (or empty).
std::optional<std::string> histogram_clip_warning(
    const common::Histogram& histogram, const std::string& label,
    double warn_fraction = 0.01);

/// Capacity summary table: users supported at the threshold per protocol.
common::TextTable capacity_table(
    const std::string& title, const std::vector<SweepCell>& cells,
    const std::vector<protocols::ProtocolId>& protocols_order,
    const MetricSelector& metric, double threshold,
    const std::string& threshold_label);

}  // namespace charisma::experiment
