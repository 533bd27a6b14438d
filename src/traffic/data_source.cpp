#include "traffic/data_source.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace charisma::traffic {

namespace {
constexpr double kTimeEps = 1e-9;
}

void ArrivalRing::grow() {
  std::vector<Run> grown(std::max<std::size_t>(4, 2 * runs_.size()));
  for (std::size_t k = 0; k < used_; ++k) grown[k] = runs_[slot(k)];
  runs_ = std::move(grown);
  head_ = 0;
}

void ArrivalRing::push_back(common::Time t, std::size_t count) {
  packets_ += count;
  if (used_ > 0) {
    Run& tail = runs_[slot(used_ - 1)];
    if (tail.time == t) {
      tail.count += count;
      return;
    }
  }
  if (used_ == runs_.size()) grow();
  runs_[slot(used_)] = Run{t, count};
  ++used_;
}

void ArrivalRing::push_front(std::span<const common::Time> arrivals) {
  // The last arrival lands next to the old head, so walk them backwards.
  for (auto it = arrivals.rbegin(); it != arrivals.rend(); ++it) {
    ++packets_;
    if (used_ > 0 && runs_[head_].time == *it) {
      ++runs_[head_].count;
      continue;
    }
    if (used_ == runs_.size()) grow();
    head_ = head_ == 0 ? runs_.size() - 1 : head_ - 1;
    runs_[head_] = Run{*it, 1};
    ++used_;
  }
}

DataSource::DataSource(const DataSourceConfig& config, common::TrafficRng rng)
    : config_(config), rng_(std::move(rng)) {
  if (config.mean_interarrival_s <= 0.0 || config.mean_burst_packets < 1.0) {
    throw std::invalid_argument("DataSource: invalid traffic parameters");
  }
  if (config.mmpp_rate_ratio < 1.0 || config.mmpp_mean_sojourn_s < 0.0) {
    throw std::invalid_argument("DataSource: invalid MMPP parameters");
  }
  if (config_.mmpp_enabled()) {
    mmpp_toggle_at_ = rng_.exponential(config_.mmpp_mean_sojourn_s);
  }
  next_burst_at_ = next_gap(0.0);
}

void DataSource::set_rate_scale(double scale) {
  if (!(scale > 0.0)) {
    throw std::invalid_argument("DataSource: rate scale must be positive");
  }
  rate_scale_ = scale;
}

double DataSource::next_gap(common::Time ref) {
  const double base = config_.mean_interarrival_s / rate_scale_;
  if (!config_.mmpp_enabled()) return rng_.exponential(base);
  while (mmpp_toggle_at_ <= ref) {
    mmpp_high_ = !mmpp_high_;
    mmpp_toggle_at_ += rng_.exponential(config_.mmpp_mean_sojourn_s);
  }
  return rng_.exponential(mmpp_high_ ? base / config_.mmpp_rate_ratio : base);
}

DataSource::FrameUpdate DataSource::on_frame(common::Time now) {
  FrameUpdate update;
  while (next_burst_at_ <= now + kTimeEps) {
    const auto burst = std::max<int>(
        1, static_cast<int>(std::ceil(rng_.exponential(config_.mean_burst_packets))));
    queue_.push_back(now, static_cast<std::size_t>(burst));
    packets_generated_ += burst;
    ++update.bursts_arrived;
    update.packets_arrived += burst;
    next_burst_at_ += next_gap(next_burst_at_);
  }
  return update;
}

void DataSource::pop_head() {
  if (queue_.empty()) {
    throw std::logic_error("DataSource::pop_head: empty queue");
  }
  queue_.pop_front();
}

void DataSource::push_front(std::span<const common::Time> arrivals) {
  queue_.push_front(arrivals);
}

}  // namespace charisma::traffic
