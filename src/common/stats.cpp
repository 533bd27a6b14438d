#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/math.hpp"

namespace charisma::common {

void Accumulator::add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void Accumulator::merge(const Accumulator& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Accumulator::mean() const { return count_ > 0 ? mean_ : 0.0; }

double Accumulator::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

double RatioCounter::ratio() const {
  if (trials_ == 0) return 0.0;
  return static_cast<double>(successes_) / static_cast<double>(trials_);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {
  if (!(hi > lo) || bins == 0) {
    throw std::invalid_argument("Histogram: need hi > lo and bins > 0");
  }
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  auto idx = static_cast<std::ptrdiff_t>((x - lo_) / width_);
  if (idx >= static_cast<std::ptrdiff_t>(counts_.size())) {
    ++overflow_;
    return;
  }
  ++counts_[static_cast<std::size_t>(idx)];
}

void Histogram::merge(const Histogram& other) {
  if (other.counts_.size() != counts_.size() || other.lo_ != lo_ ||
      other.hi_ != hi_) {
    throw std::invalid_argument("Histogram::merge: incompatible geometry");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
}

double Histogram::clipped_fraction() const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(underflow_ + overflow_) /
         static_cast<double>(total_);
}

double Histogram::bin_lower(std::size_t i) const {
  return lo_ + width_ * static_cast<double>(i);
}

double Histogram::quantile(double q) const {
  if (total_ == 0) return lo_;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total_);
  // The underflow tail occupies the lowest ranks: a target inside it can
  // only be bounded by the range edge.
  if (target <= static_cast<double>(underflow_) && q < 1.0) return lo_;
  double cum = static_cast<double>(underflow_);
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cum + static_cast<double>(counts_[i]);
    if (next >= target) {
      const double inside =
          counts_[i] > 0 ? (target - cum) / static_cast<double>(counts_[i]) : 0.0;
      return bin_lower(i) + inside * width_;
    }
    cum = next;
  }
  return hi_;
}

namespace {
// Two-sided standard-normal quantile for the given confidence level.
double z_for_confidence(double confidence) {
  const double alpha = 1.0 - confidence;
  // P(|Z| < z) = confidence  =>  erfc(z/sqrt(2)) = alpha.
  return std::sqrt(2.0) * erfc_inv(alpha);
}
}  // namespace

double confidence_half_width(const Accumulator& acc, double confidence) {
  if (acc.count() < 2) return 0.0;
  const double z = z_for_confidence(confidence);
  return z * acc.stddev() / std::sqrt(static_cast<double>(acc.count()));
}

double proportion_half_width(const RatioCounter& counter, double confidence) {
  const auto n = static_cast<double>(counter.trials());
  if (n < 1.0) return 0.0;
  const double z = z_for_confidence(confidence);
  const double p = counter.ratio();
  const double z2 = z * z;
  return (z / (1.0 + z2 / n)) *
         std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
}

}  // namespace charisma::common
