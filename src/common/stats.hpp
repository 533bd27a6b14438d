// Statistics accumulators used by protocol metrics and the experiment
// framework: Welford mean/variance, rate counters, histograms and normal
// confidence intervals. All accumulators are mergeable so replications run
// on different threads can be combined exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace charisma::common {

/// Streaming mean/variance/min/max accumulator (Welford). Mergeable.
class Accumulator {
 public:
  void add(double x);
  void merge(const Accumulator& other);

  std::int64_t count() const { return count_; }
  double mean() const;
  /// Unbiased sample variance; 0 when fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return mean() * static_cast<double>(count_); }

  /// Exact state equality (doubles compared with ==, not a tolerance) —
  /// what the parallel-determinism checks mean by "bit-identical".
  bool operator==(const Accumulator&) const = default;

 private:
  std::int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Ratio counter for loss/ error rates: successes out of trials.
class RatioCounter {
 public:
  void add(bool success) {
    ++trials_;
    if (success) ++successes_;
  }
  void add_many(std::int64_t successes, std::int64_t trials) {
    successes_ += successes;
    trials_ += trials;
  }
  void merge(const RatioCounter& other) {
    successes_ += other.successes_;
    trials_ += other.trials_;
  }

  std::int64_t successes() const { return successes_; }
  std::int64_t failures() const { return trials_ - successes_; }
  std::int64_t trials() const { return trials_; }
  /// successes / trials; 0 when no trials recorded.
  double ratio() const;

 private:
  std::int64_t successes_ = 0;
  std::int64_t trials_ = 0;
};

/// Fixed-width histogram over [lo, hi). Out-of-range samples are counted in
/// separate underflow/overflow tails (never folded into the edge bins, which
/// would bias the tail quantiles); they still participate in count() and in
/// quantile() rank bookkeeping, clipped to lo/hi. Used for delay
/// distributions.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  void merge(const Histogram& other);

  std::size_t bins() const { return counts_.size(); }
  /// Total samples recorded, out-of-range tails included.
  std::int64_t count() const { return total_; }
  std::int64_t bin_count(std::size_t i) const { return counts_.at(i); }
  /// Samples below lo / at-or-above hi. Consumers should warn when these
  /// carry a nontrivial share of the mass (see experiment::histogram_clip_warning).
  std::int64_t underflow() const { return underflow_; }
  std::int64_t overflow() const { return overflow_; }
  /// Fraction of the recorded mass that fell outside [lo, hi).
  double clipped_fraction() const;
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  double bin_lower(std::size_t i) const;
  /// Value below which the given fraction q (0..1) of samples fall,
  /// interpolated within the containing bin. Ranks landing in the underflow
  /// (overflow) tail report lo (hi) — the closest statement the histogram
  /// range allows.
  double quantile(double q) const;

  /// Exact state equality (see Accumulator::operator==).
  bool operator==(const Histogram&) const = default;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::int64_t> counts_;
  std::int64_t total_ = 0;
  std::int64_t underflow_ = 0;
  std::int64_t overflow_ = 0;
};

/// Symmetric normal-approximation confidence half-width for a sample mean.
/// Returns 0 for fewer than two samples.
double confidence_half_width(const Accumulator& acc, double confidence = 0.95);

/// Wilson score interval half-width for a proportion (suitable for the
/// small loss probabilities in Fig. 11). Returns the half-width around the
/// Wilson midpoint.
double proportion_half_width(const RatioCounter& counter,
                             double confidence = 0.95);

}  // namespace charisma::common
