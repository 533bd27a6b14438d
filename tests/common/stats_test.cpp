#include "common/stats.hpp"

#include <cmath>
#include <gtest/gtest.h>

namespace charisma::common {
namespace {

TEST(Accumulator, Empty) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(Accumulator, HandValues) {
  Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  // Sample variance of the classic data set: 32/7.
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(Accumulator, SingleSampleVarianceZero) {
  Accumulator acc;
  acc.add(3.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.stddev(), 0.0);
}

class AccumulatorMergeTest : public ::testing::TestWithParam<int> {};

TEST_P(AccumulatorMergeTest, MergeMatchesSequential) {
  const int split = GetParam();
  const std::vector<double> data = {1.5, -2.0, 3.25, 0.0, 7.75,
                                    -1.25, 4.0, 2.5, 6.0, -3.5};
  Accumulator whole;
  for (double x : data) whole.add(x);

  Accumulator a, b;
  for (int i = 0; i < static_cast<int>(data.size()); ++i) {
    (i < split ? a : b).add(data[static_cast<std::size_t>(i)]);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

INSTANTIATE_TEST_SUITE_P(Splits, AccumulatorMergeTest,
                         ::testing::Values(0, 1, 3, 5, 9, 10));

TEST(Accumulator, MergeEmptySides) {
  Accumulator a, b;
  a.add(1.0);
  a.add(2.0);
  Accumulator a_copy = a;
  a.merge(b);  // empty rhs: no change
  EXPECT_EQ(a.count(), 2);
  EXPECT_DOUBLE_EQ(a.mean(), 1.5);
  b.merge(a_copy);  // empty lhs adopts rhs
  EXPECT_EQ(b.count(), 2);
  EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

TEST(RatioCounter, Basics) {
  RatioCounter rc;
  EXPECT_DOUBLE_EQ(rc.ratio(), 0.0);
  rc.add(true);
  rc.add(false);
  rc.add(true);
  rc.add(true);
  EXPECT_EQ(rc.successes(), 3);
  EXPECT_EQ(rc.failures(), 1);
  EXPECT_DOUBLE_EQ(rc.ratio(), 0.75);
}

TEST(RatioCounter, AddManyAndMerge) {
  RatioCounter a, b;
  a.add_many(10, 100);
  b.add_many(5, 50);
  a.merge(b);
  EXPECT_EQ(a.trials(), 150);
  EXPECT_DOUBLE_EQ(a.ratio(), 0.1);
}

TEST(Histogram, BinningAndQuantiles) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i) / 10.0);
  EXPECT_EQ(h.count(), 100);
  EXPECT_EQ(h.bin_count(0), 10);
  EXPECT_NEAR(h.quantile(0.5), 5.0, 0.2);
  EXPECT_NEAR(h.quantile(0.95), 9.5, 0.2);
}

TEST(Histogram, OutOfRangeGoesToTailsNotEdgeBins) {
  // Regression: add() used to clamp out-of-range samples into the edge
  // bins, silently biasing the tail quantiles.
  Histogram h(0.0, 1.0, 4);
  h.add(-5.0);
  h.add(99.0);
  h.add(1.0);  // hi is exclusive: counts as overflow
  EXPECT_EQ(h.bin_count(0), 0);
  EXPECT_EQ(h.bin_count(3), 0);
  EXPECT_EQ(h.underflow(), 1);
  EXPECT_EQ(h.overflow(), 2);
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.clipped_fraction(), 1.0);
}

TEST(Histogram, QuantileAccountsForClippedMass) {
  Histogram h(0.0, 1.0, 10);
  for (int i = 0; i < 10; ++i) h.add(-1.0);  // underflow
  for (int i = 0; i < 10; ++i) h.add(0.55);  // in-range
  for (int i = 0; i < 10; ++i) h.add(7.0);   // overflow
  EXPECT_EQ(h.count(), 30);
  // Ranks inside the underflow tail can only be bounded by lo...
  EXPECT_DOUBLE_EQ(h.quantile(0.2), 0.0);
  // ...the median falls in the in-range bin...
  EXPECT_NEAR(h.quantile(0.5), 0.55, 0.1);
  // ...and ranks beyond the in-range mass report hi, not the last bin.
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 1.0);
  // Old clamping behaviour would have put the 95th percentile inside the
  // top bin (< 1.0) and the 20th inside the bottom one (> 0 width offset);
  // both were lies about data the range never covered.
}

TEST(Histogram, MergeCompatibility) {
  Histogram a(0.0, 1.0, 4), b(0.0, 1.0, 4), c(0.0, 2.0, 4);
  a.add(0.1);
  b.add(0.9);
  b.add(-3.0);
  b.add(42.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 4);
  EXPECT_EQ(a.underflow(), 1);
  EXPECT_EQ(a.overflow(), 1);
  EXPECT_THROW(a.merge(c), std::invalid_argument);
}

TEST(Histogram, InvalidConstruction) {
  EXPECT_THROW(Histogram(1.0, 0.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Confidence, HalfWidthShrinksWithSamples) {
  Accumulator small, large;
  RatioCounter dummy;
  for (int i = 0; i < 10; ++i) small.add(i % 2 == 0 ? 1.0 : -1.0);
  for (int i = 0; i < 1000; ++i) large.add(i % 2 == 0 ? 1.0 : -1.0);
  EXPECT_GT(confidence_half_width(small), confidence_half_width(large));
  EXPECT_GT(confidence_half_width(small), 0.0);
}

TEST(Confidence, ZeroForTinySamples) {
  Accumulator acc;
  EXPECT_DOUBLE_EQ(confidence_half_width(acc), 0.0);
  acc.add(1.0);
  EXPECT_DOUBLE_EQ(confidence_half_width(acc), 0.0);
}

TEST(Confidence, WilsonIntervalSanity) {
  RatioCounter rc;
  rc.add_many(10, 1000);  // p-hat = 1%
  const double hw = proportion_half_width(rc, 0.95);
  EXPECT_GT(hw, 0.001);
  EXPECT_LT(hw, 0.02);
  RatioCounter empty;
  EXPECT_DOUBLE_EQ(proportion_half_width(empty), 0.0);
}

TEST(Confidence, HigherConfidenceWiderInterval) {
  Accumulator acc;
  for (int i = 0; i < 100; ++i) acc.add(static_cast<double>(i % 7));
  EXPECT_GT(confidence_half_width(acc, 0.99), confidence_half_width(acc, 0.90));
}

}  // namespace
}  // namespace charisma::common
