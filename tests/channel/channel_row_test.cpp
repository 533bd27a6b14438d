// A user's channel is one ChannelBank row: these pin the statistics and
// the grid-step rules of a single row, driven through one-row banks.
#include "channel/channel_bank.hpp"

#include <cmath>
#include <gtest/gtest.h>

#include <utility>

#include "common/math.hpp"
#include "common/rng.hpp"

namespace charisma::channel {
namespace {

ChannelConfig test_config() {
  ChannelConfig cfg;
  cfg.mean_snr_db = 16.0;
  cfg.shadow_sigma_db = 3.0;
  cfg.doppler_hz = 100.0;
  cfg.diversity_branches = 4;
  cfg.sample_interval = 2.5e-3;
  return cfg;
}

/// A one-row bank: the standalone form of a user's channel.
ChannelBank one_row(const ChannelConfig& config, common::RngStream rng) {
  ChannelBank bank;
  bank.add_user(config, std::move(rng));
  return bank;
}

TEST(ChannelRow, MeanSnrNearLinkBudget) {
  auto ch = one_row(test_config(), common::RngStream(1));
  double sum = 0.0;
  const int n = 100000;
  for (int i = 1; i <= n; ++i) {
    ch.advance_user_to(0, static_cast<double>(i) * 2.5e-3);
    sum += ch.snr_linear(0);
  }
  // E[snr] = mean * E[fading]=1 * E[shadow] where E[10^(N(0,sigma)/10)]
  // = exp((sigma*ln10/10)^2/2) ~ 1.27 for sigma=3dB.
  const double shadow_mean = std::exp(std::pow(3.0 * std::log(10.0) / 10.0, 2) / 2.0);
  EXPECT_NEAR(sum / n, common::from_db(16.0) * shadow_mean,
              common::from_db(16.0) * 0.25);
}

TEST(ChannelRow, StateConstantWithinGridStep) {
  auto ch = one_row(test_config(), common::RngStream(3));
  ch.advance_user_to(0, 0.1);
  const double snr = ch.snr_linear(0);
  ch.advance_user_to(0, 0.1 + 1e-3);  // less than one 2.5 ms step further
  EXPECT_DOUBLE_EQ(ch.snr_linear(0), snr);
}

TEST(ChannelRow, IndependentUsersDecorrelated) {
  auto a = one_row(test_config(), common::RngStream(4));
  auto b = one_row(test_config(), common::RngStream(5));
  double sum_ab = 0.0, sum_a = 0.0, sum_b = 0.0, sum_a2 = 0.0, sum_b2 = 0.0;
  const int n = 20000;
  for (int i = 1; i <= n; ++i) {
    const double t = static_cast<double>(i) * 2.5e-3;
    a.advance_user_to(0, t);
    b.advance_user_to(0, t);
    const double fa = a.fading_power(0);
    const double fb = b.fading_power(0);
    sum_a += fa;
    sum_b += fb;
    sum_ab += fa * fb;
    sum_a2 += fa * fa;
    sum_b2 += fb * fb;
  }
  const double cov = sum_ab / n - (sum_a / n) * (sum_b / n);
  const double var_a = sum_a2 / n - (sum_a / n) * (sum_a / n);
  const double var_b = sum_b2 / n - (sum_b / n) * (sum_b / n);
  EXPECT_LT(std::fabs(cov / std::sqrt(var_a * var_b)), 0.1);
}

TEST(ChannelRow, SnrDbConsistent) {
  auto ch = one_row(test_config(), common::RngStream(6));
  ch.advance_user_to(0, 0.25);
  EXPECT_NEAR(ch.snr_db(0), common::to_db(ch.snr_linear(0)), 1e-12);
}

TEST(ChannelRow, DeterministicGivenSeed) {
  auto a = one_row(test_config(), common::RngStream(7));
  auto b = one_row(test_config(), common::RngStream(7));
  for (int i = 1; i <= 100; ++i) {
    const double t = static_cast<double>(i) * 2.5e-3;
    a.advance_user_to(0, t);
    b.advance_user_to(0, t);
    EXPECT_DOUBLE_EQ(a.snr_linear(0), b.snr_linear(0));
  }
}

TEST(ChannelRow, StepBoundaryRoundingTolerantOfAccumulatedTime) {
  // Frame clocks build t by summing frame durations that are not exact
  // binary fractions, so the accumulated t drifts a few ulp below n * dt.
  // The floor(t/dt + 1e-9) epsilon must land both clocks on the same grid
  // step; without it the accumulated clock falls one step behind and every
  // subsequent draw diverges.
  const double dt = 2.5e-3;
  auto exact = one_row(test_config(), common::RngStream(10));
  auto accumulated = one_row(test_config(), common::RngStream(10));
  double t = 0.0;
  for (int i = 1; i <= 4000; ++i) {
    t += dt;  // rounds; at i=3 already t != i * dt exactly
    exact.advance_user_to(0, static_cast<double>(i) * dt);
    accumulated.advance_user_to(0, t);
    ASSERT_DOUBLE_EQ(exact.snr_linear(0), accumulated.snr_linear(0)) << i;
  }
}

TEST(ChannelRow, StepBoundarySlightlyUnderMultipleRoundsUp) {
  // A target a hair under an exact multiple of dt (floating-point noise,
  // not a genuinely earlier time) must still advance to that step.
  const double dt = 2.5e-3;
  auto a = one_row(test_config(), common::RngStream(11));
  auto b = one_row(test_config(), common::RngStream(11));
  const double boundary = 100.0 * dt;
  a.advance_user_to(0, boundary);
  b.advance_user_to(0, boundary * (1.0 - 1e-12));
  EXPECT_DOUBLE_EQ(a.snr_linear(0), b.snr_linear(0));
  // ...while a target clearly inside the previous step lands one step
  // short (same seed, same single-jump path, different stride).
  auto c = one_row(test_config(), common::RngStream(11));
  c.advance_user_to(0, boundary - 0.6 * dt);
  EXPECT_NE(c.snr_linear(0), a.snr_linear(0));
}

TEST(ChannelConfig, DopplerForSpeed) {
  // 50 km/h at 2 GHz: fd = v fc / c ~ 92.6 Hz.
  const double fd = ChannelConfig::doppler_for_speed(
      common::km_per_hour(50.0), 2.0e9);
  EXPECT_NEAR(fd, 92.6, 0.5);
  EXPECT_THROW(ChannelConfig::doppler_for_speed(-1.0, 2e9),
               std::invalid_argument);
  EXPECT_THROW(ChannelConfig::doppler_for_speed(10.0, 0.0),
               std::invalid_argument);
}

TEST(ChannelRow, HigherDopplerDecorrelatesFaster) {
  auto slow_cfg = test_config();
  slow_cfg.doppler_hz = 20.0;
  auto fast_cfg = test_config();
  fast_cfg.doppler_hz = 200.0;
  auto slow = one_row(slow_cfg, common::RngStream(8));
  auto fast = one_row(fast_cfg, common::RngStream(9));
  double slow_diff = 0.0, fast_diff = 0.0;
  double prev_slow = 0.0, prev_fast = 0.0;
  for (int i = 1; i <= 20000; ++i) {
    const double t = static_cast<double>(i) * 2.5e-3;
    slow.advance_user_to(0, t);
    fast.advance_user_to(0, t);
    if (i > 1) {
      slow_diff += std::fabs(slow.fading_power(0) - prev_slow);
      fast_diff += std::fabs(fast.fading_power(0) - prev_fast);
    }
    prev_slow = slow.fading_power(0);
    prev_fast = fast.fading_power(0);
  }
  EXPECT_LT(slow_diff, fast_diff);
}

}  // namespace
}  // namespace charisma::channel
