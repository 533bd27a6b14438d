// Analysis-module tests, including the cross-validation of the simulator
// against the closed forms — the strongest evidence the Monte Carlo
// substrate implements the intended mathematics.
#include <gtest/gtest.h>

#include "analysis/fading_statistics.hpp"
#include "analysis/slotted_aloha.hpp"
#include "analysis/voice_capacity.hpp"
#include "channel/channel_bank.hpp"
#include "common/math.hpp"
#include "common/rng.hpp"
#include "mac/contention.hpp"

namespace charisma::analysis {
namespace {

TEST(SlottedAloha, SuccessProbabilityKnownValues) {
  EXPECT_DOUBLE_EQ(aloha_success_probability(0, 0.3), 0.0);
  EXPECT_DOUBLE_EQ(aloha_success_probability(1, 0.3), 0.3);
  EXPECT_NEAR(aloha_success_probability(2, 0.5), 0.5, 1e-12);
  EXPECT_NEAR(aloha_success_probability(4, 0.25),
              4 * 0.25 * std::pow(0.75, 3), 1e-12);
}

TEST(SlottedAloha, OptimalPermissionPeaksThroughput) {
  for (int k : {2, 5, 20}) {
    const double opt = optimal_permission(k);
    const double peak = aloha_success_probability(k, opt);
    EXPECT_GT(peak, aloha_success_probability(k, opt * 1.5));
    EXPECT_GT(peak, aloha_success_probability(k, opt * 0.5));
  }
}

TEST(SlottedAloha, LargePoolApproaches1OverE) {
  EXPECT_NEAR(aloha_success_probability(1000, optimal_permission(1000)),
              1.0 / std::exp(1.0), 1e-3);
}

TEST(SlottedAloha, ExpectedWinnersMatchesSimulation) {
  const int contenders = 6, minislots = 12;
  const double p = 0.3;
  const double analytic = expected_winners(contenders, minislots, p);

  // Monte Carlo with the engine's own contention implementation.
  std::vector<common::UserId> candidates;
  std::vector<common::RngStream> rngs;
  for (int i = 0; i < contenders; ++i) {
    candidates.push_back(i);
    rngs.emplace_back(static_cast<std::uint64_t>(i) * 7 + 3);
  }
  double total = 0.0;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    const auto outcome = mac::run_request_phase(
        candidates, minislots, [p](common::UserId) { return p; },
        [&rngs](common::UserId id) -> common::RngStream& {
          return rngs[static_cast<std::size_t>(id)];
        });
    total += static_cast<double>(outcome.winners.size());
  }
  EXPECT_NEAR(total / trials, analytic, 0.05);
}

TEST(SlottedAloha, StableLimitShape) {
  // More minislots support more contenders; tiny arrival rates are easy.
  const int lo = stable_contender_limit(1, 0.3, 0.1);
  const int hi = stable_contender_limit(12, 0.3, 0.1);
  EXPECT_GT(hi, lo);
  EXPECT_GT(lo, 0);
  // An arrival rate beyond the ALOHA peak is never stable at high k.
  EXPECT_EQ(stable_contender_limit(1, 0.3, 2.0), 0);
}

TEST(SlottedAloha, Validation) {
  EXPECT_THROW(aloha_success_probability(-1, 0.3), std::invalid_argument);
  EXPECT_THROW(aloha_success_probability(2, 1.5), std::invalid_argument);
  EXPECT_THROW(optimal_permission(0), std::invalid_argument);
  EXPECT_THROW(expected_winners(2, -1, 0.3), std::invalid_argument);
  EXPECT_THROW(stable_contender_limit(0, 0.3, 0.1), std::invalid_argument);
}

TEST(FadingStatistics, NoShadowMatchesGammaTail) {
  channel::ChannelConfig cfg;
  cfg.mean_snr_db = 16.0;
  cfg.shadow_sigma_db = 0.0;
  cfg.diversity_branches = 4;
  const double mean = common::from_db(16.0);
  const double th = common::from_db(5.5);
  const double expected =
      1.0 - common::gamma_upper_regularized(4, 4.0 * th / mean);
  EXPECT_NEAR(snr_below_probability(cfg, th), expected, 1e-12);
}

TEST(FadingStatistics, ShadowingWidensTheTail) {
  channel::ChannelConfig no_shadow;
  no_shadow.shadow_sigma_db = 0.0;
  channel::ChannelConfig with_shadow;
  with_shadow.shadow_sigma_db = 4.0;
  const double th = common::from_db(5.5);
  EXPECT_GT(snr_below_probability(with_shadow, th),
            snr_below_probability(no_shadow, th));
}

TEST(FadingStatistics, OccupancySumsToOne) {
  channel::ChannelConfig cfg;
  const auto table = phy::ModeTable::abicm6();
  const auto occupancy = mode_occupancy(cfg, table);
  ASSERT_EQ(occupancy.size(), 7u);
  double sum = 0.0;
  for (double p : occupancy) {
    EXPECT_GE(p, -1e-12);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(FadingStatistics, SimulatorMatchesAnalyticOccupancy) {
  // The Monte Carlo channel + mode selection must reproduce the analytic
  // stationary occupancy.
  channel::ChannelConfig cfg;  // calibrated defaults
  const auto table = phy::ModeTable::abicm6();
  const auto analytic = mode_occupancy(cfg, table);

  channel::ChannelBank ch;
  ch.add_user(cfg, common::RngStream(42));
  std::vector<double> empirical(7, 0.0);
  const int steps = 400000;
  for (int i = 1; i <= steps; ++i) {
    ch.advance_user_to(0, static_cast<double>(i) * 2.5e-3);
    const auto mode = table.select(ch.snr_linear(0));
    ++empirical[static_cast<std::size_t>(mode ? *mode + 1 : 0)];
  }
  for (auto& p : empirical) p /= steps;
  for (std::size_t q = 0; q < 7; ++q) {
    EXPECT_NEAR(empirical[q], analytic[q], 0.02) << "band " << q;
  }
}

TEST(FadingStatistics, MeanThroughputMatchesSimulation) {
  channel::ChannelConfig cfg;
  const auto table = phy::ModeTable::abicm6();
  const double analytic = mean_adaptive_throughput(cfg, table);

  channel::ChannelBank ch;
  ch.add_user(cfg, common::RngStream(43));
  double sum = 0.0;
  const int steps = 400000;
  for (int i = 1; i <= steps; ++i) {
    ch.advance_user_to(0, static_cast<double>(i) * 2.5e-3);
    sum += table.normalized_throughput(table.select(ch.snr_linear(0)));
  }
  EXPECT_NEAR(sum / steps, analytic, 0.05);
  // And it sits at roughly 2-3x the fixed PHY's 1 bit/symbol (the paper's
  // "twice the average offered throughput" of D-TDMA/VR over D-TDMA/FR).
  EXPECT_GT(analytic, 2.0);
  EXPECT_LT(analytic, 3.6);
}

TEST(VoiceCapacity, OfferedLoadAndSaturation) {
  VoiceLoadModel model;
  // 100 users * 0.4255 activity / 8 frames ~ 5.32 packets per frame.
  EXPECT_NEAR(model.offered_packets_per_frame(100), 5.32, 0.01);
  // 10 slots * 8 frames / activity ~ 188 users.
  EXPECT_NEAR(model.saturation_users(), 188.0, 1.0);
}

TEST(VoiceCapacity, OverflowLossMonotone) {
  VoiceLoadModel model;
  double prev = 0.0;
  for (int users : {40, 80, 120, 160, 200}) {
    const double loss = model.no_queue_overflow_loss(users);
    EXPECT_GE(loss, prev);
    prev = loss;
  }
  EXPECT_LT(model.no_queue_overflow_loss(40), 1e-4);
  EXPECT_GT(model.no_queue_overflow_loss(200), 0.02);
}

TEST(VoiceCapacity, NoQueueCapacityNearCalibrationTarget) {
  // The pure Poisson overflow model (every packet one allocation chance,
  // no re-contention recovery) puts the 1% knee at 107 users for the
  // default geometry.
  VoiceLoadModel model;
  const int capacity = model.no_queue_capacity(0.01);
  EXPECT_GT(capacity, 95);
  EXPECT_LT(capacity, 130);
}

TEST(VoiceCapacity, Validation) {
  VoiceLoadModel model;
  EXPECT_THROW(model.offered_packets_per_frame(-1), std::invalid_argument);
  EXPECT_THROW(model.no_queue_capacity(0.0), std::invalid_argument);
}

}  // namespace
}  // namespace charisma::analysis
