#include "mac/mobile_user.hpp"

#include <gtest/gtest.h>

namespace charisma::mac {
namespace {

ScenarioParams test_params() {
  ScenarioParams p;
  p.num_voice_users = 1;
  p.num_data_users = 1;
  p.seed = 42;
  return p;
}

/// A user with its channel row in `bank` and live traffic (visit 0).
MobileUser make_user(common::UserId id, ServiceType service,
                     const ScenarioParams& params, channel::ChannelBank& bank) {
  MobileUser u(id, service, params, bank, /*visit=*/0);
  u.ensure_traffic(params);
  return u;
}

TEST(MobileUser, VoiceConstruction) {
  channel::ChannelBank bank;
  const auto u = make_user(0, ServiceType::kVoice, test_params(), bank);
  EXPECT_TRUE(u.is_voice());
  EXPECT_FALSE(u.is_data());
  EXPECT_EQ(u.id(), 0);
  // Voice source is wired with the scenario's traffic parameters.
  EXPECT_DOUBLE_EQ(u.voice().config().mean_talkspurt_s, 1.0);
  EXPECT_DOUBLE_EQ(u.voice().config().voice_period, 0.02);
}

TEST(MobileUser, DataConstruction) {
  channel::ChannelBank bank;
  const auto u = make_user(5, ServiceType::kData, test_params(), bank);
  EXPECT_TRUE(u.is_data());
  EXPECT_DOUBLE_EQ(u.data().config().mean_burst_packets, 100.0);
}

TEST(MobileUser, IndependentStreamsAcrossUsers) {
  auto params = test_params();
  channel::ChannelBank bank;
  auto a = make_user(0, ServiceType::kVoice, params, bank);
  auto b = make_user(1, ServiceType::kVoice, params, bank);
  // Different user ids draw different MAC randomness despite one seed.
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.rng().exponential(1.0) == b.rng().exponential(1.0)) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(MobileUser, ReproducibleAcrossConstructions) {
  auto params = test_params();
  channel::ChannelBank bank_a, bank_b;
  auto a = make_user(0, ServiceType::kVoice, params, bank_a);
  auto b = make_user(0, ServiceType::kVoice, params, bank_b);
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(a.rng().exponential(1.0), b.rng().exponential(1.0));
  }
  bank_a.advance_user_to(a.slot(), 0.1);
  bank_b.advance_user_to(b.slot(), 0.1);
  EXPECT_DOUBLE_EQ(bank_a.snr_linear(a.slot()), bank_b.snr_linear(b.slot()));
}

TEST(MobileUser, BackoffDynamics) {
  channel::ChannelBank bank;
  auto u = make_user(0, ServiceType::kData, test_params(), bank);
  EXPECT_DOUBLE_EQ(u.backoff_scale(), 1.0);
  u.note_contention_collision();
  EXPECT_DOUBLE_EQ(u.backoff_scale(), 0.5);
  u.note_contention_collision();
  EXPECT_DOUBLE_EQ(u.backoff_scale(), 0.25);
  u.note_contention_success();
  EXPECT_DOUBLE_EQ(u.backoff_scale(), 1.0);
}

TEST(MobileUser, BackoffFloor) {
  channel::ChannelBank bank;
  auto u = make_user(0, ServiceType::kData, test_params(), bank);
  for (int i = 0; i < 20; ++i) u.note_contention_collision();
  EXPECT_DOUBLE_EQ(u.backoff_scale(), 1.0 / 64.0);
}

TEST(MobileUser, ChannelRowIsSeededByTheChannelStreamsFirstDraw) {
  // A user's bank row is the row add_user(config, RngStream(visit seed,
  // channel stream)) adds: the same I/Q, shadow and innovation cursor at
  // any id and visit. Visit 0 draws from the plain scenario seed, visit
  // v > 0 from derive_seed(seed, rebirth stream + v).
  constexpr std::uint64_t kChannelStream = 0x1000'0000ULL;
  constexpr std::uint64_t kRebirthStream = 0xA000'0000ULL;
  const auto params = test_params();
  for (const common::UserId id : {0, 1, 4095, 0x7FFF'FFFF}) {
    for (const std::uint32_t visit : {0u, 1u, 7u}) {
      SCOPED_TRACE(testing::Message() << "id " << id << " visit " << visit);
      const std::uint64_t seed =
          visit == 0 ? params.seed
                     : common::derive_seed(params.seed, kRebirthStream + visit);
      channel::ChannelBank bank, twin;
      const MobileUser u(id, ServiceType::kVoice, params, bank, visit);
      const std::size_t row = twin.add_user(
          params.channel,
          common::RngStream(seed,
                            kChannelStream + static_cast<std::uint64_t>(id)));
      for (int b = 0; b < params.channel.diversity_branches; ++b) {
        EXPECT_EQ(bank.fade_re(u.slot(), b), twin.fade_re(row, b));
        EXPECT_EQ(bank.fade_im(u.slot(), b), twin.fade_im(row, b));
      }
      EXPECT_EQ(bank.shadow_db(u.slot()), twin.shadow_db(row));
      EXPECT_EQ(bank.rng_cursor(u.slot()), twin.rng_cursor(row));
    }
  }
}

}  // namespace
}  // namespace charisma::mac
