#include "core/charisma.hpp"

#include <gtest/gtest.h>

#include "../support/scenarios.hpp"

namespace charisma::core {
namespace {

using ::charisma::testing::ideal_channel;
using ::charisma::testing::outage_channel;
using ::charisma::testing::small_mixed;

TEST(Charisma, IdealChannelLosesNoVoice) {
  CharismaProtocol proto(ideal_channel(10, 0));
  const auto& m = proto.run(3.0, 8.0);
  EXPECT_GT(m.voice_generated, 500);
  EXPECT_EQ(m.voice_error_lost, 0);
  EXPECT_EQ(m.voice_dropped_deadline, 0);
  EXPECT_EQ(m.voice_delivered, m.voice_generated);
}

TEST(Charisma, IdealChannelDeliversAllData) {
  CharismaProtocol proto(ideal_channel(0, 5));
  const auto& m = proto.run(3.0, 8.0);
  EXPECT_GT(m.data_generated, 300);
  // Everything offered is drained (ceiling is far above the offered load).
  EXPECT_GT(m.data_delivered, m.data_generated * 9 / 10);
  EXPECT_EQ(m.data_retransmissions, 0);
}

TEST(Charisma, ReservationsTrackTalkspurts) {
  CharismaProtocol proto(ideal_channel(8, 0));
  proto.run(2.0, 6.0);
  // Reservations exist only for ongoing talkspurts: bounded by user count.
  EXPECT_LE(proto.reservations_held(), 8u);
}

TEST(Charisma, VoiceContendsOncePerTalkspurtNotPerPacket) {
  // With reservations, request successes track talkspurt starts (~0.43/s
  // per user), not packets (50/s per user in talkspurt).
  CharismaProtocol proto(ideal_channel(10, 0));
  const auto& m = proto.run(3.0, 10.0);
  const double talkspurt_starts_expected = 10.0 * 10.0 / 2.35;
  EXPECT_LT(static_cast<double>(m.request_successes),
            3.0 * talkspurt_starts_expected);
  EXPECT_GT(m.request_successes, 0);
}

TEST(Charisma, NoQueueClearsPoolEveryFrame) {
  CharismaProtocol proto(small_mixed(10, 5, /*queue=*/false));
  proto.run(2.0, 5.0);
  EXPECT_EQ(proto.pool_size(), 0u);
}

TEST(Charisma, CsiPollingActiveWithQueue) {
  auto params = small_mixed(40, 0, /*queue=*/true);
  CharismaProtocol proto(params);
  const auto& m = proto.run(3.0, 8.0);
  EXPECT_GT(m.csi_polls, 0);
}

TEST(Charisma, CsiRefreshDisableIsHonored) {
  CharismaOptions options;
  options.csi_poll_budget = 0;  // the §4.4 refresh off
  CharismaProtocol proto(small_mixed(40, 0), options);
  const auto& m = proto.run(3.0, 8.0);
  EXPECT_EQ(m.csi_polls, 0);
}

TEST(Charisma, OutageChannelDropsNotErrors) {
  // In permanent outage CHARISMA never allocates (f(CSI) = 0, no usable
  // mode), so packets die by deadline, not by transmission error.
  CharismaProtocol proto(outage_channel(6, 0));
  const auto& m = proto.run(2.0, 6.0);
  EXPECT_GT(m.voice_generated, 200);
  EXPECT_EQ(m.voice_delivered, 0);
  EXPECT_EQ(m.voice_error_lost, 0);
  // Everything generated is dropped, modulo at most one in-flight packet
  // per user at the window edges.
  EXPECT_GE(m.voice_dropped_deadline, m.voice_generated - 6);
  EXPECT_LE(m.voice_dropped_deadline, m.voice_generated + 6);
  EXPECT_EQ(m.info_slots_assigned, 0);
}

TEST(Charisma, DeterministicGivenSeed) {
  CharismaProtocol a(small_mixed(15, 5, true, 77));
  CharismaProtocol b(small_mixed(15, 5, true, 77));
  const auto& ma = a.run(2.0, 5.0);
  const auto& mb = b.run(2.0, 5.0);
  EXPECT_EQ(ma.voice_generated, mb.voice_generated);
  EXPECT_EQ(ma.voice_delivered, mb.voice_delivered);
  EXPECT_EQ(ma.data_delivered, mb.data_delivered);
  EXPECT_EQ(ma.csi_polls, mb.csi_polls);
}

TEST(Charisma, QueueNeverIncreasesVoiceLoss) {
  CharismaProtocol with_queue(small_mixed(60, 0, true, 5));
  CharismaProtocol without(small_mixed(60, 0, false, 5));
  const auto& mq = with_queue.run(4.0, 10.0);
  const auto& mn = without.run(4.0, 10.0);
  EXPECT_LE(mq.voice_loss_rate(), mn.voice_loss_rate() + 5e-3);
}

TEST(Charisma, SlotAccountingConsistent) {
  CharismaProtocol proto(small_mixed(30, 10));
  const auto& m = proto.run(2.0, 5.0);
  EXPECT_LE(m.info_slots_assigned, m.info_slots_offered);
  EXPECT_LE(m.info_slots_wasted, m.info_slots_assigned);
  EXPECT_EQ(m.info_slots_offered, m.frames * 10);
}

TEST(Charisma, FairnessModeRuns) {
  CharismaOptions options;
  options.fairness = FairnessMode::kCapacityNormalized;
  CharismaProtocol proto(small_mixed(20, 5), options);
  const auto& m = proto.run(2.0, 5.0);
  EXPECT_GT(m.voice_delivered, 0);
}

TEST(Charisma, CapacityFairSchedulingImprovesJainIndex) {
  // The Sec. 6 / [22] extension, measured: in a cell with a 6 dB per-user
  // link-budget spread and a saturating data load, raw CSI ranking starves
  // the cell-edge users; capacity-normalized ranking must yield a more
  // even per-user delivery split.
  // Averaged over a few seeds: a single realization can be a near-tie
  // (the gamma_d waiting term already curbs starvation), but the fairness
  // ranking must win on average.
  double jain_raw = 0.0, jain_fair = 0.0;
  double tput_raw = 0.0, tput_fair = 0.0;
  for (std::uint64_t seed : {41, 42, 43}) {
    auto params = small_mixed(0, 30, true, seed);
    params.snr_spread_db = 6.0;
    params.mean_data_interarrival_s = 0.25;  // keep everyone backlogged

    CharismaOptions raw;
    CharismaOptions fair;
    fair.fairness = FairnessMode::kCapacityNormalized;

    CharismaProtocol a(params, raw);
    CharismaProtocol b(params, fair);
    const auto& ma = a.run(3.0, 10.0);
    const auto& mb = b.run(3.0, 10.0);
    jain_raw += ma.jain_fairness_index(0, 29);
    jain_fair += mb.jain_fairness_index(0, 29);
    tput_raw += ma.data_throughput_per_frame();
    tput_fair += mb.data_throughput_per_frame();
  }
  EXPECT_GT(jain_fair, jain_raw);
  // Fairness costs some aggregate throughput (serving below-average
  // channels), but not catastrophically.
  EXPECT_GT(tput_fair, 0.5 * tput_raw);
}

TEST(Charisma, SnrSpreadCreatesUnevenService) {
  // Sanity for the fairness premise itself: with spread and saturation,
  // raw CSI scheduling is measurably uneven.
  auto params = small_mixed(0, 30, true, 43);
  params.snr_spread_db = 6.0;
  params.mean_data_interarrival_s = 0.25;
  CharismaProtocol proto(params);
  const auto& m = proto.run(3.0, 10.0);
  // The gamma_d waiting term bounds the starvation, so the skew is
  // moderate — but measurably below even service.
  EXPECT_LT(m.jain_fairness_index(0, 29), 0.97);
}

TEST(Charisma, PriorityWeightsPlumbThrough) {
  // Zero voice offset with heavy data CSI weight must still deliver voice
  // (urgency term) — smoke-checks the option plumbing end to end.
  CharismaOptions options;
  options.priority.voice_offset = 0.0;
  options.priority.alpha_data = 3.0;
  CharismaProtocol proto(small_mixed(10, 10), options);
  const auto& m = proto.run(2.0, 5.0);
  EXPECT_GT(m.voice_delivered, 0);
  EXPECT_GT(m.data_delivered, 0);
}

TEST(Charisma, Name) {
  CharismaProtocol proto(small_mixed(1, 0));
  EXPECT_EQ(proto.name(), "CHARISMA");
}

}  // namespace
}  // namespace charisma::core
