#include "protocols/rmav.hpp"

#include <gtest/gtest.h>

#include "../support/scenarios.hpp"

namespace charisma::protocols {
namespace {

using ::charisma::testing::ideal_channel;
using ::charisma::testing::small_mixed;

TEST(Rmav, WorksAtVeryLightLoad) {
  RmavProtocol proto(ideal_channel(5, 0));
  const auto& m = proto.run(3.0, 10.0);
  EXPECT_GT(m.voice_generated, 300);
  EXPECT_LT(m.voice_loss_rate(), 0.02);
}

TEST(Rmav, BecomesUnstableAtModerateVoiceLoad) {
  // The paper's headline RMAV result: one contention opportunity per frame
  // collapses at a moderate user count while every other protocol is fine.
  RmavProtocol light(small_mixed(8, 0, true, 2));
  RmavProtocol heavy(small_mixed(100, 0, true, 2));
  const auto& ml = light.run(4.0, 10.0);
  const auto& mh = heavy.run(4.0, 10.0);
  EXPECT_LT(ml.voice_loss_rate(), 0.05);
  EXPECT_GT(mh.voice_loss_rate(), 0.2);
}

TEST(Rmav, ShortDelayAtLightLoad) {
  // RMAV's selling point: frames shrink when idle, so data waits little.
  RmavProtocol proto(ideal_channel(0, 2));
  const auto& m = proto.run(3.0, 8.0);
  EXPECT_GT(m.data_delivered, 0);
  EXPECT_LT(m.mean_data_delay_s(), 0.25);
}

TEST(Rmav, PmaxCapsDataGrant) {
  RmavProtocol proto(ideal_channel(0, 1));
  const auto& m = proto.run(2.0, 6.0);
  EXPECT_GT(m.data_delivered, 0);
  // A single user's grant carries at most P_max slots, one packet each on
  // the fixed PHY, and a frame serves at most one grant.
  EXPECT_LE(m.data_throughput_per_frame(), RmavProtocol::kPmax + 1e-9);
}

TEST(Rmav, VariableFrameDurations) {
  // Frame count over a fixed horizon must exceed the fixed-frame count
  // when frames shrink below the nominal duration.
  RmavProtocol proto(ideal_channel(3, 1));
  const auto& m = proto.run(2.0, 5.0);
  const auto fixed_frames = static_cast<std::int64_t>(5.0 / 2.5e-3);
  EXPECT_GT(m.frames, fixed_frames);
}

TEST(Rmav, CompetitiveSlotIsOfferedEveryFrame) {
  // Every frame offers its served slots plus the competitive slot, a full
  // information slot (Fig. 2b) that never carries a packet, so a busy
  // cell's slot utilization stays below 1.
  RmavProtocol proto(small_mixed(30, 5, true, 7));
  const auto& m = proto.run(1.0, 3.0);
  ASSERT_GT(m.info_slots_assigned, 0);
  EXPECT_EQ(m.info_slots_offered, m.info_slots_assigned + m.frames);
  EXPECT_LT(m.slot_utilization(), 1.0);
}

TEST(Rmav, DeterministicGivenSeed) {
  RmavProtocol a(small_mixed(10, 3, true, 13));
  RmavProtocol b(small_mixed(10, 3, true, 13));
  const auto& ma = a.run(2.0, 5.0);
  const auto& mb = b.run(2.0, 5.0);
  EXPECT_EQ(ma.voice_delivered, mb.voice_delivered);
  EXPECT_EQ(ma.frames, mb.frames);
}

TEST(Rmav, Name) {
  RmavProtocol proto(small_mixed(1, 0));
  EXPECT_EQ(proto.name(), "RMAV");
}

}  // namespace
}  // namespace charisma::protocols
