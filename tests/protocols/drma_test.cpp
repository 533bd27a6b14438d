#include "protocols/drma.hpp"

#include <gtest/gtest.h>

#include "../support/scenarios.hpp"

namespace charisma::protocols {
namespace {

using ::charisma::testing::ideal_channel;
using ::charisma::testing::small_mixed;

TEST(Drma, IdealChannelLosesNoVoice) {
  DrmaProtocol proto(ideal_channel(10, 0));
  const auto& m = proto.run(3.0, 8.0);
  EXPECT_GT(m.voice_generated, 500);
  EXPECT_EQ(m.voice_error_lost, 0);
  EXPECT_EQ(m.voice_dropped_deadline, 0);
}

TEST(Drma, ConversionsThrottledAtSaturation) {
  // DRMA's self-throttling property (§3.3): request opportunities exist
  // only on idle slots, so at data saturation the offered minislots stay
  // well below the theoretical 11 slots x 8 minislots per frame, and the
  // system keeps moving packets instead of thrash-collapsing.
  DrmaProtocol busy(small_mixed(0, 80, true, 3));
  const auto& mb = busy.run(3.0, 6.0);
  const double busy_requests_per_frame =
      static_cast<double>(mb.request_slots) / static_cast<double>(mb.frames);
  EXPECT_LT(busy_requests_per_frame, 44.0);  // < half the theoretical max
  EXPECT_GT(mb.data_throughput_per_frame(), 4.0);
}

TEST(Drma, StableUnderDataOverload) {
  DrmaProtocol proto(small_mixed(0, 80, true, 3));
  const auto& m = proto.run(4.0, 8.0);
  // The paper's stability claim: throughput holds near the ceiling instead
  // of collapsing.
  EXPECT_GT(m.data_throughput_per_frame(), 5.0);
}

TEST(Drma, VoiceReservationKeepsSlotPosition) {
  DrmaProtocol proto(ideal_channel(6, 0));
  proto.run(2.0, 6.0);
  EXPECT_LE(proto.reservations_held(), 6);
}

TEST(Drma, InfoSlotBudgetRespected) {
  DrmaProtocol proto(small_mixed(20, 10));
  const auto& m = proto.run(2.0, 5.0);
  EXPECT_EQ(m.info_slots_offered, m.frames * 11);
  EXPECT_LE(m.info_slots_assigned, m.info_slots_offered);
}

TEST(Drma, DeterministicGivenSeed) {
  DrmaProtocol a(small_mixed(12, 4, true, 17));
  DrmaProtocol b(small_mixed(12, 4, true, 17));
  const auto& ma = a.run(2.0, 5.0);
  const auto& mb = b.run(2.0, 5.0);
  EXPECT_EQ(ma.voice_delivered, mb.voice_delivered);
  EXPECT_EQ(ma.data_delivered, mb.data_delivered);
}

TEST(Drma, Name) {
  DrmaProtocol proto(small_mixed(1, 0));
  EXPECT_EQ(proto.name(), "DRMA");
}

}  // namespace
}  // namespace charisma::protocols
