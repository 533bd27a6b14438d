#include "protocols/rama.hpp"

#include <gtest/gtest.h>

#include "../support/scenarios.hpp"

namespace charisma::protocols {
namespace {

using ::charisma::testing::ideal_channel;
using ::charisma::testing::small_mixed;

TEST(Rama, IdealChannelLosesNoVoice) {
  RamaProtocol proto(ideal_channel(10, 0));
  const auto& m = proto.run(3.0, 8.0);
  EXPECT_GT(m.voice_generated, 500);
  EXPECT_EQ(m.voice_error_lost, 0);
  EXPECT_EQ(m.voice_dropped_deadline, 0);
}

TEST(Rama, AuctionRateBoundsAdmissions) {
  // At most kAuctionSlots winners per frame, so with contention-free
  // queues off, data service is capped by auctions * 1 slot.
  RamaProtocol proto(ideal_channel(0, 40, /*queue=*/false));
  const auto& m = proto.run(3.0, 8.0);
  EXPECT_LE(m.data_throughput_per_frame(),
            RamaProtocol::kAuctionSlots + 1e-9);
}

TEST(Rama, NoCollisionsByDefault) {
  RamaProtocol proto(small_mixed(30, 10));
  const auto& m = proto.run(2.0, 6.0);
  EXPECT_EQ(m.request_collisions, 0);
}

TEST(Rama, StableUnderOverload) {
  // The auction always yields winners: even with 80 perpetually backlogged
  // data users, RAMA keeps delivering (the paper's graceful-degradation
  // property).
  RamaProtocol proto(small_mixed(0, 80, true, 3));
  const auto& m = proto.run(4.0, 8.0);
  EXPECT_GT(m.data_throughput_per_frame(), 5.0);
}

TEST(Rama, VoiceWinsAuctionsOverData) {
  // With heavy data load, voice users must still get served promptly
  // (voice IDs dominate the auction).
  RamaProtocol proto(small_mixed(10, 60, true, 5));
  const auto& m = proto.run(4.0, 10.0);
  EXPECT_LT(m.voice_drop_rate(), 0.05);
}

TEST(Rama, DeterministicGivenSeed) {
  RamaProtocol a(small_mixed(12, 6, true, 11));
  RamaProtocol b(small_mixed(12, 6, true, 11));
  const auto& ma = a.run(2.0, 5.0);
  const auto& mb = b.run(2.0, 5.0);
  EXPECT_EQ(ma.voice_delivered, mb.voice_delivered);
  EXPECT_EQ(ma.data_delivered, mb.data_delivered);
}

TEST(Rama, Name) {
  RamaProtocol proto(small_mixed(1, 0));
  EXPECT_EQ(proto.name(), "RAMA");
}

}  // namespace
}  // namespace charisma::protocols
