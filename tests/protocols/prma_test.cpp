#include "protocols/prma.hpp"

#include <gtest/gtest.h>

#include "../support/scenarios.hpp"
#include "protocols/dtdma.hpp"
#include "protocols/factory.hpp"

namespace charisma::protocols {
namespace {

using ::charisma::testing::ideal_channel;
using ::charisma::testing::small_mixed;

TEST(Prma, IdealChannelLosesNoVoiceAtLightLoad) {
  PrmaProtocol proto(ideal_channel(5, 0));
  const auto& m = proto.run(3.0, 8.0);
  EXPECT_GT(m.voice_generated, 250);
  EXPECT_EQ(m.voice_error_lost, 0);
  EXPECT_LT(m.voice_loss_rate(), 0.01);
}

TEST(Prma, CollisionsBurnInformationSlots) {
  // Packet-as-request contention: collisions consume whole info slots, so
  // the collision tally plus assignments never exceeds the slot budget.
  PrmaProtocol proto(small_mixed(40, 10, true, 3));
  const auto& m = proto.run(2.0, 6.0);
  EXPECT_GT(m.request_collisions, 0);
  EXPECT_LE(m.info_slots_assigned + m.request_collisions,
            m.info_slots_offered);
}

TEST(Prma, ReservationLifecycle) {
  PrmaProtocol proto(ideal_channel(8, 0));
  proto.run(2.0, 6.0);
  EXPECT_LE(proto.reservations_held(), 8);
}

TEST(Prma, DtdmaOutperformsItsAncestor) {
  // The point of D-TDMA's dedicated request minislots (paper §3.4): at a
  // loaded cell PRMA wastes information slots on collisions that D-TDMA/FR
  // resolves in cheap minislots.
  const auto params = small_mixed(120, 10, true, 5);
  PrmaProtocol prma(params);
  DtdmaProtocol dtdma(params, DtdmaProtocol::PhyVariant::kFixedRate);
  const auto& mp = prma.run(4.0, 10.0);
  const auto& md = dtdma.run(4.0, 10.0);
  EXPECT_GT(mp.voice_loss_rate(), md.voice_loss_rate());
}

TEST(Prma, FactoryConstructsIt) {
  EXPECT_EQ(parse_protocol("prma"), ProtocolId::kPrma);
  auto engine = make_protocol(ProtocolId::kPrma, small_mixed(5, 2));
  EXPECT_EQ(engine->name(), "PRMA");
  const auto& m = engine->run(1.0, 2.0);
  EXPECT_GT(m.frames, 0);
}

TEST(Prma, NotInThePapersSix) {
  for (auto id : all_protocols()) {
    EXPECT_NE(id, ProtocolId::kPrma);
  }
}

TEST(Prma, DeterministicGivenSeed) {
  PrmaProtocol a(small_mixed(12, 4, true, 19));
  PrmaProtocol b(small_mixed(12, 4, true, 19));
  const auto& ma = a.run(2.0, 5.0);
  const auto& mb = b.run(2.0, 5.0);
  EXPECT_EQ(ma.voice_delivered, mb.voice_delivered);
  EXPECT_EQ(ma.data_delivered, mb.data_delivered);
}

TEST(Prma, CustomSlotCount) {
  PrmaProtocol proto(small_mixed(10, 2));
  const auto& m = proto.run(1.0, 3.0);
  EXPECT_EQ(m.info_slots_offered, m.frames * PrmaProtocol::kInfoSlots);
}

}  // namespace
}  // namespace charisma::protocols
