#include "protocols/factory.hpp"

#include <gtest/gtest.h>

#include "../support/scenarios.hpp"

namespace charisma::protocols {
namespace {

using ::charisma::testing::small_mixed;

TEST(Factory, AllProtocolsListed) {
  EXPECT_EQ(all_protocols().size(), 6u);
}

TEST(Factory, NamesRoundTrip) {
  for (auto id : all_protocols()) {
    EXPECT_EQ(parse_protocol(protocol_name(id)), id);
  }
}

TEST(Factory, ParseIsLenient) {
  EXPECT_EQ(parse_protocol("charisma"), ProtocolId::kCharisma);
  EXPECT_EQ(parse_protocol("CHARISMA"), ProtocolId::kCharisma);
  EXPECT_EQ(parse_protocol("d-tdma/fr"), ProtocolId::kDtdmaFr);
  EXPECT_EQ(parse_protocol("dtdma_vr"), ProtocolId::kDtdmaVr);
  EXPECT_EQ(parse_protocol("D-TDMA/VR"), ProtocolId::kDtdmaVr);
  EXPECT_EQ(parse_protocol("rama"), ProtocolId::kRama);
  EXPECT_EQ(parse_protocol("RMAV"), ProtocolId::kRmav);
  EXPECT_EQ(parse_protocol("drma"), ProtocolId::kDrma);
}

TEST(Factory, UnknownNameThrows) {
  EXPECT_THROW(parse_protocol("aloha"), std::invalid_argument);
  EXPECT_THROW(parse_protocol(""), std::invalid_argument);
}

TEST(Factory, BuildsEveryProtocol) {
  for (auto id : all_protocols()) {
    auto engine = make_protocol(id, small_mixed(5, 2));
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->name(), protocol_name(id));
    const auto& m = engine->run(1.0, 2.0);
    EXPECT_GT(m.frames, 0);
  }
}

TEST(Factory, CharismaOptionsForwarded) {
  core::CharismaOptions options;
  options.csi_poll_budget = 0;
  auto engine =
      make_protocol(ProtocolId::kCharisma, small_mixed(30, 0), options);
  const auto& m = engine->run(2.0, 4.0);
  EXPECT_EQ(m.csi_polls, 0);
}

TEST(Factory, InvalidScenarioRejected) {
  auto params = small_mixed(5, 0);
  params.voice_permission_prob = 0.0;
  EXPECT_THROW(make_protocol(ProtocolId::kCharisma, params),
               std::invalid_argument);
  params = small_mixed(5, 0);
  params.geometry.num_info_slots = 0;
  EXPECT_THROW(make_protocol(ProtocolId::kDtdmaFr, params),
               std::invalid_argument);
}

}  // namespace
}  // namespace charisma::protocols
