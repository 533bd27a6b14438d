// The scenario recipe: the world parse_scenario builds from knobs, the
// explicit knobs that override it, the knobs it rejects by name, and the
// help text that documents every key it accepts.
#include "experiment/scenario.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace charisma::experiment {
namespace {

Scenario parse(const std::vector<std::string>& args) {
  return parse_scenario(common::KeyValueConfig::from_args(args));
}

/// parse(args) throws std::invalid_argument whose message begins "knob=".
void expect_rejects(const std::vector<std::string>& args,
                    const std::string& knob) {
  try {
    parse(args);
    ADD_FAILURE() << "accepted " << knob;
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind(knob + "=", 0), 0u) << e.what();
  }
}

TEST(ScenarioRecipe, HexWorld) {
  const auto scenario = parse({"cells=7", "layout=hex", "reuse=3"});
  ASSERT_TRUE(scenario.world);
  const mac::CellularConfig& world = *scenario.world;
  EXPECT_EQ(world.num_cells, 7);
  EXPECT_EQ(world.layout.kind, mac::SiteLayoutConfig::Kind::kHex);
  EXPECT_EQ(world.layout.reuse_factor, 3);
  EXPECT_EQ(world.layout.site_spacing_m, 1000.0);
  const auto [width, height] = mac::SiteLayout::hex_field_extent(7, 1000.0);
  EXPECT_EQ(world.mobility.field_width_m, width);
  EXPECT_EQ(world.mobility.field_height_m, height);
  EXPECT_EQ(world.interference_activity, 0.4);
  EXPECT_EQ(world.params.channel.mean_snr_db, 26.0);
  EXPECT_EQ(world.mobility.speed_mps, common::km_per_hour(50.0));
  EXPECT_EQ(world.params.channel.doppler_hz,
            channel::ChannelConfig::doppler_for_speed(
                common::km_per_hour(50.0), 2.0e9));
}

TEST(ScenarioRecipe, LineWorld) {
  const auto scenario = parse({"cells=3"});
  ASSERT_TRUE(scenario.world);
  const mac::CellularConfig& world = *scenario.world;
  EXPECT_EQ(world.layout.kind, mac::SiteLayoutConfig::Kind::kLine);
  EXPECT_EQ(world.layout.site_spacing_m, 0.0);  // derived from the field
  EXPECT_EQ(world.mobility.field_width_m, 3000.0);
  EXPECT_EQ(world.mobility.field_height_m, 1000.0);
  EXPECT_EQ(world.interference_activity, 0.0);
}

TEST(ScenarioRecipe, ExplicitKnobsWin) {
  const auto scenario =
      parse({"cells=7", "layout=hex", "kmh=90", "mean_snr_db=20",
             "doppler_hz=100", "interference=0.1"});
  ASSERT_TRUE(scenario.world);
  const mac::CellularConfig& world = *scenario.world;
  EXPECT_EQ(world.params.channel.mean_snr_db, 20.0);
  EXPECT_EQ(world.params.channel.doppler_hz, 100.0);
  EXPECT_EQ(world.mobility.speed_mps, common::km_per_hour(90.0));
  EXPECT_EQ(world.interference_activity, 0.1);
}

TEST(ScenarioRecipe, SingleCellHasNoWorld) {
  const auto scenario = parse({"kmh=90"});
  EXPECT_FALSE(scenario.world);
  EXPECT_FALSE(scenario.sweep);
  // The single cell keeps the channel's whole-cell SNR.
  EXPECT_EQ(scenario.spec.params.channel.mean_snr_db, 16.0);
  EXPECT_EQ(scenario.spec.params.channel.doppler_hz,
            channel::ChannelConfig::doppler_for_speed(
                common::km_per_hour(90.0), 2.0e9));
}

TEST(ScenarioRecipe, RejectsByName) {
  // A parked population needs an explicit Doppler spread.
  expect_rejects({"kmh=0"}, "kmh");
  expect_rejects({"cells=3", "kmh=0"}, "kmh");
  EXPECT_NO_THROW(parse({"cells=3", "kmh=0", "doppler_hz=5"}));
  // A single cell rejects every world-only knob.
  for (const auto& key : kWorldOnlyKeys) {
    expect_rejects({key + "=1"}, key);
  }
  EXPECT_THROW(parse({"voice_user=80"}), std::invalid_argument);
}

// The message of the std::invalid_argument that `read` throws, or "" when
// it returns.
template <class Read>
std::string rejection(Read read) {
  try {
    read();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ScenarioRecipe, ListReadersNameTheirKnob) {
  const auto cells = [](const std::vector<std::string>& args) {
    return read_int_list(common::KeyValueConfig::from_args(args), "cells",
                         {7}, kAtLeastOne);
  };
  EXPECT_EQ(cells({}), std::vector<int>{7});
  EXPECT_EQ(cells({"cells=3,1,3"}), (std::vector<int>{3, 1, 3}));
  // A malformed entry, one outside the domain and an empty list.
  EXPECT_EQ(rejection([&] { cells({"cells=1,2x"}); }),
            "cells=: bad value '2x' in '1,2x'");
  EXPECT_EQ(rejection([&] { cells({"cells=3,0"}); }),
            "cells= must be >= 1, got '0'");
  EXPECT_EQ(rejection([&] { cells({"cells="}); }),
            "cells= must list at least one value");

  using protocols::ProtocolId;
  const auto ids = [](const std::vector<std::string>& args) {
    return read_protocol_list(common::KeyValueConfig::from_args(args),
                              "protocol", {ProtocolId::kCharisma});
  };
  EXPECT_EQ(ids({}), std::vector<ProtocolId>{ProtocolId::kCharisma});
  EXPECT_EQ(ids({"protocol=prma,D-TDMA/FR"}),
            (std::vector<ProtocolId>{ProtocolId::kPrma, ProtocolId::kDtdmaFr}));
  EXPECT_EQ(rejection([&] { ids({"protocol=prma,foo"}); }),
            "protocol=: bad value 'foo' in 'prma,foo'");
  EXPECT_EQ(rejection([&] { ids({"protocol="}); }),
            "protocol= must list at least one value");

  // x= reads through the same list reader, exactly as it did before.
  EXPECT_EQ(parse({"sweep=voice"}).sweep->x_values,
            (std::vector<int>{20, 60, 100, 140}));
  EXPECT_EQ(parse({"sweep=data", "x=0,5,5,3"}).sweep->x_values,
            (std::vector<int>{0, 5, 5, 3}));
  EXPECT_EQ(rejection([] { parse({"sweep=data", "x=1,2,3x"}); }),
            "x=: bad value '3x' in '1,2,3x'");
  EXPECT_EQ(rejection([] { parse({"sweep=voice", "x=4,-2"}); }),
            "x= must be >= 0, got '-2'");
  EXPECT_EQ(rejection([] { parse({"sweep=voice", "x="}); }),
            "x= must list at least one value");
}

TEST(ScenarioRecipe, HelpNamesEveryKey) {
  const std::string help(scenario_help());
  for (const auto& key : kScenarioKeys) {
    bool named = false;
    for (auto at = help.find(key + "="); at != std::string::npos && !named;
         at = help.find(key + "=", at + 1)) {
      const char before = at == 0 ? ' ' : help[at - 1];
      named = !(std::isalnum(static_cast<unsigned char>(before)) ||
                before == '_');
    }
    EXPECT_TRUE(named) << key;
  }
}

}  // namespace
}  // namespace charisma::experiment
