// Failure injection: degenerate radio environments, hostile parameters and
// configuration edge cases must degrade gracefully, never crash or violate
// accounting.
#include <gtest/gtest.h>

#include "../support/scenarios.hpp"
#include "core/charisma.hpp"
#include "mac/cellular_world.hpp"
#include "protocols/factory.hpp"

namespace charisma {
namespace {

using protocols::ProtocolId;
using ::charisma::testing::outage_channel;
using ::charisma::testing::small_mixed;

class OutageTest : public ::testing::TestWithParam<ProtocolId> {};

TEST_P(OutageTest, DeadRadioNeverDeliversButNeverCrashes) {
  auto engine = protocols::make_protocol(GetParam(), outage_channel(10, 3));
  const auto& m = engine->run(2.0, 5.0);
  EXPECT_EQ(m.voice_delivered, 0);
  EXPECT_EQ(m.data_delivered, 0);
  EXPECT_GT(m.voice_generated, 0);
  // All voice losses are accounted to deadline or channel error.
  EXPECT_NEAR(m.voice_loss_rate(), 1.0, 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, OutageTest, ::testing::ValuesIn(protocols::all_protocols()),
    [](const ::testing::TestParamInfo<ProtocolId>& info) {
      std::string name = protocols::protocol_name(info.param);
      std::erase_if(name, [](char c) {
        return !std::isalnum(static_cast<unsigned char>(c));
      });
      return name;
    });

TEST(FailureInjection, TinyPermissionProbabilityStallsButRuns) {
  auto params = small_mixed(20, 5);
  params.voice_permission_prob = 0.001;
  params.data_permission_prob = 0.001;
  auto engine = protocols::make_protocol(ProtocolId::kCharisma, params);
  const auto& m = engine->run(1.0, 3.0);
  // Contention nearly never succeeds: heavy loss, clean accounting.
  EXPECT_GT(m.voice_drop_rate(), 0.1);
  EXPECT_EQ(m.request_slots,
            m.request_successes + m.request_collisions + m.request_idle);
}

TEST(FailureInjection, NoisyCsiEstimatesRaiseCharismaErrors) {
  auto clean = small_mixed(60, 0, true, 5);
  clean.csi_error_sigma_db = 0.0;
  auto noisy = small_mixed(60, 0, true, 5);
  noisy.csi_error_sigma_db = 6.0;
  auto e_clean = protocols::make_protocol(ProtocolId::kCharisma, clean);
  auto e_noisy = protocols::make_protocol(ProtocolId::kCharisma, noisy);
  const double err_clean = e_clean->run(3.0, 8.0).voice_error_rate();
  const double err_noisy = e_noisy->run(3.0, 8.0).voice_error_rate();
  EXPECT_GT(err_noisy, err_clean);
}

TEST(FailureInjection, CsiRefreshMattersAtHighDoppler) {
  // At 80 km/h-class Doppler, disabling the §4.4 refresh must not *help*.
  auto params = small_mixed(70, 0, true, 7);
  params.channel.doppler_hz = 160.0;
  core::CharismaOptions with_refresh;
  core::CharismaOptions without;
  without.csi_poll_budget = 0;
  core::CharismaProtocol a(params, with_refresh);
  core::CharismaProtocol b(params, without);
  const double loss_with = a.run(3.0, 8.0).voice_loss_rate();
  const double loss_without = b.run(3.0, 8.0).voice_loss_rate();
  EXPECT_LE(loss_with, loss_without + 2e-3);
}

TEST(FailureInjection, ZeroPilotBudgetDisablesPolling) {
  auto params = small_mixed(40, 0);
  params.geometry.num_pilot_slots = 0;
  core::CharismaProtocol proto(params);
  const auto& m = proto.run(2.0, 4.0);
  EXPECT_EQ(m.csi_polls, 0);
  EXPECT_GT(m.voice_delivered, 0);  // still functions on request pilots
}

TEST(FailureInjection, InvalidScenariosRejected) {
  auto params = small_mixed(5, 0);
  params.mean_talkspurt_s = 0.0;
  EXPECT_THROW(protocols::make_protocol(ProtocolId::kCharisma, params),
               std::invalid_argument);
  params = small_mixed(5, 0);
  params.voice_permission_prob = 1.5;
  EXPECT_THROW(protocols::make_protocol(ProtocolId::kRama, params),
               std::invalid_argument);
  params = small_mixed(5, 0);
  params.csi_validity_frames = 0;
  EXPECT_THROW(protocols::make_protocol(ProtocolId::kDtdmaVr, params),
               std::invalid_argument);
}

TEST(FailureInjection, RunArgumentValidation) {
  auto engine = protocols::make_protocol(ProtocolId::kCharisma,
                                         small_mixed(2, 0));
  EXPECT_THROW(engine->run(-1.0, 5.0), std::invalid_argument);
  EXPECT_THROW(engine->run(1.0, 0.0), std::invalid_argument);
}

TEST(FailureInjection, EmptyPopulationRuns) {
  for (auto id : protocols::all_protocols()) {
    auto engine = protocols::make_protocol(id, small_mixed(0, 0));
    const auto& m = engine->run(0.5, 1.0);
    EXPECT_EQ(m.voice_generated, 0);
    EXPECT_EQ(m.data_generated, 0);
  }
}

TEST(FailureInjection, SingleUserEveryProtocol) {
  for (auto id : protocols::all_protocols()) {
    auto engine = protocols::make_protocol(id, small_mixed(1, 0));
    const auto& m = engine->run(2.0, 5.0);
    // A lone voice user on a healthy channel should essentially never lose
    // packets under any protocol.
    EXPECT_LT(m.voice_loss_rate(), 0.05)
        << protocols::protocol_name(id);
  }
}

// ---------------------------------------------------------------- world
// PR 6: fault injection at the world level. A cell going dark mid-run must
// evict its users (dropping their in-flight voice into the books), hand
// them to live neighbours, and take them back after recovery — without
// crashing, losing accounting, or depending on the worker thread count.

mac::CellularConfig outage_world_config(std::uint64_t seed = 7) {
  mac::CellularConfig cfg;
  cfg.num_cells = 3;
  cfg.num_threads = 1;
  cfg.params.num_voice_users = 12;
  cfg.params.num_data_users = 4;
  cfg.params.seed = seed;
  cfg.params.channel.shadow_sigma_db = 6.0;
  cfg.mobility.field_width_m = 1500.0;
  cfg.mobility.field_height_m = 300.0;
  cfg.mobility.speed_mps = common::km_per_hour(50.0);
  cfg.handoff_hysteresis_db = 2.0;
  return cfg;
}

mac::EngineFactory charisma_factory() {
  return [](const mac::ScenarioParams& p) {
    return protocols::make_protocol(ProtocolId::kCharisma, p);
  };
}

TEST(WorldFailureInjection, MidRunOutageEvictsAndRecovers) {
  auto cfg = outage_world_config();
  cfg.outages.push_back({1, 0.5, 1.0});
  mac::CellularWorld world(cfg, charisma_factory());
  world.run(0.0, 2.0);
  const auto m = world.aggregate_metrics();

  // The fault fired and the books balance: every attachment change is a
  // handoff out of a live cell or an eviction out of the dark one.
  EXPECT_GT(m.outage_evictions, 0);
  EXPECT_EQ(m.handoffs_in, m.handoffs_out + m.outage_evictions);
  EXPECT_EQ(world.cell_dark(1), false);  // the window closed

  // Recovery is real: the dark cell serves users again afterwards.
  int total_attached = 0;
  for (int c = 0; c < 3; ++c) total_attached += world.attached_count(c);
  EXPECT_EQ(total_attached, cfg.params.total_users());
  EXPECT_GT(world.attached_count(1), 0);
}

TEST(WorldFailureInjection, OutageDeterministicAcrossThreadCounts) {
  auto make = [](unsigned threads) {
    auto cfg = outage_world_config(/*seed=*/13);
    cfg.num_threads = threads;
    cfg.outages.push_back({0, 0.4, 0.9});
    cfg.outages.push_back({2, 1.1, 1.5});
    mac::CellularWorld world(cfg, charisma_factory());
    world.run(0.2, 1.8);
    return world.aggregate_metrics();
  };
  const auto serial = make(1);
  ASSERT_GT(serial.outage_evictions, 0);
  for (unsigned threads : {2u, 3u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const auto parallel = make(threads);
    EXPECT_TRUE(serial == parallel);
  }
}

TEST(WorldFailureInjection, AllCellsDarkDoesNotCrash) {
  // Total blackout: nowhere to evict to, so users stay put (dark-attached)
  // and service resumes when the lights come back.
  auto cfg = outage_world_config(/*seed=*/5);
  for (int c = 0; c < 3; ++c) cfg.outages.push_back({c, 0.4, 0.8});
  mac::CellularWorld world(cfg, charisma_factory());
  world.run(0.0, 1.5);
  const auto m = world.aggregate_metrics();
  EXPECT_EQ(m.handoffs_in, m.handoffs_out + m.outage_evictions);
  int total_attached = 0;
  for (int c = 0; c < 3; ++c) total_attached += world.attached_count(c);
  EXPECT_EQ(total_attached, cfg.params.total_users());
}

TEST(WorldFailureInjection, InvalidOutageWindowsRejected) {
  auto cfg = outage_world_config();
  cfg.outages.push_back({5, 0.5, 1.0});  // no such cell
  EXPECT_THROW(mac::CellularWorld(cfg, charisma_factory()),
               std::invalid_argument);
  cfg = outage_world_config();
  cfg.outages.push_back({1, 1.0, 0.5});  // end before start
  EXPECT_THROW(mac::CellularWorld(cfg, charisma_factory()),
               std::invalid_argument);
}

TEST(FailureInjection, HugeBurstsDoNotOverflow) {
  auto params = small_mixed(0, 2);
  params.mean_burst_packets = 5000.0;
  auto engine = protocols::make_protocol(ProtocolId::kCharisma, params);
  const auto& m = engine->run(1.0, 4.0);
  EXPECT_GE(m.data_generated, 0);
  EXPECT_LE(m.data_delivered, m.data_generated);
}

}  // namespace
}  // namespace charisma
