// Parallel == serial, bit for bit: the CellularWorld's cells are
// share-nothing and the cross-cell steps run between the pool's barriers,
// so the number of worker threads must not change a single counter. These
// tests pin that property across protocols and cell counts — they are what
// lets the bench hand out 1×..N× thread sweeps as the *same* experiment.
#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "mac/cellular_world.hpp"
#include "protocols/factory.hpp"

namespace charisma::mac {
namespace {

EngineFactory factory_for(protocols::ProtocolId id) {
  return [id](const ScenarioParams& params) {
    return protocols::make_protocol(id, params);
  };
}

CellularConfig world_config(int cells, unsigned threads,
                            std::uint64_t seed = 7) {
  CellularConfig cfg;
  cfg.num_cells = cells;
  cfg.num_threads = threads;
  cfg.params.num_voice_users = 10;
  cfg.params.num_data_users = 4;
  cfg.params.seed = seed;
  cfg.params.channel.shadow_sigma_db = 6.0;
  cfg.mobility.field_width_m = 500.0 * cells;
  cfg.mobility.field_height_m = 300.0;
  cfg.mobility.speed_mps = common::km_per_hour(100.0);
  cfg.handoff_hysteresis_db = 2.0;
  return cfg;
}

/// A 7-cell hexagonal reuse-3 world with the uplink interference (SINR)
/// plane active — the post-barrier load aggregation and the per-cell
/// interference rows must preserve the same bit-identical guarantee.
CellularConfig hex_world_config(unsigned threads, std::uint64_t seed = 23) {
  CellularConfig cfg;
  cfg.num_cells = 7;
  cfg.num_threads = threads;
  cfg.params.num_voice_users = 10;
  cfg.params.num_data_users = 4;
  cfg.params.seed = seed;
  cfg.params.channel.shadow_sigma_db = 6.0;
  cfg.layout.kind = SiteLayoutConfig::Kind::kHex;
  cfg.layout.site_spacing_m = 600.0;
  cfg.layout.reuse_factor = 3;
  cfg.interference_activity = 0.45;
  const auto [width, height] = SiteLayout::hex_field_extent(7, 600.0);
  cfg.mobility.field_width_m = width;
  cfg.mobility.field_height_m = height;
  cfg.mobility.speed_mps = common::km_per_hour(100.0);
  cfg.handoff_hysteresis_db = 2.0;
  return cfg;
}

void expect_identical(const ProtocolMetrics& a, const ProtocolMetrics& b) {
  EXPECT_EQ(a.frames, b.frames);
  EXPECT_EQ(a.measured_time, b.measured_time);  // exact, not NEAR
  EXPECT_EQ(a.voice_generated, b.voice_generated);
  EXPECT_EQ(a.voice_delivered, b.voice_delivered);
  EXPECT_EQ(a.voice_dropped_deadline, b.voice_dropped_deadline);
  EXPECT_EQ(a.voice_error_lost, b.voice_error_lost);
  EXPECT_EQ(a.voice_dropped_handoff, b.voice_dropped_handoff);
  EXPECT_EQ(a.data_generated, b.data_generated);
  EXPECT_EQ(a.data_delivered, b.data_delivered);
  EXPECT_EQ(a.data_tx_attempts, b.data_tx_attempts);
  EXPECT_EQ(a.data_retransmissions, b.data_retransmissions);
  EXPECT_EQ(a.data_delay_s.count(), b.data_delay_s.count());
  EXPECT_EQ(a.data_delay_s.mean(), b.data_delay_s.mean());
  EXPECT_EQ(a.handoffs_in, b.handoffs_in);
  EXPECT_EQ(a.handoffs_out, b.handoffs_out);
  EXPECT_EQ(a.attached_user_frames, b.attached_user_frames);
  EXPECT_EQ(a.outage_evictions, b.outage_evictions);
  EXPECT_EQ(a.voice_dropped_outage, b.voice_dropped_outage);
  EXPECT_EQ(a.barring_checks, b.barring_checks);
  EXPECT_EQ(a.barring_barred_voice, b.barring_barred_voice);
  EXPECT_EQ(a.barring_barred_data, b.barring_barred_data);
  EXPECT_EQ(a.barring_factor_voice.count(), b.barring_factor_voice.count());
  EXPECT_EQ(a.barring_factor_voice.mean(), b.barring_factor_voice.mean());
  EXPECT_EQ(a.barring_factor_data.count(), b.barring_factor_data.count());
  EXPECT_EQ(a.barring_factor_data.mean(), b.barring_factor_data.mean());
  EXPECT_EQ(a.interference_db.count(), b.interference_db.count());
  EXPECT_EQ(a.interference_db.mean(), b.interference_db.mean());  // exact
  EXPECT_EQ(a.request_slots, b.request_slots);
  EXPECT_EQ(a.request_successes, b.request_successes);
  EXPECT_EQ(a.request_collisions, b.request_collisions);
  EXPECT_EQ(a.request_idle, b.request_idle);
  EXPECT_EQ(a.info_slots_offered, b.info_slots_offered);
  EXPECT_EQ(a.info_slots_assigned, b.info_slots_assigned);
  EXPECT_EQ(a.info_slots_wasted, b.info_slots_wasted);
  EXPECT_EQ(a.csi_polls, b.csi_polls);
  EXPECT_EQ(a.csi_stale_allocations, b.csi_stale_allocations);
  EXPECT_EQ(a.acks_lost, b.acks_lost);
  EXPECT_EQ(a.energy_request_j, b.energy_request_j);
  EXPECT_EQ(a.energy_info_j, b.energy_info_j);
  EXPECT_EQ(a.energy_pilot_j, b.energy_pilot_j);
  EXPECT_EQ(a.energy_wasted_j, b.energy_wasted_j);
  EXPECT_EQ(a.per_user_delivered, b.per_user_delivered);
  // Catch-all behind the diagnostic per-field checks above: the defaulted
  // ProtocolMetrics::operator== covers every field, histogram included, so
  // a counter added later cannot silently escape this test.
  EXPECT_TRUE(a == b);
}

void expect_worlds_identical(CellularWorld& serial, CellularWorld& parallel) {
  ASSERT_EQ(serial.num_cells(), parallel.num_cells());
  EXPECT_EQ(serial.handoffs(), parallel.handoffs());
  for (int c = 0; c < serial.num_cells(); ++c) {
    SCOPED_TRACE("cell " + std::to_string(c));
    expect_identical(serial.cell_metrics(c), parallel.cell_metrics(c));
  }
  const auto ma = serial.aggregate_metrics();
  const auto mb = parallel.aggregate_metrics();
  expect_identical(ma, mb);
  for (int u = 0; u < serial.cell(0).params().total_users(); ++u) {
    EXPECT_EQ(serial.attached_cell(static_cast<common::UserId>(u)),
              parallel.attached_cell(static_cast<common::UserId>(u)));
  }
}

class WorldDeterminism
    : public ::testing::TestWithParam<protocols::ProtocolId> {};

TEST_P(WorldDeterminism, ThreeCellsSerialVsFourThreads) {
  auto serial_cfg = world_config(/*cells=*/3, /*threads=*/1);
  auto parallel_cfg = world_config(/*cells=*/3, /*threads=*/4);
  CellularWorld serial(serial_cfg, factory_for(GetParam()));
  CellularWorld parallel(parallel_cfg, factory_for(GetParam()));
  serial.run(0.5, 2.0);
  parallel.run(0.5, 2.0);
  ASSERT_GT(serial.aggregate_metrics().voice_generated, 0);
  expect_worlds_identical(serial, parallel);
}

INSTANTIATE_TEST_SUITE_P(Protocols, WorldDeterminism,
                         ::testing::Values(protocols::ProtocolId::kCharisma,
                                           protocols::ProtocolId::kDtdmaFr,
                                           protocols::ProtocolId::kRmav),
                         [](const auto& info) {
                           // protocol_name has '/' and '-'; test names
                           // must be identifiers.
                           std::string name =
                               protocols::protocol_name(info.param);
                           for (char& ch : name) {
                             if (!std::isalnum(static_cast<unsigned char>(ch)))
                               ch = '_';
                           }
                           return name;
                         });

/// Hexagonal layout + interference plane, threads in {1, 2, 4, hardware}:
/// the extension of the PR 4 guarantee this PR's tentpole must preserve.
/// Two protocols so both fixed-frame and variable-frame epoch shapes run
/// over the SINR plane.
class HexWorldDeterminism
    : public ::testing::TestWithParam<protocols::ProtocolId> {};

TEST_P(HexWorldDeterminism, InterferenceBitIdenticalAcrossThreadCounts) {
  CellularWorld serial(hex_world_config(/*threads=*/1),
                       factory_for(GetParam()));
  serial.run(0.3, 1.2);
  const auto reference = serial.aggregate_metrics();
  ASSERT_GT(reference.voice_generated, 0);
  // The interference plane actually ran: one sample per cell per epoch,
  // and a reuse-3 cluster carrying load sees a non-zero mean penalty.
  ASSERT_GT(reference.interference_db.count(), 0);
  ASSERT_GT(reference.interference_db.mean(), 0.0);
  for (unsigned threads : {2u, 4u, 0u}) {  // 0 = hardware concurrency
    SCOPED_TRACE("threads " + std::to_string(threads));
    CellularWorld parallel(hex_world_config(threads), factory_for(GetParam()));
    parallel.run(0.3, 1.2);
    expect_worlds_identical(serial, parallel);
  }
}

TEST_P(HexWorldDeterminism, SparseBandBitIdenticalAcrossThreadCounts) {
  // Band smaller than the layout (radius 700 m on 600 m site spacing, so
  // membership churns with mobility) plus an outage window: the band
  // admit/release traffic runs on the coordinator in user-id order, so
  // the free-list state — and therefore every downstream draw — must stay
  // bit-identical at any thread count.
  auto make = [](unsigned threads) {
    auto cfg = hex_world_config(threads);
    cfg.pilot_band_radius_m = 700.0;
    // Darken cell 5 — the cell this seed's 14-user population actually
    // occupies during the window, so the eviction path provably fires.
    cfg.outages.push_back({5, 0.5, 0.9});
    return cfg;
  };
  CellularWorld serial(make(1), factory_for(GetParam()));
  serial.run(0.3, 1.2);
  const auto reference = serial.aggregate_metrics();
  ASSERT_GT(reference.voice_generated, 0);
  ASSERT_GT(reference.outage_evictions, 0);  // the fault fired
  for (unsigned threads : {2u, 4u, 0u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    CellularWorld parallel(make(threads), factory_for(GetParam()));
    parallel.run(0.3, 1.2);
    expect_worlds_identical(serial, parallel);
  }
}

INSTANTIATE_TEST_SUITE_P(Protocols, HexWorldDeterminism,
                         ::testing::Values(protocols::ProtocolId::kCharisma,
                                           protocols::ProtocolId::kRmav),
                         [](const auto& info) {
                           std::string name =
                               protocols::protocol_name(info.param);
                           for (char& ch : name) {
                             if (!std::isalnum(static_cast<unsigned char>(ch)))
                               ch = '_';
                           }
                           return name;
                         });

TEST(WorldDeterminismExtra, FourCellsThreadCountSweep) {
  // threads = 1, 2, 3, 8 must all agree on a 4-cell CHARISMA world,
  // including oversubscription (more threads than cells).
  auto make = [](unsigned threads) {
    auto cfg = world_config(/*cells=*/4, threads, /*seed=*/11);
    CellularWorld world(cfg,
                        factory_for(protocols::ProtocolId::kCharisma));
    world.run(0.4, 1.2);
    return world.aggregate_metrics();
  };
  const auto serial = make(1);
  ASSERT_GT(serial.voice_generated, 0);
  for (unsigned threads : {2u, 3u, 8u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    expect_identical(serial, make(threads));
  }
}

TEST(WorldDeterminismExtra, BarringOutageAndFlashCrowdBitIdentical) {
  // The PR 6 robustness layer all at once: closed-loop barring in every
  // engine, a mid-run cell outage (eviction + forced re-attach + filter
  // restart on recovery), and a flash-crowd traffic spike. All of it runs
  // inside per-cell engines or between the pool's barriers, so the
  // thread-count-invariance guarantee must survive unchanged.
  auto make = [](unsigned threads) {
    auto cfg = world_config(/*cells=*/3, threads, /*seed=*/17);
    cfg.params.barring = true;
    cfg.params.data_mmpp_rate_ratio = 4.0;
    cfg.params.data_mmpp_mean_sojourn_s = 0.5;
    cfg.outages.push_back({1, 0.8, 1.4});
    cfg.modulation.kind = traffic::TrafficModulationConfig::Kind::kFlashCrowd;
    cfg.modulation.epicenter_x_m = 750.0;
    cfg.modulation.epicenter_y_m = 150.0;
    cfg.modulation.radius_m = 400.0;
    cfg.modulation.rate_multiplier = 5.0;
    cfg.modulation.start = 0.5;
    cfg.modulation.end = 1.8;
    return cfg;
  };
  CellularWorld serial(make(1), factory_for(protocols::ProtocolId::kCharisma));
  serial.run(0.4, 1.6);
  const auto reference = serial.aggregate_metrics();
  ASSERT_GT(reference.voice_generated, 0);
  // The fault actually fired: someone was evicted from the dark cell.
  ASSERT_GT(reference.outage_evictions, 0);
  for (unsigned threads : {2u, 3u, 8u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    CellularWorld parallel(make(threads),
                           factory_for(protocols::ProtocolId::kCharisma));
    parallel.run(0.4, 1.6);
    expect_worlds_identical(serial, parallel);
  }
}

TEST(WorldDeterminismExtra, ShardCountSweepBitIdentical) {
  // The tentpole guarantee of the sharded coordinator: shard count and
  // thread count are pure performance knobs. With every serial-plane
  // feature active at once — sparse pilot bands (admit/release churn on
  // the engine free lists), the uplink interference plane, closed-loop
  // barring, and a mid-run outage — the metrics must stay bit-identical
  // for any (shards, threads) pair, including shards > threads,
  // shards < threads, and the hardware-concurrency defaults (0). The sweep
  // runs under both channel schedules, each against its own serial
  // reference: lazy rows materialize on the admit/release churn too.
  auto make = [](bool lazy, unsigned shards, unsigned threads) {
    auto cfg = hex_world_config(threads, /*seed=*/29);
    cfg.params.lazy_channel = lazy;
    cfg.num_shards = shards;
    cfg.pilot_band_radius_m = 700.0;
    // The load it takes to actually engage closed-loop barring (checks
    // are only counted while a class factor sits below 1). RMAV funnels
    // every request through one competitive slot per frame, so its cells
    // overload first; CHARISMA did not close the gate here under eager
    // channels at up to 140 voice users.
    cfg.params.num_voice_users = 120;
    cfg.params.num_data_users = 37;
    cfg.params.barring = true;
    cfg.outages.push_back({2, 0.5, 0.9});
    CellularWorld world(cfg, factory_for(protocols::ProtocolId::kRmav));
    world.run(0.3, 1.2);
    return world.aggregate_metrics();
  };
  for (const bool lazy : {false, true}) {
    SCOPED_TRACE(lazy ? "lazy channels" : "eager channels");
    const auto reference = make(lazy, /*shards=*/1, /*threads=*/1);
    ASSERT_GT(reference.voice_generated, 0);
    ASSERT_GT(reference.outage_evictions, 0);
    ASSERT_GT(reference.interference_db.count(), 0);
    ASSERT_GT(reference.barring_checks, 0);
    if (lazy) {
      ASSERT_GT(reference.users_skipped_frames, 0);
    }
    for (unsigned shards : {2u, 3u, 4u, 0u}) {  // 0 = match thread count
      for (unsigned threads : {1u, 2u, 4u, 0u}) {  // 0 = hardware
        SCOPED_TRACE("shards " + std::to_string(shards) + " threads " +
                     std::to_string(threads));
        expect_identical(reference, make(lazy, shards, threads));
      }
    }
  }
}

TEST(WorldDeterminismExtra, HardwareThreadsMatchesSerial) {
  // num_threads = 0 (hardware concurrency, whatever this host has) is the
  // bench's default sweep end point; it must be the same experiment too.
  auto cfg0 = world_config(/*cells=*/3, /*threads=*/0, /*seed=*/3);
  auto cfg1 = world_config(/*cells=*/3, /*threads=*/1, /*seed=*/3);
  CellularWorld hardware(cfg0, factory_for(protocols::ProtocolId::kDtdmaFr));
  CellularWorld serial(cfg1, factory_for(protocols::ProtocolId::kDtdmaFr));
  EXPECT_GE(hardware.thread_count(), 1u);
  hardware.run(0.3, 1.0);
  serial.run(0.3, 1.0);
  expect_worlds_identical(serial, hardware);
}

}  // namespace
}  // namespace charisma::mac
