// Engine/world-level contract of the opt-in lazy channel (suite name is
// load-bearing: the lazy_equivalence_smoke ctest runs
// --gtest_filter=LazyEquivalence* in every build config, TSan/ASan
// included). The lazy realization is pinned invariant to the worker thread
// count — also under partial pilot bands, where every protocol's touch
// sets must be translated from user ids to recycled bank slots; the eager
// default keeps reporting a materialization stride of exactly 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "mac/cellular_world.hpp"
#include "protocols/factory.hpp"

namespace charisma::mac {
namespace {

ScenarioParams tiny_params(std::uint64_t seed) {
  ScenarioParams p;
  p.num_voice_users = 12;
  p.num_data_users = 4;
  p.seed = seed;
  p.lazy_channel = true;
  return p;
}

EngineFactory factory_for(protocols::ProtocolId id) {
  return [id](const ScenarioParams& params) {
    return protocols::make_protocol(id, params);
  };
}

CellularConfig lazy_world_config(unsigned threads, std::uint64_t seed = 7) {
  CellularConfig cfg;
  cfg.num_cells = 3;
  cfg.num_threads = threads;
  cfg.params = tiny_params(seed);
  cfg.params.channel.shadow_sigma_db = 6.0;
  cfg.mobility.field_width_m = 1500.0;
  cfg.mobility.field_height_m = 300.0;
  cfg.mobility.speed_mps = common::km_per_hour(100.0);
  cfg.handoff_hysteresis_db = 2.0;
  return cfg;
}

/// A 7-cell hex reuse-3 cluster (site spacing 600 m) whose 700 m pilot
/// band is smaller than the layout: band membership churns with mobility,
/// bank rows are released and recycled, and user ids stop matching bank
/// slots.
CellularConfig lazy_band_config(unsigned threads) {
  CellularConfig cfg;
  cfg.num_cells = 7;
  cfg.num_threads = threads;
  cfg.params = tiny_params(23);
  cfg.params.channel.shadow_sigma_db = 6.0;
  cfg.layout.kind = SiteLayoutConfig::Kind::kHex;
  cfg.layout.site_spacing_m = 600.0;
  cfg.layout.reuse_factor = 3;
  cfg.pilot_band_radius_m = 700.0;
  const auto [width, height] = SiteLayout::hex_field_extent(7, 600.0);
  cfg.mobility.field_width_m = width;
  cfg.mobility.field_height_m = height;
  cfg.mobility.speed_mps = common::km_per_hour(100.0);
  cfg.handoff_hysteresis_db = 2.0;
  return cfg;
}

TEST(LazyEquivalence, PartialBandWorldThreadInvariantPerProtocol) {
  // Lazy channels under sparse presence: every protocol's touch sets name
  // user ids, which the engine translates into the band's bank slots.
  // Each protocol must run, actually defer materialization, and produce
  // bit-identical metrics at any thread count.
  std::vector<protocols::ProtocolId> ids = protocols::all_protocols();
  ids.push_back(protocols::ProtocolId::kPrma);
  for (auto id : ids) {
    SCOPED_TRACE(protocols::protocol_name(id));
    CellularWorld serial(lazy_band_config(1), factory_for(id));
    serial.run(0.3, 1.0);
    const auto reference = serial.aggregate_metrics();
    ASSERT_GT(reference.frames, 0);
    ASSERT_GT(reference.voice_generated, 0);
    EXPECT_GT(reference.mean_materialization_stride(), 1.0);
    // The band really is partial: some cell holds only part of the
    // population, so its bank slots cannot all equal user ids.
    std::size_t smallest_band = serial.cell(0).band_size();
    for (int c = 1; c < serial.num_cells(); ++c) {
      smallest_band = std::min(smallest_band, serial.cell(c).band_size());
    }
    EXPECT_LT(smallest_band, static_cast<std::size_t>(
                                 lazy_band_config(1).params.total_users()));
    for (unsigned threads : {2u, 4u}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      CellularWorld parallel(lazy_band_config(threads), factory_for(id));
      parallel.run(0.3, 1.0);
      EXPECT_EQ(serial.handoffs(), parallel.handoffs());
      EXPECT_TRUE(reference == parallel.aggregate_metrics());
    }
  }
}

TEST(LazyEquivalence, MaterializationCountsPinnedPerProtocol) {
  // A lazy path depends on when each user's channel is read: a frame scan
  // that reads one more (or one fewer) channel changes that user's whole
  // later path, and so every result — while the thread-count invariance
  // above still holds. These exact counters on the partial-band world turn
  // such a read-set change into a failure. A refactor of the per-frame
  // scans must reproduce them unchanged; an intentional change to what a
  // frame reads regenerates them.
  struct Pin {
    protocols::ProtocolId id;
    std::int64_t users_advanced_frames;
    std::int64_t users_skipped_frames;
    std::int64_t voice_generated;
    std::int64_t voice_delivered;
    std::int64_t data_delivered;
    std::int64_t request_successes;
    std::int64_t handoffs;
  };
  const Pin pins[] = {
      {protocols::ProtocolId::kCharisma, 2240, 12237, 217, 161, 233, 14, 4},
      {protocols::ProtocolId::kDtdmaVr, 2351, 12132, 217, 153, 289, 14, 4},
      {protocols::ProtocolId::kDrma, 2392, 12083, 217, 155, 199, 2158, 4},
      {protocols::ProtocolId::kRama, 2695, 11780, 217, 155, 251, 15, 4},
      {protocols::ProtocolId::kDtdmaFr, 2353, 12130, 217, 155, 318, 14, 4},
      {protocols::ProtocolId::kRmav, 2325, 12130, 217, 153, 361, 596, 4},
      {protocols::ProtocolId::kPrma, 2474, 12001, 217, 155, 372, 1249, 4},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(protocols::protocol_name(pin.id));
    CellularWorld world(lazy_band_config(1), factory_for(pin.id));
    world.run(0.3, 1.0);
    const auto m = world.aggregate_metrics();
    EXPECT_EQ(m.users_advanced_frames, pin.users_advanced_frames);
    EXPECT_EQ(m.users_skipped_frames, pin.users_skipped_frames);
    EXPECT_EQ(m.voice_generated, pin.voice_generated);
    EXPECT_EQ(m.voice_delivered, pin.voice_delivered);
    EXPECT_EQ(m.data_delivered, pin.data_delivered);
    EXPECT_EQ(m.request_successes, pin.request_successes);
    EXPECT_EQ(world.handoffs(), pin.handoffs);
  }
}

TEST(LazyEquivalence, TouchSchedulePinnedPerProtocol) {
  // The counters above are world totals; this pins *when* each row
  // materializes. One lazy engine per protocol runs in one-slot windows,
  // so every frame is seen on its own (RMAV's shortest frame is one slot),
  // and after each window every band member's materialized step is folded
  // into a digest. Moving one read or touch to another frame changes it.
  struct Pin {
    protocols::ProtocolId id;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {protocols::ProtocolId::kCharisma, 0x595f3a56b69c77dbULL},
      {protocols::ProtocolId::kDtdmaVr, 0xb5086bd4ea06183dULL},
      {protocols::ProtocolId::kDrma, 0x8234b44bf1ba52d4ULL},
      {protocols::ProtocolId::kRama, 0x6ceb646123994f92ULL},
      {protocols::ProtocolId::kDtdmaFr, 0x1eba6469c5bd5bf1ULL},
      {protocols::ProtocolId::kRmav, 0x7e449026b22fe411ULL},
      {protocols::ProtocolId::kPrma, 0x50a6d6ce2da7fa46ULL},
  };
  ScenarioParams params;
  params.num_voice_users = 60;
  params.num_data_users = 10;
  params.seed = 31;
  params.lazy_channel = true;
  const common::Time window = params.geometry.slot_duration();
  for (const Pin& pin : pins) {
    SCOPED_TRACE(protocols::protocol_name(pin.id));
    auto engine = protocols::make_protocol(pin.id, params);
    const auto& bank = engine->channel_bank();
    // 64-bit FNV-1a over the little-endian bytes of each folded value.
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    const auto fold = [&digest](std::int64_t value) {
      const auto v = static_cast<std::uint64_t>(value);
      for (int byte = 0; byte < 8; ++byte) {
        digest = (digest ^ ((v >> (8 * byte)) & 0xffu)) * 0x100000001b3ULL;
      }
    };
    for (int w = 0; w < 9000; ++w) {
      engine->advance_by(window);
      for (const BandMember& m : engine->band()) {
        fold(bank.current_step(m.slot));
      }
    }
    fold(engine->metrics().users_advanced_frames);
    fold(engine->metrics().users_skipped_frames);
    EXPECT_EQ(digest, pin.digest) << std::hex << "0x" << digest;
  }
}

TEST(LazyEquivalence, LazyWorldSerialVsParallel) {
  // Thread-count invariance survives lazy materialization: the per-cell
  // banks stay share-nothing and each user's innovation stream is private,
  // so who materializes when cannot depend on scheduling.
  CellularWorld serial(lazy_world_config(1),
                       factory_for(protocols::ProtocolId::kCharisma));
  serial.run(0.4, 1.2);
  const auto reference = serial.aggregate_metrics();
  ASSERT_GT(reference.voice_generated, 0);
  for (unsigned threads : {2u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    CellularWorld parallel(lazy_world_config(threads),
                           factory_for(protocols::ProtocolId::kCharisma));
    parallel.run(0.4, 1.2);
    EXPECT_EQ(serial.handoffs(), parallel.handoffs());
    EXPECT_TRUE(reference == parallel.aggregate_metrics());
  }
}

TEST(LazyEquivalence, LazyWorldWithBarringSerialVsParallel) {
  // The closed-loop barring controller adds channel reads on the
  // contention path; the guarantee must hold with it engaged too.
  auto make = [](unsigned threads) {
    auto cfg = lazy_world_config(threads, /*seed=*/17);
    cfg.params.barring = true;
    return cfg;
  };
  CellularWorld serial(make(1), factory_for(protocols::ProtocolId::kRmav));
  serial.run(0.4, 1.2);
  const auto reference = serial.aggregate_metrics();
  ASSERT_GT(reference.voice_generated, 0);
  CellularWorld parallel(make(3), factory_for(protocols::ProtocolId::kRmav));
  parallel.run(0.4, 1.2);
  EXPECT_TRUE(reference == parallel.aggregate_metrics());
}

TEST(LazyEquivalence, LazyVsEagerSanity) {
  // Lazy is a different (equally exact) realization, so metrics are not
  // bitwise comparable — but a fixed-cadence protocol generates traffic on
  // the same frame boundaries either way, and only lazy may skip
  // user-frames.
  auto lazy_params = tiny_params(11);
  auto eager_params = tiny_params(11);
  eager_params.lazy_channel = false;

  auto lazy =
      protocols::make_protocol(protocols::ProtocolId::kDtdmaFr, lazy_params);
  auto eager =
      protocols::make_protocol(protocols::ProtocolId::kDtdmaFr, eager_params);
  const auto& lm = lazy->run(0.3, 1.5);
  const auto& em = eager->run(0.3, 1.5);

  ASSERT_GT(em.voice_generated, 0);
  EXPECT_EQ(lm.frames, em.frames);
  EXPECT_EQ(lm.measured_time, em.measured_time);
  EXPECT_EQ(lm.voice_generated, em.voice_generated);
  EXPECT_EQ(lm.data_generated, em.data_generated);

  EXPECT_EQ(em.users_skipped_frames, 0);
  EXPECT_EQ(em.mean_materialization_stride(), 1.0);
  // Eager accounting closes exactly: one jump per user per frame.
  EXPECT_EQ(em.users_advanced_frames,
            static_cast<std::int64_t>(em.frames) *
                eager_params.total_users());
  EXPECT_GT(lm.users_advanced_frames, 0);
  EXPECT_GT(lm.users_skipped_frames, 0);
  EXPECT_GT(lm.mean_materialization_stride(), 1.0);
}

}  // namespace
}  // namespace charisma::mac
