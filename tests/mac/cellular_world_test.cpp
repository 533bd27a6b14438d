#include "mac/cellular_world.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/math.hpp"
#include "protocols/factory.hpp"

namespace charisma::mac {
namespace {

EngineFactory factory_for(protocols::ProtocolId id) {
  return [id](const ScenarioParams& params) {
    return protocols::make_protocol(id, params);
  };
}

/// A compact two-cell world tuned so a short test run sees real handoffs:
/// small field, vehicular speed, strong shadowing, modest hysteresis.
CellularConfig small_world(int voice = 8, int data = 2,
                           std::uint64_t seed = 1) {
  CellularConfig cfg;
  cfg.num_cells = 2;
  cfg.params.num_voice_users = voice;
  cfg.params.num_data_users = data;
  cfg.params.seed = seed;
  cfg.params.channel.shadow_sigma_db = 6.0;
  cfg.mobility.field_width_m = 1000.0;
  cfg.mobility.field_height_m = 200.0;
  cfg.mobility.speed_mps = common::km_per_hour(120.0);
  cfg.handoff_hysteresis_db = 2.0;
  return cfg;
}

TEST(CellularWorld, ExecutesHandoffsAtVehicularSpeed) {
  CellularWorld world(small_world(),
                      factory_for(protocols::ProtocolId::kDtdmaFr));
  world.run(1.0, 5.0);
  EXPECT_GT(world.handoffs(), 0);
  const auto aggregate = world.aggregate_metrics();
  // Every handoff leaves one cell and enters another.
  EXPECT_EQ(aggregate.handoffs_out, world.handoffs());
  EXPECT_EQ(aggregate.handoffs_in, aggregate.handoffs_out);
  EXPECT_GT(aggregate.handoff_rate_hz(), 0.0);
}

TEST(CellularWorld, EveryUserPresentInExactlyOneCell) {
  auto cfg = small_world();
  CellularWorld world(cfg, factory_for(protocols::ProtocolId::kCharisma));
  world.run(0.5, 2.0);
  for (int u = 0; u < cfg.params.total_users(); ++u) {
    int present_count = 0;
    for (int c = 0; c < world.num_cells(); ++c) {
      if (world.cell(c).user(static_cast<common::UserId>(u)).present()) {
        ++present_count;
        EXPECT_EQ(world.attached_cell(static_cast<common::UserId>(u)), c);
      }
    }
    EXPECT_EQ(present_count, 1);
  }
}

TEST(CellularWorld, VoicePacketsConservedAcrossCells) {
  auto cfg = small_world(10, 0);
  CellularWorld world(cfg, factory_for(protocols::ProtocolId::kDtdmaFr));
  world.run(1.0, 5.0);
  const auto m = world.aggregate_metrics();
  ASSERT_GT(m.voice_generated, 0);
  const auto accounted = m.voice_delivered + m.voice_error_lost +
                         m.voice_dropped_deadline + m.voice_dropped_handoff;
  // At most one in-flight packet per voice user at each window edge.
  EXPECT_LE(accounted, m.voice_generated + cfg.params.num_voice_users);
  EXPECT_GE(accounted, m.voice_generated - cfg.params.num_voice_users);
}

TEST(CellularWorld, PerCellLoadSumsToPopulation) {
  auto cfg = small_world();
  CellularWorld world(cfg, factory_for(protocols::ProtocolId::kDtdmaFr));
  world.run(0.5, 2.0);
  // Fixed-frame protocol: every cell processes the same number of frames,
  // and each frame every user is attached somewhere, so the mean attached
  // loads sum to the population.
  double total_load = 0.0;
  for (int c = 0; c < world.num_cells(); ++c) {
    total_load += world.cell_metrics(c).mean_attached_users();
  }
  EXPECT_NEAR(total_load, static_cast<double>(cfg.params.total_users()),
              0.05 * cfg.params.total_users());
}

TEST(CellularWorld, InfiniteHysteresisMeansNoHandoffs) {
  auto cfg = small_world();
  cfg.handoff_hysteresis_db = 200.0;
  CellularWorld world(cfg, factory_for(protocols::ProtocolId::kDtdmaFr));
  world.run(0.5, 3.0);
  EXPECT_EQ(world.handoffs(), 0);
  const auto m = world.aggregate_metrics();
  EXPECT_EQ(m.voice_dropped_handoff, 0);
}

TEST(CellularWorld, Deterministic) {
  auto cfg = small_world();
  CellularWorld a(cfg, factory_for(protocols::ProtocolId::kCharisma));
  CellularWorld b(cfg, factory_for(protocols::ProtocolId::kCharisma));
  a.run(0.5, 2.0);
  b.run(0.5, 2.0);
  const auto ma = a.aggregate_metrics();
  const auto mb = b.aggregate_metrics();
  EXPECT_EQ(a.handoffs(), b.handoffs());
  EXPECT_EQ(ma.voice_generated, mb.voice_generated);
  EXPECT_EQ(ma.voice_delivered, mb.voice_delivered);
  EXPECT_EQ(ma.data_delivered, mb.data_delivered);
}

TEST(CellularWorld, SingleCellNeverHandsOff) {
  auto cfg = small_world();
  cfg.num_cells = 1;
  CellularWorld world(cfg, factory_for(protocols::ProtocolId::kDtdmaFr));
  world.run(0.5, 2.0);
  EXPECT_EQ(world.handoffs(), 0);
  EXPECT_GT(world.aggregate_metrics().voice_generated, 0);
}

TEST(CellularWorld, PathLossFallsWithDistance) {
  CellularWorld world(small_world(),
                      factory_for(protocols::ProtocolId::kDtdmaFr));
  EXPECT_GT(world.mean_snr_at_distance_db(100.0),
            world.mean_snr_at_distance_db(400.0));
  // Clamped below min_distance: standing on the site is finite.
  EXPECT_EQ(world.mean_snr_at_distance_db(0.0),
            world.mean_snr_at_distance_db(5.0));
}

TEST(CellularWorld, CoChannelInrIsThePathLossCurve) {
  // The interference plane's linear form G · d^-3.5 and the mean plane's
  // dB form C - K/2 · ln d² are one model: a unit load's INR is
  // from_db(C - K/2 · ln d²) to 1e-13 relative, from 1 m (inside the 10 m
  // clamp) to 20 km. The two forms differ by at most about 1e-14.
  CellularWorld world(small_world(),
                      factory_for(protocols::ProtocolId::kDtdmaFr));
  for (int k = 0; k <= 1000; ++k) {
    const double d = std::pow(20e3, k / 1000.0);
    const double reference =
        common::from_db(world.mean_snr_at_distance_db(d));
    EXPECT_NEAR(co_channel_inr(1.0, world.path_gain(), d * d,
                               CellularWorld::kMinDistanceSqM2),
                reference, 1e-13 * reference)
        << "d = " << d << " m";
  }
}

/// A 7-cell hexagonal world with the interference plane on (activity and
/// reuse configurable).
CellularConfig hex_world(double activity, int reuse,
                         std::uint64_t seed = 9) {
  CellularConfig cfg;
  cfg.num_cells = 7;
  cfg.params.num_voice_users = 10;
  cfg.params.num_data_users = 2;
  cfg.params.seed = seed;
  cfg.params.channel.shadow_sigma_db = 6.0;
  cfg.layout.kind = SiteLayoutConfig::Kind::kHex;
  cfg.layout.site_spacing_m = 600.0;
  cfg.layout.reuse_factor = reuse;
  cfg.interference_activity = activity;
  const auto [width, height] = SiteLayout::hex_field_extent(7, 600.0);
  cfg.mobility.field_width_m = width;
  cfg.mobility.field_height_m = height;
  cfg.mobility.speed_mps = common::km_per_hour(100.0);
  cfg.handoff_hysteresis_db = 2.0;
  return cfg;
}

TEST(CellularWorldInterference, SinrNeverExceedsSnr) {
  // The SINR penalty is non-negative on every (user, cell) link — the
  // interference plane can only degrade a link, never improve it — and a
  // loaded reuse-1 cluster degrades at least one link strictly.
  CellularWorld world(hex_world(/*activity=*/0.45, /*reuse=*/1),
                      factory_for(protocols::ProtocolId::kDtdmaFr));
  ASSERT_TRUE(world.interference_enabled());
  world.run(0.2, 1.0);
  const int users = world.cell(0).params().total_users();
  double max_penalty = 0.0;
  for (int c = 0; c < world.num_cells(); ++c) {
    for (int u = 0; u < users; ++u) {
      const double penalty =
          world.interference_db(static_cast<common::UserId>(u), c);
      EXPECT_GE(penalty, 0.0) << "user " << u << " cell " << c;
      max_penalty = std::max(max_penalty, penalty);
    }
  }
  EXPECT_GT(max_penalty, 0.0);
  const auto m = world.aggregate_metrics();
  EXPECT_GT(m.interference_db.count(), 0);
  EXPECT_GT(m.mean_interference_db(), 0.0);
}

TEST(CellularWorldInterference, OwnChannelPerCellMatchesDisabledBitForBit) {
  // reuse -> infinity limit: with one channel per cell there is no
  // co-channel neighbour, every penalty is exactly 0.0, and the world is
  // bit-identical to one with the interference plane disabled — metrics,
  // handoffs and attachments alike (only the interference accumulator's
  // sample count may differ, by construction).
  auto with_plane = hex_world(/*activity=*/0.45, /*reuse=*/7);
  auto without = with_plane;
  without.interference_activity = 0.0;
  CellularWorld a(with_plane, factory_for(protocols::ProtocolId::kCharisma));
  CellularWorld b(without, factory_for(protocols::ProtocolId::kCharisma));
  // One channel per cell in the 7-site cluster: nobody is anybody's
  // interferer.
  for (int c = 0; c < a.num_cells(); ++c) {
    ASSERT_TRUE(a.layout().co_channel_interferers(c).empty());
  }
  a.run(0.3, 1.0);
  b.run(0.3, 1.0);
  EXPECT_EQ(a.handoffs(), b.handoffs());
  const int users = a.cell(0).params().total_users();
  for (int u = 0; u < users; ++u) {
    EXPECT_EQ(a.attached_cell(static_cast<common::UserId>(u)),
              b.attached_cell(static_cast<common::UserId>(u)));
    for (int c = 0; c < a.num_cells(); ++c) {
      EXPECT_EQ(a.interference_db(static_cast<common::UserId>(u), c), 0.0);
    }
  }
  auto ma = a.aggregate_metrics();
  auto mb = b.aggregate_metrics();
  EXPECT_GT(ma.voice_generated, 0);
  EXPECT_GT(ma.interference_db.count(), 0);   // the plane did run ...
  EXPECT_EQ(ma.interference_db.mean(), 0.0);  // ... and recorded only zeros
  ma.interference_db = {};
  mb.interference_db = {};
  EXPECT_TRUE(ma == mb);
}

TEST(CellularWorldInterference, PenaltyIsMonotoneInNeighborLoad) {
  // The pure per-(user, cell) penalty under the world's own layout and
  // path-loss constants: zero at zero load, monotone non-decreasing in
  // every co-channel load, indifferent to non-co-channel load — which is
  // exactly "higher neighbour load => lower pilot at a fixed position",
  // since the pilot is snr_db minus this penalty.
  const SiteLayout layout(
      [] {
        SiteLayoutConfig cfg;
        cfg.kind = SiteLayoutConfig::Kind::kHex;
        cfg.site_spacing_m = 600.0;
        cfg.reuse_factor = 3;
        return cfg;
      }(),
      // 19 sites: with reuse 3 the centre site's co-channel partners sit
      // in ring 2 (sqrt(3) spacings away), so its interferer set is
      // non-empty — in a 7-site cluster it would be.
      19, 4000.0, 4000.0);
  // Any positive path gain works for the property; this is roughly the
  // world's default (26 dB at 200 m, exponent 3.5).
  const double gain = common::from_db(106.5);
  const double min_d_sq = 100.0;
  const int serving = 0;
  const auto interferers = layout.co_channel_interferers(serving);
  ASSERT_FALSE(interferers.empty());
  const Vec2 positions[] = {{2000.0, 2000.0}, {2300.0, 1800.0},
                            {1500.0, 2600.0}};
  for (const Vec2& p : positions) {
    std::vector<double> load(static_cast<std::size_t>(layout.num_sites()),
                             0.0);
    EXPECT_EQ(interference_penalty_db(layout, interferers, load, p, gain,
                                      min_d_sq),
              0.0);  // exactly: idle neighbourhood leaves SINR == SNR
    double previous = 0.0;
    for (double level : {0.1, 0.4, 0.8, 1.0}) {
      for (const int s : interferers) {
        load[static_cast<std::size_t>(s)] = level;
      }
      const double penalty = interference_penalty_db(
          layout, interferers, load, p, gain, min_d_sq);
      EXPECT_GT(penalty, previous);
      previous = penalty;
    }
    // Load on a non-co-channel site (or the serving site itself) changes
    // nothing.
    const double baseline = previous;
    for (int s = 0; s < layout.num_sites(); ++s) {
      if (s != serving && layout.co_channel(s, serving)) continue;
      auto bumped = load;
      bumped[static_cast<std::size_t>(s)] = 1.0;
      EXPECT_EQ(interference_penalty_db(layout, interferers, bumped, p, gain,
                                        min_d_sq),
                baseline);
    }
  }
}

TEST(CellularWorldInterference, WorldPenaltyMatchesReferenceFormula) {
  // The plane sums each site's INR in linear closed form
  // (co_channel_inr); this pins it to the reference semantics:
  // penalty(u, c) = 10·log10(1 + Σ load(s)·INR_s(u)) over c's co-channel
  // sites, with INR from the world's own dB path-loss curve, to 1e-12 dB.
  // Static users + infinite hysteresis freeze attachments, so the loads
  // the last epoch used are exactly the ones the accessors report.
  auto cfg = hex_world(/*activity=*/0.45, /*reuse=*/1);
  cfg.mobility.speed_mps = 0.0;
  cfg.handoff_hysteresis_db = 200.0;
  CellularWorld world(cfg, factory_for(protocols::ProtocolId::kDtdmaFr));
  world.run(0.1, 0.4);
  EXPECT_EQ(world.handoffs(), 0);
  const int users = world.cell(0).params().total_users();
  for (int c = 0; c < world.num_cells(); ++c) {
    for (int u = 0; u < users; ++u) {
      const Vec2 pos = world.mobility().position(u);
      double inr = 0.0;
      for (const int s : world.layout().co_channel_interferers(c)) {
        if (world.cell_load(s) <= 0.0) continue;
        const double d = std::sqrt(world.layout().distance_sq(pos, s));
        inr += world.cell_load(s) *
               common::from_db(world.mean_snr_at_distance_db(d));
      }
      EXPECT_NEAR(world.interference_db(static_cast<common::UserId>(u), c),
                  common::to_db(1.0 + inr), 1e-12)
          << "user " << u << " cell " << c;
    }
  }
}

TEST(CellularWorldInterference, WorldPlaneIsThePenaltyFunction) {
  // The penalty the live plane feeds each band member's bank row is
  // interference_penalty_db itself, bit for bit, at the member's position
  // with the world's loads and path-loss constants — so the function's
  // pinned properties (zero at idle, monotone in load) are the world's.
  // A partial band and reuse 3 give every cell its own member list and
  // interferer set. A wrap-around reuse-1 cluster takes every co-channel
  // distance as the minimum over the cluster's images, and its 13 users
  // fill every all-cells band with an odd member count, which leaves the
  // plane's packed loop a tail. Static users and infinite hysteresis
  // freeze the loads the last epoch used.
  auto partial = hex_world(/*activity=*/0.45, /*reuse=*/3);
  partial.pilot_band_radius_m = 900.0;
  auto wrapped = hex_world(/*activity=*/0.45, /*reuse=*/1);
  wrapped.layout.wrap_around = true;
  wrapped.params.num_voice_users = 11;
  for (auto cfg : {partial, wrapped}) {
    cfg.mobility.speed_mps = 0.0;
    cfg.handoff_hysteresis_db = 200.0;
    CellularWorld world(cfg, factory_for(protocols::ProtocolId::kDtdmaFr));
    ASSERT_EQ(world.layout().wraps(), cfg.layout.wrap_around);
    world.run(0.1, 0.4);
    std::vector<double> load(static_cast<std::size_t>(world.num_cells()));
    for (int c = 0; c < world.num_cells(); ++c) {
      load[static_cast<std::size_t>(c)] = world.cell_load(c);
    }
    int nonzero = 0;
    int odd_bands = 0;
    for (int c = 0; c < world.num_cells(); ++c) {
      const auto interferers = world.layout().co_channel_interferers(c);
      const auto& band = world.cell(c).band();
      odd_bands += band.size() % 2 == 1 ? 1 : 0;
      for (const BandMember& m : band) {
        const double expected = interference_penalty_db(
            world.layout(), interferers, load,
            world.mobility().position(static_cast<int>(m.id)),
            world.path_gain(), CellularWorld::kMinDistanceSqM2);
        EXPECT_EQ(world.interference_db(m.id, c), expected)
            << "wrap " << cfg.layout.wrap_around << " user " << m.id
            << " cell " << c;
        if (expected > 0.0) ++nonzero;
      }
    }
    EXPECT_GT(nonzero, 0);  // the loads and interferer sets did bite
    EXPECT_GT(odd_bands, 0) << "wrap " << cfg.layout.wrap_around;
  }
}

TEST(CellularWorldInterference, ValidationAndDefaults) {
  auto cfg = hex_world(0.45, 3);
  cfg.interference_activity = 1.5;  // activity is a duty-cycle fraction
  EXPECT_THROW(
      CellularWorld(cfg, factory_for(protocols::ProtocolId::kDtdmaFr)),
      std::invalid_argument);
  // Legacy configs leave the plane off.
  CellularWorld legacy(small_world(),
                       factory_for(protocols::ProtocolId::kDtdmaFr));
  EXPECT_FALSE(legacy.interference_enabled());
  EXPECT_EQ(legacy.aggregate_metrics().interference_db.count(), 0);
}

TEST(CellularWorld, Validation) {
  auto cfg = small_world();
  cfg.num_cells = 0;
  EXPECT_THROW(
      CellularWorld(cfg, factory_for(protocols::ProtocolId::kDtdmaFr)),
      std::invalid_argument);
  EXPECT_THROW(CellularWorld(small_world(), EngineFactory{}),
               std::invalid_argument);
  CellularWorld world(small_world(),
                      factory_for(protocols::ProtocolId::kDtdmaFr));
  EXPECT_THROW(world.run(-1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(world.run(0.0, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace charisma::mac
