// Sparse presence (PR 8 tentpole): the world holds per-(user, cell) state
// only inside each user's pilot band, yet with the band covering every
// site it must reproduce the pre-refactor dense users×cells world BIT FOR
// BIT — interference, barring, and a mid-run cell outage included. The
// golden pins below were captured from the dense implementation
// immediately before the refactor (hexfloat, so the doubles are exact);
// any drift in RNG stream consumption, iteration order, or floating-point
// expression shape fails these tests.
//
// The partial-band tests then exercise what the dense world never had:
// band admit/release churn from mobility, row recycling through the
// ChannelBank free list, re-admission under fresh per-visit seeds, and
// fault injection (a cell outage forcing evictions while bands move) —
// all under per-epoch row-count/leak invariants and the serial-vs-parallel
// bit-identity guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "mac/cellular_world.hpp"
#include "protocols/factory.hpp"

namespace charisma::mac {
namespace {

EngineFactory factory_for(protocols::ProtocolId id) {
  return [id](const ScenarioParams& params) {
    return protocols::make_protocol(id, params);
  };
}

std::string protocol_test_name(protocols::ProtocolId id) {
  std::string name = protocols::protocol_name(id);
  for (char& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return name;
}

/// The pinned scenario: a 7-cell hexagonal reuse-3 cluster with the SINR
/// plane, closed-loop barring, vehicular users, and a mid-run outage of
/// cell 2 — every world-level subsystem at once. `band_radius_m` 0 is the
/// all-cells band (dense semantics); 700 m keeps a band of at most the
/// 7-cell neighbourhood (site spacing 600 m) so membership churns as
/// users move.
CellularConfig pin_config(unsigned threads, double band_radius_m) {
  CellularConfig cfg;
  cfg.num_cells = 7;
  cfg.num_threads = threads;
  cfg.params.num_voice_users = 18;
  cfg.params.num_data_users = 5;
  cfg.params.seed = 29;
  cfg.params.channel.shadow_sigma_db = 6.0;
  cfg.params.barring = true;
  cfg.layout.kind = SiteLayoutConfig::Kind::kHex;
  cfg.layout.site_spacing_m = 600.0;
  cfg.layout.reuse_factor = 3;
  cfg.interference_activity = 0.45;
  cfg.pilot_band_radius_m = band_radius_m;
  const auto [width, height] = SiteLayout::hex_field_extent(7, 600.0);
  cfg.mobility.field_width_m = width;
  cfg.mobility.field_height_m = height;
  cfg.mobility.speed_mps = common::km_per_hour(100.0);
  cfg.handoff_hysteresis_db = 2.0;
  cfg.outages.push_back({2, 0.5, 0.9});
  return cfg;
}

/// One exact number for the whole by-id fairness ledger: Σ (id + 1) ·
/// packets, so a count credited to the wrong user moves it.
std::int64_t ledger_checksum(const ProtocolMetrics& m) {
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < m.per_user_delivered.size(); ++i) {
    sum += static_cast<std::int64_t>(i + 1) * m.per_user_delivered[i];
  }
  return sum;
}

/// Every delivered packet is on the ledger, under exactly one user.
void expect_ledger_conserved(const ProtocolMetrics& m) {
  std::int64_t total = 0;
  for (const std::int64_t packets : m.per_user_delivered) total += packets;
  EXPECT_EQ(total, m.voice_delivered + m.data_delivered);
}

// ---------------------------------------------------------------- pins

struct GoldenPins {
  protocols::ProtocolId protocol;
  std::int64_t voice_generated, voice_delivered;
  std::int64_t data_generated, data_delivered;
  std::int64_t handoffs_in, handoffs_out, outage_evictions;
  std::int64_t voice_dropped_outage, barring_checks;
  std::int64_t request_collisions, attached_user_frames;
  std::int64_t world_handoffs;
  double interference_db_mean;
  double data_delay_mean_s;
  double energy_info_j;
  double barring_factor_voice_mean;
  /// The world's by-id ledger (aggregate per_user_delivered): its length
  /// and ledger_checksum.
  std::size_t ledger_size;
  std::int64_t ledger_checksum;
};

// Captured from the dense (users×cells) world at commit c28b9eb, i.e. the
// implementation this PR replaced, at pin_config / run(0.3, 1.2). The two
// ledger pins were captured later, at 3c895f3, the last commit whose cells
// each kept a dense by-id ledger. The interference_db_mean pins were
// regenerated when the co-channel INR moved from from_db(C − K/2 · ln d²)
// to its linear closed form (co_channel_inr): each moved by 12 ULP, and
// every other pin held.
const GoldenPins kDenseGolden[] = {
    {protocols::ProtocolId::kCharisma,
     /*voice_generated=*/194, /*voice_delivered=*/128,
     /*data_generated=*/136, /*data_delivered=*/136,
     /*handoffs_in=*/17, /*handoffs_out=*/13, /*outage_evictions=*/4,
     /*voice_dropped_outage=*/0, /*barring_checks=*/3,
     /*request_collisions=*/0, /*attached_user_frames=*/11063,
     /*world_handoffs=*/13,
     /*interference_db_mean=*/0x1.fc4d466a243d4p+1,
     /*data_delay_mean_s=*/0x1.06a039d36d007p-8,
     /*energy_info_j=*/0x1.54bead054beb2p-6,
     /*barring_factor_voice_mean=*/0x1.bc35076d9a002p-1,
     /*ledger_size=*/23, /*ledger_checksum=*/3916},
    {protocols::ProtocolId::kRmav,
     /*voice_generated=*/193, /*voice_delivered=*/99,
     /*data_generated=*/136, /*data_delivered=*/134,
     /*handoffs_in=*/19, /*handoffs_out=*/15, /*outage_evictions=*/4,
     /*voice_dropped_outage=*/0, /*barring_checks=*/0,
     /*request_collisions=*/14, /*attached_user_frames=*/14287,
     /*world_handoffs=*/15,
     /*interference_db_mean=*/0x1.fbe18f9835c2p+1,
     /*data_delay_mean_s=*/0x1.4cf8a5e7ea607p-7,
     /*energy_info_j=*/0x1.116f3a43170fbp-1,
     /*barring_factor_voice_mean=*/0x1p+0,
     /*ledger_size=*/23, /*ledger_checksum=*/3633},
    {protocols::ProtocolId::kPrma,
     /*voice_generated=*/194, /*voice_delivered=*/93,
     /*data_generated=*/136, /*data_delivered=*/106,
     /*handoffs_in=*/17, /*handoffs_out=*/13, /*outage_evictions=*/4,
     /*voice_dropped_outage=*/0, /*barring_checks=*/0,
     /*request_collisions=*/0, /*attached_user_frames=*/11063,
     /*world_handoffs=*/13,
     /*interference_db_mean=*/0x1.fc4d466a243d4p+1,
     /*data_delay_mean_s=*/0x1.72c3e9968234ap-5,
     /*energy_info_j=*/0x1.3611a7b96114bp-3,
     /*barring_factor_voice_mean=*/0x1p+0,
     /*ledger_size=*/23, /*ledger_checksum=*/2930},
};

class SparsePresenceGolden : public ::testing::TestWithParam<GoldenPins> {};

TEST_P(SparsePresenceGolden, AllCoveringBandReproducesDenseBitForBit) {
  const GoldenPins& pins = GetParam();
  // threads 0 = hardware concurrency; shards 0 = match the thread count.
  // The hexfloat pins below predate the sharded coordinator, so every
  // (threads, shards) pair — serial, sharded-on-one-thread, and the
  // hardware defaults — must reproduce the historical serial plane's bits.
  struct Grid { unsigned threads, shards; };
  for (const Grid g : {Grid{1u, 1u}, Grid{1u, 2u}, Grid{2u, 1u},
                       Grid{2u, 2u}, Grid{4u, 3u}, Grid{0u, 0u}}) {
    SCOPED_TRACE("threads " + std::to_string(g.threads) + " shards " +
                 std::to_string(g.shards));
    auto cfg = pin_config(g.threads, /*band_radius_m=*/0.0);
    cfg.num_shards = g.shards;
    CellularWorld world(cfg, factory_for(pins.protocol));
    world.run(0.3, 1.2);
    const auto m = world.aggregate_metrics();
    EXPECT_EQ(m.voice_generated, pins.voice_generated);
    EXPECT_EQ(m.voice_delivered, pins.voice_delivered);
    EXPECT_EQ(m.data_generated, pins.data_generated);
    EXPECT_EQ(m.data_delivered, pins.data_delivered);
    EXPECT_EQ(m.handoffs_in, pins.handoffs_in);
    EXPECT_EQ(m.handoffs_out, pins.handoffs_out);
    EXPECT_EQ(m.outage_evictions, pins.outage_evictions);
    EXPECT_EQ(m.voice_dropped_outage, pins.voice_dropped_outage);
    EXPECT_EQ(m.barring_checks, pins.barring_checks);
    EXPECT_EQ(m.request_collisions, pins.request_collisions);
    EXPECT_EQ(m.attached_user_frames, pins.attached_user_frames);
    EXPECT_EQ(world.handoffs(), pins.world_handoffs);
    // Exact double equality — the hexfloat pins are the dense world's bits.
    EXPECT_EQ(m.interference_db.mean(), pins.interference_db_mean);
    EXPECT_EQ(m.data_delay_s.mean(), pins.data_delay_mean_s);
    EXPECT_EQ(m.energy_info_j, pins.energy_info_j);
    EXPECT_EQ(m.barring_factor_voice.mean(), pins.barring_factor_voice_mean);
    EXPECT_EQ(m.per_user_delivered.size(), pins.ledger_size);
    EXPECT_EQ(ledger_checksum(m), pins.ledger_checksum);
    expect_ledger_conserved(m);
  }
}

INSTANTIATE_TEST_SUITE_P(Protocols, SparsePresenceGolden,
                         ::testing::ValuesIn(kDenseGolden),
                         [](const auto& info) {
                           return protocol_test_name(info.param.protocol);
                         });

// ----------------------------------------------------- band invariants

/// The no-leak contract, checked from both ends: every cell's engine band
/// matches its bank's active row count (a released row never lingers, an
/// admitted one is never double-booked), the per-user band lists sum to
/// the same total, every user is band-resident where it is attached, and
/// the O(1) attached counters sum to the population.
void expect_band_invariants(CellularWorld& world) {
  const int users = world.cell(0).params().total_users();
  std::size_t rows_from_cells = 0;
  int attached_total = 0;
  for (int c = 0; c < world.num_cells(); ++c) {
    SCOPED_TRACE("cell " + std::to_string(c));
    auto& cell = world.cell(c);
    EXPECT_EQ(cell.band_size(), cell.channel_bank().active_count());
    rows_from_cells += cell.band_size();
    attached_total += world.attached_count(c);
  }
  EXPECT_EQ(attached_total, users);
  std::size_t rows_from_users = 0;
  for (int u = 0; u < users; ++u) {
    const auto uid = static_cast<common::UserId>(u);
    const auto cells = world.band_cells(uid);
    rows_from_users += cells.size();
    const int attached = world.attached_cell(uid);
    EXPECT_TRUE(std::find(cells.begin(), cells.end(), attached) !=
                cells.end())
        << "user " << u << " attached to cell " << attached
        << " outside its band";
    EXPECT_TRUE(world.cell(attached).band_resident(uid));
  }
  EXPECT_EQ(rows_from_cells, rows_from_users);
}

TEST(SparsePresencePartialBand, EpochInvariantsAndHandoffConservation) {
  // A band smaller than the layout: membership churns with mobility, rows
  // are released and recycled. Step the world epoch-window by epoch-window
  // across the outage and check the row/leak invariants and the handoff
  // conservation law after every window, under both channel schedules.
  for (const bool lazy : {false, true}) {
    SCOPED_TRACE(lazy ? "lazy channels" : "eager channels");
    auto cfg = pin_config(/*threads=*/1, /*band_radius_m=*/700.0);
    cfg.params.lazy_channel = lazy;
    CellularWorld world(cfg, factory_for(protocols::ProtocolId::kCharisma));
    expect_band_invariants(world);
    std::int64_t handoffs_in = 0, handoffs_out = 0, evictions = 0;
    bool saw_partial_band = false;
    for (int window = 0; window < 15; ++window) {
      SCOPED_TRACE("window " + std::to_string(window));
      world.run(0.0, 0.1);  // covers [0, 1.5): outage of cell 2 at [0.5, 0.9)
      expect_band_invariants(world);
      const auto m = world.aggregate_metrics();
      // Conservation: every arrival is a departure from somewhere — a
      // voluntary handoff or an outage eviction.
      EXPECT_EQ(m.handoffs_in, m.handoffs_out + m.outage_evictions);
      // Each window's ledger holds exactly that window's deliveries, those
      // of shells released during it included.
      expect_ledger_conserved(m);
      handoffs_in += m.handoffs_in;
      handoffs_out += m.handoffs_out;
      evictions += m.outage_evictions;
      std::size_t rows = 0;
      for (int c = 0; c < world.num_cells(); ++c) {
        rows += world.cell(c).band_size();
      }
      const auto dense_rows =
          static_cast<std::size_t>(world.cell(0).params().total_users()) *
          static_cast<std::size_t>(world.num_cells());
      EXPECT_LT(rows, dense_rows);  // actually sparse, not silently dense
      saw_partial_band = saw_partial_band || rows < dense_rows;
    }
    EXPECT_TRUE(saw_partial_band);
    EXPECT_EQ(handoffs_in, handoffs_out + evictions);
    EXPECT_GT(handoffs_in, 0) << "no handoffs at all — scenario too static";
    // The fault fired: the dark cell evicted somebody while bands churned.
    EXPECT_GT(evictions, 0);
  }
}

TEST(SparsePresencePartialBand, MobilityReentersBandsUnderFreshSeeds) {
  // Row recycling end to end: track (user, cell) residency across epoch
  // windows and require that some user leaves a cell's band and later
  // re-enters it (the release → free-list → re-admit-under-visit-seed
  // path). Deterministic: seed-pinned scenario, vehicular speed, a band
  // barely wider than one site spacing.
  auto cfg = pin_config(/*threads=*/1, /*band_radius_m=*/650.0);
  // Deliberately unphysical speed: each user crosses several cells and
  // turns at many waypoints within the window, so leave-then-return paths
  // occur by construction. The lifecycle code cannot tell speeds apart.
  cfg.mobility.speed_mps = common::km_per_hour(2000.0);
  CellularWorld world(cfg, factory_for(protocols::ProtocolId::kDtdmaFr));
  const int users = world.cell(0).params().total_users();
  std::map<std::pair<int, int>, int> state;  // (user, cell) -> 1=in, 2=left
  int reentries = 0;
  for (int window = 0; window < 40; ++window) {
    world.run(0.0, 0.1);
    expect_band_invariants(world);
    std::set<std::pair<int, int>> now;
    for (int u = 0; u < users; ++u) {
      for (int c : world.band_cells(static_cast<common::UserId>(u))) {
        now.insert({u, c});
      }
    }
    for (auto& [key, phase] : state) {
      const bool resident = now.count(key) != 0;
      if (phase == 1 && !resident) phase = 2;            // left the band
      else if (phase == 2 && resident) { phase = 1; ++reentries; }
    }
    for (const auto& key : now) state.emplace(key, 1);
  }
  EXPECT_GT(reentries, 0)
      << "no (user, cell) band re-entry in 2 s of vehicular mobility — "
         "the re-admission path went unexercised";
}

TEST(SparsePresencePartialBand, SerialAndParallelBitIdentical) {
  // The share-nothing guarantee with band churn live: admits/releases are
  // coordinator-ordered, so thread count must not change a single bit.
  // The by-id ledger is pinned too (captured at 3c895f3, whose cells kept
  // dense ledgers): with a partial band it is 22 long, the largest slot
  // count or delivering id + 1 in any cell, not the population of 23.
  struct LedgerPin {
    protocols::ProtocolId id;
    std::int64_t checksum;
  };
  for (const LedgerPin pin : {LedgerPin{protocols::ProtocolId::kCharisma, 3967},
                              LedgerPin{protocols::ProtocolId::kRmav, 3691},
                              LedgerPin{protocols::ProtocolId::kPrma, 2965}}) {
    const auto id = pin.id;
    SCOPED_TRACE(std::string("protocol ") + protocols::protocol_name(id));
    CellularWorld serial(pin_config(/*threads=*/1, /*band_radius_m=*/700.0),
                         factory_for(id));
    serial.run(0.3, 1.2);
    const auto reference = serial.aggregate_metrics();
    ASSERT_GT(reference.voice_generated, 0);
    EXPECT_EQ(reference.per_user_delivered.size(), 22u);
    EXPECT_EQ(ledger_checksum(reference), pin.checksum);
    expect_ledger_conserved(reference);
    for (unsigned threads : {2u, 4u, 0u}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      auto cfg = pin_config(threads, /*band_radius_m=*/700.0);
      // Decouple the shard count from the thread count too: band churn
      // (the admit/release order feeding the row free lists) must not see
      // the shard boundaries either.
      cfg.num_shards = (threads == 2u) ? 5u : 0u;
      CellularWorld parallel(cfg, factory_for(id));
      parallel.run(0.3, 1.2);
      EXPECT_TRUE(parallel.aggregate_metrics() == reference);
      EXPECT_EQ(parallel.handoffs(), serial.handoffs());
      for (int u = 0; u < serial.cell(0).params().total_users(); ++u) {
        EXPECT_EQ(parallel.attached_cell(static_cast<common::UserId>(u)),
                  serial.attached_cell(static_cast<common::UserId>(u)));
      }
    }
  }
}

TEST(SparsePresencePartialBand, LedgerKeepsTheDeliveriesOfReleasedUsers) {
  // At 2,000 km/h users leave the bands of cells they delivered in during
  // a window, so about a third of the world's deliveries end up in the
  // counts of released users (band_release folds them into the cell's
  // per-user history). The world's ledger must hold every delivery under
  // the right id, at the length the dense per-cell vectors had, and a
  // second window must start from zero. The checksums were captured at
  // 3c895f3.
  struct LedgerPin {
    protocols::ProtocolId id;
    std::int64_t first_window, second_window;
  };
  const auto expect_ledger = [](const ProtocolMetrics& m,
                                 std::int64_t checksum) {
    EXPECT_EQ(m.per_user_delivered.size(), 23u);
    EXPECT_EQ(ledger_checksum(m), checksum);
    expect_ledger_conserved(m);
  };
  for (const LedgerPin pin :
       {LedgerPin{protocols::ProtocolId::kDtdmaFr, 20246, 7099},
        LedgerPin{protocols::ProtocolId::kCharisma, 20701, 7539}}) {
    SCOPED_TRACE(std::string("protocol ") + protocols::protocol_name(pin.id));
    auto cfg = pin_config(/*threads=*/1, /*band_radius_m=*/650.0);
    cfg.mobility.speed_mps = common::km_per_hour(2000.0);
    CellularWorld world(cfg, factory_for(pin.id));
    world.run(0.2, 2.0);
    expect_ledger(world.aggregate_metrics(), pin.first_window);
    world.run(0.0, 1.0);
    expect_ledger(world.aggregate_metrics(), pin.second_window);
  }
}

TEST(SparsePresencePartialBand, RosterIsThePresentBandMembersEveryEpoch) {
  // Every per-frame scan walks an engine's roster of attached users, not
  // its band. Across band churn, handoffs and the outage's forced
  // evictions, each engine's roster must list exactly its present band
  // members — ascending id, with their storage slots — after every epoch.
  for (const auto id :
       {protocols::ProtocolId::kCharisma, protocols::ProtocolId::kDrma}) {
    SCOPED_TRACE(std::string("protocol ") + protocols::protocol_name(id));
    const auto cfg = pin_config(/*threads=*/1, /*band_radius_m=*/700.0);
    CellularWorld world(cfg, factory_for(id));
    for (int epoch = 0; epoch < 60; ++epoch) {  // [0, 1.2): outage [0.5, 0.9)
      SCOPED_TRACE("epoch " + std::to_string(epoch));
      world.advance(CellularWorld::kDecisionInterval);
      for (int c = 0; c < world.num_cells(); ++c) {
        SCOPED_TRACE("cell " + std::to_string(c));
        auto& engine = world.cell(c);
        std::vector<BandMember> present;
        for (const BandMember& m : engine.band()) {
          if (engine.user(m.id).present()) present.push_back(m);
        }
        const auto& roster = engine.roster();
        ASSERT_EQ(roster.size(), present.size());
        for (std::size_t i = 0; i < roster.size(); ++i) {
          ASSERT_EQ(roster[i].id, present[i].id);
          ASSERT_EQ(roster[i].slot, present[i].slot);
        }
      }
    }
    // Not vacuous: users handed off, and the dark cell evicted some.
    const auto m = world.aggregate_metrics();
    EXPECT_GT(m.handoffs_out, 0);
    EXPECT_GT(m.outage_evictions, 0);
  }
}

TEST(SparsePresenceFaultInjection, OutageEvictsAcrossBandsWithoutLeaks) {
  // Fault injection against the band lifecycle: two staggered outages
  // force evictions while bands churn — users get thrown onto neighbours
  // that may be at the edge of (or beyond) their geometric band, which
  // the attached-cell pin must keep resident; recovery then releases the
  // pinned rows. Invariants every epoch window; conservation at the end.
  auto cfg = pin_config(/*threads=*/1, /*band_radius_m=*/700.0);
  cfg.outages.clear();
  cfg.outages.push_back({2, 0.4, 0.8});
  cfg.outages.push_back({0, 0.9, 1.3});
  CellularWorld world(cfg, factory_for(protocols::ProtocolId::kCharisma));
  std::int64_t evictions = 0, handoffs_in = 0, handoffs_out = 0;
  for (int window = 0; window < 16; ++window) {
    SCOPED_TRACE("window " + std::to_string(window));
    world.run(0.0, 0.1);
    expect_band_invariants(world);
    const auto m = world.aggregate_metrics();
    EXPECT_EQ(m.handoffs_in, m.handoffs_out + m.outage_evictions);
    expect_ledger_conserved(m);
    evictions += m.outage_evictions;
    handoffs_in += m.handoffs_in;
    handoffs_out += m.handoffs_out;
    // Nobody sits attached to a dark cell after the epoch — unless every
    // cell in their band is dark too (a coverage hole has no lit target;
    // the eviction fires once a lit neighbour enters the band).
    for (int u = 0; u < world.cell(0).params().total_users(); ++u) {
      const auto uid = static_cast<common::UserId>(u);
      if (!world.cell_dark(world.attached_cell(uid))) continue;
      for (int c : world.band_cells(uid)) {
        EXPECT_TRUE(world.cell_dark(c))
            << "user " << u << " stayed on a dark cell with lit cell " << c
            << " in band";
      }
    }
  }
  EXPECT_GT(evictions, 0) << "no eviction — the injected faults never bit";
  EXPECT_EQ(handoffs_in, handoffs_out + evictions);
}

}  // namespace
}  // namespace charisma::mac
