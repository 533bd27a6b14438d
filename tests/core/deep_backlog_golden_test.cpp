// Deep-backlog ranking golden: one overloaded CHARISMA cell whose backlog
// pool runs an order of magnitude deeper than the N_i information slots a
// frame can grant, so nearly every frame's outcome hinges on the Eq. (2)
// order of the whole pool — including the ties between requests of equal
// priority, the capacity-normalized fairness keys, and mode selection with
// a non-zero backoff margin. Integer counters via EXPECT_EQ, accumulated
// doubles via exact hexfloat equality: a ranking that orders one tie
// differently, or a mode threshold compared one ulp apart, moves them.
// Captured from commit a990477's tree, whose ranking stable-sorted the
// pool with a comparator that re-evaluated Eq. (2) on both sides.
#include <gtest/gtest.h>

#include "core/charisma.hpp"

namespace charisma::core {
namespace {

struct DeepBacklogGolden {
  FairnessMode fairness;
  double margin_db;
  std::int64_t voice_delivered;
  std::int64_t voice_dropped_deadline;
  std::int64_t voice_error_lost;
  std::int64_t data_delivered;
  std::int64_t data_tx_attempts;
  std::int64_t request_successes;
  std::int64_t request_collisions;
  std::int64_t csi_stale_allocations;
  std::size_t pool_size;
  double energy_request_j;
  double data_delay_mean_s;
  double jain_voice;
  double jain_data;
};

constexpr int kVoice = 400;
constexpr int kData = 20;

const DeepBacklogGolden kGoldens[] = {
    {FairnessMode::kNone, 0.0, 3564, 4274, 119, 1206, 1299, 195, 11, 2263,
     168, 0x1.33e7fd2cd818ep-9, 0x1.f156e549a6537p-1, 0x1.8591ca6f1bb52p-2,
     0x1.6d03e6787c554p-3},
    {FairnessMode::kNone, 1.5, 3655, 4244, 58, 1107, 1111, 194, 6, 2267, 167,
     0x1.22f50dc562839p-9, 0x1.0ce300238551ep+0, 0x1.682b33ab91e1bp-2,
     0x1.7be965d63be86p-3},
    {FairnessMode::kCapacityNormalized, 0.0, 3500, 4302, 158, 1032, 1043, 199,
     7, 2263, 147, 0x1.2cd8196c671abp-9, 0x1.1327c4f0ff429p-2,
     0x1.b67448198a92bp-2, 0x1.08a4b1417f337p-2},
    {FairnessMode::kCapacityNormalized, 1.5, 3619, 4281, 61, 1020, 1027, 200,
     5, 2263, 147, 0x1.289b5d9289b54p-9, 0x1.f4fb61c82e89ap-3,
     0x1.b62cdd5c1b302p-2, 0x1.23349d7b4b7fep-2},
};

TEST(DeepBacklogGolden, RankingOverAPoolFarDeeperThanTheFrame) {
  for (const auto& g : kGoldens) {
    SCOPED_TRACE(::testing::Message()
                 << "fairness=" << static_cast<int>(g.fairness)
                 << " margin_db=" << g.margin_db);
    mac::ScenarioParams p;
    p.num_voice_users = kVoice;
    p.num_data_users = kData;
    p.seed = 3;
    p.phy.selection_margin_db = g.margin_db;
    CharismaOptions options;
    options.fairness = g.fairness;
    CharismaProtocol proto(p, options);
    const auto& m = proto.run(1.0, 1.0);

    // The scenario is what the pin claims: every slot granted every frame
    // to a pool more than ten frames deep.
    EXPECT_EQ(m.frames, 400);
    EXPECT_EQ(m.info_slots_assigned, m.info_slots_offered);
    EXPECT_EQ(m.csi_polls, 1600);
    EXPECT_GT(proto.pool_size(),
              10u * static_cast<std::size_t>(p.geometry.num_info_slots));

    EXPECT_EQ(m.voice_generated, 7973);
    EXPECT_EQ(m.data_generated, 1067);
    EXPECT_EQ(m.voice_delivered, g.voice_delivered);
    EXPECT_EQ(m.voice_dropped_deadline, g.voice_dropped_deadline);
    EXPECT_EQ(m.voice_error_lost, g.voice_error_lost);
    EXPECT_EQ(m.data_delivered, g.data_delivered);
    EXPECT_EQ(m.data_tx_attempts, g.data_tx_attempts);
    EXPECT_EQ(m.request_successes, g.request_successes);
    EXPECT_EQ(m.request_collisions, g.request_collisions);
    EXPECT_EQ(m.csi_stale_allocations, g.csi_stale_allocations);
    EXPECT_EQ(proto.pool_size(), g.pool_size);
    EXPECT_EQ(m.energy_request_j, g.energy_request_j);
    EXPECT_EQ(m.data_delay_s.mean(), g.data_delay_mean_s);
    EXPECT_EQ(m.jain_fairness_index(0, kVoice - 1), g.jain_voice);
    EXPECT_EQ(m.jain_fairness_index(kVoice, kVoice + kData - 1), g.jain_data);
  }
}

}  // namespace
}  // namespace charisma::core
