#include "experiment/runner.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "../support/scenarios.hpp"
#include "common/units.hpp"

namespace charisma::experiment {
namespace {

RunSpec small_spec(int voice, int data) {
  RunSpec spec;
  spec.params = ::charisma::testing::small_mixed(voice, data);
  spec.warmup_s = 1.0;
  spec.measure_s = 3.0;
  spec.replications = 2;
  return spec;
}

TEST(Runner, ReplicationSeedsDiffer) {
  const auto s0 = replication_seed(1, 0, 0);
  const auto s1 = replication_seed(1, 0, 1);
  const auto s2 = replication_seed(1, 1, 0);
  EXPECT_NE(s0, s1);
  EXPECT_NE(s0, s2);
  EXPECT_NE(s1, s2);
}

TEST(Runner, SeedsAreProtocolIndependent) {
  // Common random numbers: the seed depends only on (base, point, rep).
  EXPECT_EQ(replication_seed(42, 3, 1), replication_seed(42, 3, 1));
}

TEST(Runner, SeedsChainWithoutPackingCollisions) {
  // The old scheme derived from `point_key * 1024 + rep`, so
  // (point 0, rep 1024) and (point 1, rep 0) shared a world.
  EXPECT_NE(replication_seed(1, 0, 1024), replication_seed(1, 1, 0));
}

TEST(Runner, SeedSequencesPinned) {
  // The chained derive_seed(derive_seed(base, point), rep) sequences —
  // regenerate these constants (and say so in the commit) if you *mean* to
  // change every replication's world.
  EXPECT_EQ(replication_seed(1, 0, 0), 6791897765849424158ULL);
  EXPECT_EQ(replication_seed(1, 0, 1), 17405687883870564846ULL);
  EXPECT_EQ(replication_seed(1, 1, 0), 8614008028692990056ULL);
  EXPECT_EQ(replication_seed(42, 3, 1), 8857862703798441688ULL);
  EXPECT_EQ(replication_seed(7, 5, 2), 2531847342662758353ULL);
}

TEST(Runner, AggregatesAcrossReplications) {
  const auto result =
      run_replications(protocols::ProtocolId::kCharisma, small_spec(10, 2));
  ASSERT_EQ(result.runs.size(), 2u);
  EXPECT_EQ(result.protocol, "CHARISMA");
  for (const auto& run : result.runs) {
    EXPECT_EQ(run.mean_attached_users(), 12.0);  // the 10 + 2 simulated
  }
  EXPECT_NE(result.runs[0], result.runs[1]);  // two seeds, two worlds
  EXPECT_GT(result.voice_loss_pooled().trials(), 0);
}

TEST(Runner, WorldReplicationIsTheWorldAtItsSeed) {
  // Replication r of a world is the CellularWorld reseeded by
  // replication_seed(seed, point 0, r), and its aggregate metrics; verify
  // re-runs replication 0 serially and finds it bit-identical.
  auto spec = small_spec(6, 2);
  spec.params.seed = 5;
  spec.warmup_s = 0.2;
  spec.measure_s = 0.6;
  mac::CellularConfig world;
  world.num_cells = 2;
  world.num_threads = 2;
  world.params = spec.params;
  world.mobility.field_width_m = 1000.0;
  world.mobility.field_height_m = 200.0;
  world.mobility.speed_mps = common::km_per_hour(120.0);
  const auto result = run_replications(protocols::ProtocolId::kDtdmaVr, spec,
                                       /*point_key=*/0, world,
                                       /*verify=*/true);
  ASSERT_EQ(result.runs.size(), 2u);
  for (int rep = 0; rep < 2; ++rep) {
    SCOPED_TRACE("replication " + std::to_string(rep));
    auto by_hand = world;
    by_hand.params.seed = replication_seed(5, 0, rep);
    mac::CellularWorld reference(by_hand, [](const mac::ScenarioParams& p) {
      return protocols::make_protocol(protocols::ProtocolId::kDtdmaVr, p);
    });
    reference.run(spec.warmup_s, spec.measure_s);
    EXPECT_EQ(result.runs[static_cast<std::size_t>(rep)],
              reference.aggregate_metrics());
  }
}

TEST(Runner, RejectsFewerThanOneReplication) {
  auto spec = small_spec(4, 0);
  for (int replications : {0, -1}) {
    spec.replications = replications;
    EXPECT_THROW(run_replications(protocols::ProtocolId::kCharisma, spec),
                 std::invalid_argument);
  }
}

TEST(Runner, CommonRandomNumbersAcrossProtocols) {
  // Same point key => both protocols simulate the same user worlds, so the
  // generated-traffic counts match closely.
  auto spec = small_spec(10, 0);
  spec.replications = 1;
  const auto a =
      run_replications(protocols::ProtocolId::kDtdmaFr, spec, /*point=*/7);
  const auto b =
      run_replications(protocols::ProtocolId::kRama, spec, /*point=*/7);
  const auto generated = [](const ReplicatedResult& r) {
    return static_cast<double>(r.voice_loss_pooled().trials());
  };
  EXPECT_GT(generated(a), 100);
  EXPECT_NEAR(generated(a), generated(b), 0.02 * generated(a));
}

TEST(Runner, ResultDerivesMetricsFromRuns) {
  ReplicatedResult result;
  mac::ProtocolMetrics m;
  m.frames = 100;
  m.voice_generated = 1000;
  m.voice_delivered = 990;
  m.voice_dropped_deadline = 6;
  m.voice_error_lost = 4;
  m.data_delivered = 250;
  result.runs.push_back(m);
  EXPECT_DOUBLE_EQ(result.mean(&mac::ProtocolMetrics::voice_loss_rate), 0.01);
  EXPECT_DOUBLE_EQ(
      result.mean(&mac::ProtocolMetrics::data_throughput_per_frame), 2.5);
  EXPECT_EQ(result.voice_loss_pooled().successes(), 10);
  EXPECT_EQ(result.voice_loss_pooled().trials(), 1000);
}

TEST(Runner, MeanIsTheAccumulatorOverRunsInOrder) {
  // The printed means are the same doubles the per-metric accumulators
  // gave: one Welford accumulator fed the runs in replication order.
  ReplicatedResult result;
  common::Accumulator expected;
  for (std::int64_t dropped : {3, 70, 11}) {
    mac::ProtocolMetrics m;
    m.voice_generated = 997;
    m.voice_dropped_deadline = dropped;
    result.runs.push_back(m);
    expected.add(m.voice_loss_rate());
  }
  EXPECT_EQ(result.mean(&mac::ProtocolMetrics::voice_loss_rate),
            expected.mean());
  EXPECT_EQ(result.mean([](const mac::ProtocolMetrics& m) {
              return static_cast<double>(m.voice_dropped_deadline);
            }),
            28.0);
}

TEST(Runner, PooledVoiceLossCountsOutageDrops) {
  // Eq. 3's loss counts outage drops (forced evictions from a dark cell);
  // the pooled counter must lose exactly what voice_loss_rate() reports.
  ReplicatedResult result;
  mac::ProtocolMetrics m;
  m.voice_generated = 1000;
  m.voice_dropped_deadline = 5;
  m.voice_error_lost = 4;
  m.voice_dropped_handoff = 3;
  m.voice_dropped_outage = 8;
  result.runs.push_back(m);
  result.runs.push_back(m);
  EXPECT_EQ(m.voice_lost(), 20);
  EXPECT_EQ(result.voice_loss_pooled().successes(), 40);
  EXPECT_EQ(result.voice_loss_pooled().trials(), 2000);
  EXPECT_EQ(result.voice_loss_pooled().ratio(), m.voice_loss_rate());
}

TEST(Runner, PooledDelayHistogramMergesTheRuns) {
  ReplicatedResult result;
  for (double delay : {0.1, 0.3, 7.0}) {
    mac::ProtocolMetrics m;
    m.data_delay_hist.add(delay);
    result.runs.push_back(m);
  }
  const auto pooled = result.data_delay_pooled();
  EXPECT_EQ(pooled.count(), 3);
  EXPECT_EQ(pooled.overflow(), 1);
}

}  // namespace
}  // namespace charisma::experiment
