#include "experiment/sweep.hpp"

#include <gtest/gtest.h>

#include <string>

#include "../support/scenarios.hpp"

namespace charisma::experiment {
namespace {

SweepConfig small_sweep() {
  SweepConfig config;
  config.spec.params = ::charisma::testing::small_mixed(0, 0);
  config.spec.warmup_s = 0.5;
  config.spec.measure_s = 2.0;
  config.spec.replications = 1;
  config.axis = SweepAxis::kVoiceUsers;
  config.x_values = {5, 10};
  config.protocols_to_run = {protocols::ProtocolId::kCharisma,
                             protocols::ProtocolId::kDtdmaFr};
  return config;
}

TEST(Sweep, ProducesFullGrid) {
  WorkerPool pool(2);
  const auto cells = run_sweep(small_sweep(), pool);
  EXPECT_EQ(cells.size(), 4u);
  for (const auto& cell : cells) {
    ASSERT_EQ(cell.result.runs.size(), 1u);
    // A single cell simulates its whole population every frame.
    EXPECT_EQ(cell.result.runs[0].mean_attached_users(), cell.x);
  }
}

TEST(Sweep, AxisSelectsUserClass) {
  auto config = small_sweep();
  config.axis = SweepAxis::kDataUsers;
  config.x_values = {3};
  WorkerPool pool(1);
  const auto cells = run_sweep(config, pool);
  for (const auto& cell : cells) {
    ASSERT_EQ(cell.result.runs.size(), 1u);
    const auto& run = cell.result.runs[0];
    EXPECT_EQ(run.mean_attached_users(), 3.0);  // the 3 data users alone
    EXPECT_EQ(run.voice_generated, 0);
    EXPECT_GT(run.data_generated, 0);
  }
}

TEST(Sweep, EmptyGridRejected) {
  WorkerPool pool(1);
  auto config = small_sweep();
  config.x_values.clear();
  EXPECT_THROW(run_sweep(config, pool), std::invalid_argument);
  config = small_sweep();
  config.protocols_to_run.clear();
  EXPECT_THROW(run_sweep(config, pool), std::invalid_argument);
}

TEST(Sweep, SeriesExtraction) {
  WorkerPool pool(2);
  const auto cells = run_sweep(small_sweep(), pool);
  const auto series =
      series_of(cells, protocols::ProtocolId::kCharisma,
                [](const ReplicatedResult& r) {
                  return r.mean(&mac::ProtocolMetrics::voice_loss_rate);
                });
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].first, 5);
  EXPECT_EQ(series[1].first, 10);
}

TEST(Sweep, DeterministicAcrossRuns) {
  // Each cell is a share-nothing run seeded only by its x index, so two
  // runs must agree cell for cell — also when one runs on a single thread
  // and the other on four.
  WorkerPool serial(1);
  WorkerPool parallel(4);
  const auto a = run_sweep(small_sweep(), serial);
  const auto b = run_sweep(small_sweep(), parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    EXPECT_EQ(a[i].x, b[i].x);
    EXPECT_EQ(a[i].protocol, b[i].protocol);
    EXPECT_EQ(a[i].result.protocol, b[i].result.protocol);
    // Every field of every replication's metrics, bit for bit.
    EXPECT_EQ(a[i].result.runs, b[i].result.runs);
  }
}

}  // namespace
}  // namespace charisma::experiment
