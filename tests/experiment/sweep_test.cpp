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
    EXPECT_EQ(cell.result.num_voice_users, cell.x);
    EXPECT_EQ(cell.result.replications, 1);
  }
}

TEST(Sweep, AxisSelectsUserClass) {
  auto config = small_sweep();
  config.axis = SweepAxis::kDataUsers;
  config.x_values = {3};
  WorkerPool pool(1);
  const auto cells = run_sweep(config, pool);
  for (const auto& cell : cells) {
    EXPECT_EQ(cell.result.num_data_users, 3);
    EXPECT_EQ(cell.result.num_voice_users, 0);
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
                [](const ReplicatedResult& r) { return r.voice_loss.mean(); });
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
    const auto& ra = a[i].result;
    const auto& rb = b[i].result;
    EXPECT_EQ(ra.replications, rb.replications);
    EXPECT_EQ(ra.voice_loss.mean(), rb.voice_loss.mean());
    EXPECT_EQ(ra.voice_loss_pooled.successes(),
              rb.voice_loss_pooled.successes());
    EXPECT_EQ(ra.voice_loss_pooled.trials(), rb.voice_loss_pooled.trials());
    EXPECT_EQ(ra.data_throughput.mean(), rb.data_throughput.mean());
    EXPECT_EQ(ra.data_delay_s.mean(), rb.data_delay_s.mean());
  }
}

}  // namespace
}  // namespace charisma::experiment
