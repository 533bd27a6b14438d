#include "experiment/report.hpp"

#include <gtest/gtest.h>

namespace charisma::experiment {
namespace {

double voice_loss(const ReplicatedResult& r) {
  return r.mean(&mac::ProtocolMetrics::voice_loss_rate);
}

TEST(Report, HistogramClipWarningFiresAboveThreshold) {
  common::Histogram h(0.0, 1.0, 10);
  for (int i = 0; i < 97; ++i) h.add(0.5);
  h.add(-1.0);
  h.add(2.0);
  h.add(3.0);  // 3% clipped
  const auto warning = histogram_clip_warning(h, "data delay");
  ASSERT_TRUE(warning.has_value());
  EXPECT_NE(warning->find("data delay"), std::string::npos);
  EXPECT_NE(warning->find("clipped"), std::string::npos);
}

TEST(Report, HistogramClipWarningSilentWhenHealthy) {
  common::Histogram h(0.0, 1.0, 10);
  for (int i = 0; i < 200; ++i) h.add(0.5);
  h.add(2.0);  // 0.5% clipped: below the 1% default
  EXPECT_FALSE(histogram_clip_warning(h, "delay").has_value());
  common::Histogram empty(0.0, 1.0, 10);
  EXPECT_FALSE(histogram_clip_warning(empty, "delay").has_value());
}

TEST(Report, CapacityInterpolatesCrossing) {
  // Series crosses 0.01 between x=60 (0.005) and x=80 (0.015): midpoint 70.
  std::vector<std::pair<int, double>> series{{40, 0.002}, {60, 0.005},
                                             {80, 0.015}};
  const auto cap = capacity_at_threshold(series, 0.01);
  ASSERT_TRUE(cap.has_value());
  EXPECT_NEAR(*cap, 70.0, 1e-9);
}

TEST(Report, CapacityBelowFirstPoint) {
  std::vector<std::pair<int, double>> series{{10, 0.05}, {20, 0.2}};
  EXPECT_FALSE(capacity_at_threshold(series, 0.01).has_value());
}

TEST(Report, NoiseSpikeDoesNotTruncateCapacity) {
  // A single noisy point above the threshold in an otherwise-flat
  // sub-threshold series must not be read as the knee: the isotonic fit
  // averages it away.
  std::vector<std::pair<int, double>> series{
      {10, 0.007}, {40, 0.012}, {70, 0.007}, {100, 0.008}, {130, 0.009}};
  const auto cap = capacity_at_threshold(series, 0.01);
  ASSERT_TRUE(cap.has_value());
  EXPECT_GT(*cap, 100.0);
}

TEST(Report, IsotonicPreservesGenuineKnee) {
  std::vector<std::pair<int, double>> series{
      {10, 0.002}, {40, 0.003}, {70, 0.005}, {100, 0.02}, {130, 0.2}};
  const auto cap = capacity_at_threshold(series, 0.01);
  ASSERT_TRUE(cap.has_value());
  EXPECT_GT(*cap, 70.0);
  EXPECT_LT(*cap, 100.0);
}

TEST(Report, CapacityNeverCrossed) {
  std::vector<std::pair<int, double>> series{{10, 0.001}, {50, 0.004}};
  const auto cap = capacity_at_threshold(series, 0.01);
  ASSERT_TRUE(cap.has_value());
  EXPECT_DOUBLE_EQ(*cap, 50.0);
}

TEST(Report, CapacityHandlesUnsortedInput) {
  std::vector<std::pair<int, double>> series{{80, 0.015}, {40, 0.002},
                                             {60, 0.005}};
  const auto cap = capacity_at_threshold(series, 0.01);
  ASSERT_TRUE(cap.has_value());
  EXPECT_NEAR(*cap, 70.0, 1e-9);
}

TEST(Report, CapacityEmptySeries) {
  EXPECT_FALSE(capacity_at_threshold({}, 0.01).has_value());
}

TEST(Report, FigureTableLaysOutProtocols) {
  std::vector<SweepCell> cells;
  for (int x : {10, 20}) {
    for (auto p : {protocols::ProtocolId::kCharisma,
                   protocols::ProtocolId::kRama}) {
      SweepCell cell;
      cell.x = x;
      cell.protocol = p;
      mac::ProtocolMetrics m;
      m.frames = 100;
      m.voice_generated = 100;
      m.voice_dropped_deadline = x;  // loss = x/100
      cell.result.runs.push_back(m);
      cells.push_back(cell);
    }
  }
  const auto table = figure_table(
      "Fig. test", "N_v", cells,
      {protocols::ProtocolId::kCharisma, protocols::ProtocolId::kRama},
      voice_loss,
      [](double v) { return common::TextTable::num(v, 2); });
  const std::string s = table.to_string();
  EXPECT_NE(s.find("CHARISMA"), std::string::npos);
  EXPECT_NE(s.find("RAMA"), std::string::npos);
  EXPECT_NE(s.find("0.10"), std::string::npos);
  EXPECT_NE(s.find("0.20"), std::string::npos);
}

TEST(Report, CapacityTableBuilds) {
  std::vector<SweepCell> cells;
  for (int x : {10, 20, 30}) {
    SweepCell cell;
    cell.x = x;
    cell.protocol = protocols::ProtocolId::kCharisma;
    mac::ProtocolMetrics m;
    m.voice_generated = 1000;
    m.voice_dropped_deadline = x;  // 1%, 2%, 3%
    cell.result.runs.push_back(m);
    cells.push_back(cell);
  }
  const auto table = capacity_table(
      "capacity", cells, {protocols::ProtocolId::kCharisma},
      voice_loss, 0.02,
      "2% loss");
  const std::string s = table.to_string();
  EXPECT_NE(s.find("CHARISMA"), std::string::npos);
  EXPECT_NE(s.find("20"), std::string::npos);
}

}  // namespace
}  // namespace charisma::experiment
