// ProtocolEngine::run window semantics: durations are relative to now(),
// so repeated runs are window-monotonic — each call continues the same
// simulation and measures a fresh, non-empty window. (A second run with an
// absolute warmup at or before now() used to return a zero-frame window
// whose rate helpers divided by zero.) The EngineFrameClock cases pin the
// frame loop under advance_by on a protocol-free engine with scripted
// frame durations.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "../support/scenarios.hpp"
#include "protocols/factory.hpp"

namespace charisma::mac {
namespace {

using protocols::ProtocolId;

TEST(EngineRunWindows, RepeatedRunsEachMeasureTheirOwnWindow) {
  auto engine = protocols::make_protocol(ProtocolId::kCharisma,
                                         testing::small_mixed(8, 2));
  const auto& first = engine->run(0.5, 1.0);
  EXPECT_GT(first.frames, 0);
  EXPECT_NEAR(first.measured_time, 1.0, 0.05);
  EXPECT_NEAR(engine->now(), 1.5, 0.05);

  // The historical failure mode: warmup (0.5) <= now() (1.5) made both
  // run_until calls no-ops and returned zero frames.
  const auto& second = engine->run(0.5, 1.0);
  EXPECT_GT(second.frames, 0);
  EXPECT_NEAR(second.measured_time, 1.0, 0.05);
  EXPECT_NEAR(engine->now(), 3.0, 0.05);
  EXPECT_GE(second.voice_generated, 0);
}

TEST(EngineRunWindows, ZeroWarmupRepeatedRunStillMeasures) {
  auto engine = protocols::make_protocol(ProtocolId::kDtdmaFr,
                                         testing::small_mixed(8, 2));
  (void)engine->run(0.0, 1.0);
  const auto& again = engine->run(0.0, 1.0);
  EXPECT_GT(again.frames, 0);
  EXPECT_NEAR(engine->now(), 2.0, 0.05);
}

TEST(EngineRunWindows, InvalidDurationsThrow) {
  auto engine = protocols::make_protocol(ProtocolId::kCharisma,
                                         testing::small_mixed(4, 0));
  EXPECT_THROW(engine->run(-0.1, 1.0), std::invalid_argument);
  EXPECT_THROW(engine->run(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(engine->run(1.0, -1.0), std::invalid_argument);
}

TEST(EngineRunWindows, AdvanceByAccumulatesWithoutReset) {
  auto engine = protocols::make_protocol(ProtocolId::kCharisma,
                                         testing::small_mixed(8, 0));
  engine->advance_by(1.0);
  const auto frames_first = engine->metrics().frames;
  EXPECT_GT(frames_first, 0);
  engine->advance_by(1.0);
  EXPECT_GT(engine->metrics().frames, frames_first);
  EXPECT_NEAR(engine->now(), 2.0, 0.05);
  // Non-positive advances are no-ops.
  engine->advance_by(0.0);
  engine->advance_by(-1.0);
  EXPECT_NEAR(engine->now(), 2.0, 0.05);
}

// An engine with no users whose frames last what the test scripts:
// process_frame() records now() and returns the next scripted duration, the
// last one repeating. The durations are exact binary fractions, so every
// frame start is an exact double and compares with ==.
class ScriptedEngine : public ProtocolEngine {
 public:
  explicit ScriptedEngine(std::vector<common::Time> durations)
      : ProtocolEngine(testing::small_mixed(0, 0)),
        durations_(std::move(durations)) {}

  std::string name() const override { return "scripted"; }
  const std::vector<common::Time>& starts() const { return starts_; }

 protected:
  common::Time process_frame() override {
    starts_.push_back(now());
    return durations_[std::min(starts_.size(), durations_.size()) - 1];
  }

 private:
  std::vector<common::Time> durations_;
  std::vector<common::Time> starts_;
};

using Times = std::vector<common::Time>;

TEST(EngineFrameClock, FirstFrameAtZeroThenAtReturnedDurations) {
  ScriptedEngine engine({0.5});
  engine.advance_by(2.6);
  EXPECT_EQ(engine.starts(), (Times{0.0, 0.5, 1.0, 1.5, 2.0, 2.5}));
  EXPECT_EQ(engine.frame_index(), 6);
  EXPECT_EQ(engine.now(), 2.6);  // parked at the window end
}

TEST(EngineFrameClock, VariableDurationsSetTheNextFrameTime) {
  ScriptedEngine engine({1.0, 3.0});  // RMAV/DRMA-style variable frames
  engine.advance_by(5.0);
  EXPECT_EQ(engine.starts(), (Times{0.0, 1.0, 4.0}));
  EXPECT_EQ(engine.now(), 5.0);
}

TEST(EngineFrameClock, FrameAtTheWindowEndRunsInThatWindow) {
  ScriptedEngine engine({1.0});
  engine.advance_by(2.0);
  EXPECT_EQ(engine.starts(), (Times{0.0, 1.0, 2.0}));
  EXPECT_EQ(engine.now(), 2.0);
}

TEST(EngineFrameClock, PendingFrameRunsInALaterWindowAtItsOwnTime) {
  ScriptedEngine engine({0.75});
  Times clock;
  for (common::Time window : {1.0, 0.25, 1.0}) {
    engine.advance_by(window);
    clock.push_back(engine.now());
  }
  // The frame due at 1.5 is pending past the first two windows (ends 1.0
  // and 1.25) and runs in the third at its own time, not at 1.25.
  EXPECT_EQ(engine.starts(), (Times{0.0, 0.75, 1.5, 2.25}));
  EXPECT_EQ(clock, (Times{1.0, 1.25, 2.25}));
}

TEST(EngineFrameClock, NonPositiveFrameDurationThrows) {
  ScriptedEngine zero({0.0});
  EXPECT_THROW(zero.advance_by(1.0), std::logic_error);
  ScriptedEngine negative({0.5, -0.25});
  EXPECT_THROW(negative.advance_by(1.0), std::logic_error);
  EXPECT_EQ(negative.starts(), (Times{0.0, 0.5}));
}

}  // namespace
}  // namespace charisma::mac
