// Overload survival (PR 6): the closed-loop barring layer, the cell-outage
// fault model, and — first and foremost — the guarantee that none of it
// costs anything when switched off. The golden constants below were
// captured from the tree *before* the barring/outage code existed; with
// barring disabled and no outage schedule, today's tree must reproduce
// them bit for bit (hexfloat, not approximately).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "mac/barring.hpp"
#include "mac/cellular_world.hpp"
#include "mac/scenario.hpp"
#include "protocols/factory.hpp"

namespace charisma::mac {
namespace {

using protocols::ProtocolId;

// ------------------------------------------------------------ controller

using Ctl = BarringController;

/// Feeds `ctl` one whole control window of identical frames: `attached`
/// users, one request phase of `minislots` with `collisions`, and a queue of
/// `queue` requests at each frame's end. Only the last frame closes it.
void feed_window(Ctl& ctl, std::int64_t attached, int minislots,
                 int collisions, std::int64_t queue) {
  for (int f = 1; f <= Ctl::kWindowFrames; ++f) {
    ctl.note_attached(attached);
    ContentionTally tally;
    tally.minislots = minislots;
    tally.collisions = collisions;
    ctl.note_contention(tally);
    EXPECT_EQ(ctl.end_frame(queue), f == Ctl::kWindowFrames);
  }
}

TEST(BarringController, FirstWindowSeedsTheAverage) {
  Ctl ctl;
  EXPECT_DOUBLE_EQ(ctl.overload_index(), 0.0);
  // No zero history dragged through the warmup: the first window's
  // collision ratio IS the smoothed one.
  feed_window(ctl, 40, 10, 3, 0);
  EXPECT_DOUBLE_EQ(ctl.overload_index(), 0.3);
  EXPECT_DOUBLE_EQ(ctl.raw_factor(), 1.0);  // inside the band: hold
}

TEST(BarringController, LaterWindowsTakeOneEwmaStep) {
  Ctl ctl;
  feed_window(ctl, 40, 10, 6, 0);
  feed_window(ctl, 40, 10, 0, 0);
  const double second = 0.6 + Ctl::kEwmaAlpha * (0.0 - 0.6);
  EXPECT_DOUBLE_EQ(ctl.overload_index(), second);
  // A window without request minislots reads a collision ratio of 0.
  feed_window(ctl, 40, 0, 0, 0);
  EXPECT_DOUBLE_EQ(ctl.overload_index(),
                   second + Ctl::kEwmaAlpha * (0.0 - second));
}

TEST(BarringController, OverloadIndexClampedAndQueueAware) {
  // The queue term is half the queue depth per attached user, capped at
  // one request per user; the attached count is the window's mean.
  Ctl half;
  for (int f = 0; f < Ctl::kWindowFrames; ++f) {
    half.note_attached(f % 2 == 0 ? 0 : 20);  // mean 10 over the window
    half.end_frame(5);
  }
  EXPECT_DOUBLE_EQ(half.overload_index(), 0.25);  // no collisions at all
  Ctl deep;
  feed_window(deep, 10, 10, 2, 100);
  EXPECT_DOUBLE_EQ(deep.overload_index(), 0.7);  // 0.2 + saturated 0.5
  Ctl clamped;
  feed_window(clamped, 10, 10, 9, 100);
  EXPECT_DOUBLE_EQ(clamped.overload_index(), 1.0);  // 1.4, clamped at 1
  Ctl empty;  // no attached users: the queue is read per one user
  feed_window(empty, 0, 10, 0, 1);
  EXPECT_DOUBLE_EQ(empty.overload_index(), 0.5);
}

TEST(BarringController, MimdStepsWithHysteresis) {
  Ctl ctl;
  EXPECT_DOUBLE_EQ(ctl.raw_factor(), 1.0);
  feed_window(ctl, 50, 10, 9, 0);  // index 0.9, far above kTargetHigh
  EXPECT_DOUBLE_EQ(ctl.raw_factor(), Ctl::kStepDown);
  EXPECT_DOUBLE_EQ(ctl.data_factor(),
                   std::pow(Ctl::kStepDown, Ctl::kDataExponent));
  feed_window(ctl, 50, 10, 9, 0);
  EXPECT_DOUBLE_EQ(ctl.raw_factor(), Ctl::kStepDown * Ctl::kStepDown);
  // Quiet windows pull the smoothed index down through the band: the
  // factor keeps tightening above it, holds inside it, and relaxes below
  // it until it is fully open again.
  int tightened = 0;
  int held = 0;
  int relaxed = 0;
  for (int w = 0; w < 40; ++w) {
    const double before = ctl.raw_factor();
    feed_window(ctl, 50, 10, 0, 0);
    const double idx = ctl.overload_index();
    if (idx > Ctl::kTargetHigh) {
      EXPECT_DOUBLE_EQ(ctl.raw_factor(), before * Ctl::kStepDown);
      ++tightened;
    } else if (idx < Ctl::kTargetLow) {
      EXPECT_DOUBLE_EQ(ctl.raw_factor(),
                       std::min(1.0, before * Ctl::kStepUp));
      ++relaxed;
    } else {
      EXPECT_EQ(ctl.raw_factor(), before);
      ++held;
    }
  }
  EXPECT_GT(tightened, 0);
  EXPECT_GT(held, 0);
  EXPECT_GT(relaxed, 0);
  EXPECT_DOUBLE_EQ(ctl.raw_factor(), 1.0);  // clamped at fully open
}

TEST(BarringController, DataFactorIsLibmPow) {
  // Three tightenings from fully open, three holds, four relaxations: the
  // raw factor 0.7^3 * 1.18^4, whose square glibc's pow rounds one ulp
  // below the product factor * factor. The data factor is the pow, as it
  // has been since the loop was written.
  Ctl ctl;
  for (int w = 0; w < 3; ++w) feed_window(ctl, 50, 20, 9, 0);  // index 0.45
  for (int w = 0; w < 7; ++w) feed_window(ctl, 50, 20, 0, 0);
  const double f = ctl.raw_factor();
  ASSERT_EQ(f, 0x1.547afb2c5c586p-1);
  EXPECT_EQ(ctl.data_factor(), 0x1.c4d6e6423202cp-2);
  EXPECT_NE(ctl.data_factor(), f * f);
}

TEST(BarringController, ClassFloorsVoiceGentlerThanData) {
  Ctl ctl;
  for (int w = 0; w < 200; ++w) feed_window(ctl, 50, 10, 10, 50);
  // Fully tightened: the raw factor sits on the common floor, data tracks
  // factor^exponent (also floored), and voice keeps its higher floor.
  EXPECT_DOUBLE_EQ(ctl.raw_factor(), Ctl::kMinFactor);
  EXPECT_DOUBLE_EQ(ctl.voice_factor(), Ctl::kVoiceFloor);
  EXPECT_DOUBLE_EQ(ctl.data_factor(), Ctl::kMinFactor);
  EXPECT_GT(ctl.voice_factor(), ctl.data_factor());
}

// ---------------------------------------------------- legacy golden pin
// Captured from commit 2e77484's tree (pre-barring, pre-outage) with the
// throwaway harness described in the PR. Integer counters via EXPECT_EQ,
// accumulated doubles via exact hexfloat equality: if the disabled path
// draws one extra RNG value or adds one x*1.0 in a different order, these
// fail.

TEST(OverloadSurvivalGolden, SingleCellCharismaBitForBit) {
  ScenarioParams p;
  p.num_voice_users = 20;
  p.num_data_users = 5;
  p.request_queue = true;
  p.seed = 3;
  ASSERT_FALSE(p.barring);  // the default IS the legacy path
  auto eng = protocols::make_protocol(ProtocolId::kCharisma, p);
  const auto& m = eng->run(1.0, 3.0);
  EXPECT_EQ(m.frames, 1200);
  EXPECT_EQ(m.voice_generated, 1371);
  EXPECT_EQ(m.voice_delivered, 1370);
  EXPECT_EQ(m.voice_dropped_deadline, 0);
  EXPECT_EQ(m.voice_error_lost, 1);
  EXPECT_EQ(m.data_generated, 1029);
  EXPECT_EQ(m.data_delivered, 1029);
  EXPECT_EQ(m.request_slots, 14400);
  EXPECT_EQ(m.request_successes, 42);
  EXPECT_EQ(m.request_collisions, 0);
  EXPECT_EQ(m.attached_user_frames, 30000);
  EXPECT_EQ(m.energy_info_j, 0x1.9611a7b9610f4p-3);
  EXPECT_EQ(m.energy_request_j, 0x1.da922f50dc55dp-12);
  EXPECT_EQ(m.data_delay_s.count(), 1029);
  EXPECT_EQ(m.data_delay_s.mean(), 0x1.a82b3a9a95c51p-7);
  // And the new books stay empty when the features are off.
  EXPECT_EQ(m.barring_checks, 0);
  EXPECT_EQ(m.barring_barred_voice, 0);
  EXPECT_EQ(m.barring_barred_data, 0);
  EXPECT_EQ(m.outage_evictions, 0);
  EXPECT_EQ(m.voice_dropped_outage, 0);
  EXPECT_DOUBLE_EQ(eng->barring_voice_factor(), 1.0);
  EXPECT_DOUBLE_EQ(eng->barring_data_factor(), 1.0);
}

TEST(OverloadSurvivalGolden, SingleCellDtdmaFrBitForBit) {
  ScenarioParams p;
  p.num_voice_users = 20;
  p.num_data_users = 5;
  p.request_queue = true;
  p.seed = 3;
  auto eng = protocols::make_protocol(ProtocolId::kDtdmaFr, p);
  const auto& m = eng->run(1.0, 3.0);
  EXPECT_EQ(m.frames, 1200);
  EXPECT_EQ(m.voice_generated, 1371);
  EXPECT_EQ(m.voice_delivered, 1362);
  EXPECT_EQ(m.voice_error_lost, 9);
  EXPECT_EQ(m.data_delivered, 1029);
  EXPECT_EQ(m.energy_info_j, 0x1.0bb25136bb20ap-2);
  EXPECT_EQ(m.energy_request_j, 0x1.da922f50dc55dp-12);
  EXPECT_EQ(m.data_delay_s.mean(), 0x1.ef75f43cc8745p-6);
}

TEST(OverloadSurvivalGolden, ThreeCellWorldCharismaBitForBit) {
  CellularConfig cfg;
  cfg.num_cells = 3;
  cfg.num_threads = 1;
  cfg.params.num_voice_users = 10;
  cfg.params.num_data_users = 4;
  cfg.params.seed = 7;
  cfg.params.channel.shadow_sigma_db = 6.0;
  cfg.mobility.field_width_m = 1500.0;
  cfg.mobility.field_height_m = 300.0;
  cfg.mobility.speed_mps = common::km_per_hour(100.0);
  cfg.handoff_hysteresis_db = 2.0;
  ASSERT_TRUE(cfg.outages.empty());  // the default IS the legacy path
  CellularWorld world(cfg, [](const ScenarioParams& p) {
    return protocols::make_protocol(ProtocolId::kCharisma, p);
  });
  world.run(0.5, 2.0);
  const auto m = world.aggregate_metrics();
  EXPECT_EQ(m.frames, 2403);
  EXPECT_EQ(m.voice_generated, 263);
  EXPECT_EQ(m.voice_delivered, 263);
  EXPECT_EQ(m.voice_dropped_handoff, 1);
  EXPECT_EQ(m.data_generated, 286);
  EXPECT_EQ(m.data_delivered, 364);
  EXPECT_EQ(m.request_slots, 28836);
  EXPECT_EQ(m.request_successes, 16);
  EXPECT_EQ(m.handoffs_in, 5);
  EXPECT_EQ(m.handoffs_out, 5);
  EXPECT_EQ(m.attached_user_frames, 11214);
  EXPECT_EQ(world.handoffs(), 5);
  EXPECT_EQ(m.energy_info_j, 0x1.73a4316f3a43cp-5);
  EXPECT_EQ(m.energy_request_j, 0x1.6993f349cc727p-13);
  EXPECT_EQ(m.data_delay_s.count(), 364);
  EXPECT_EQ(m.data_delay_s.mean(), 0x1.8613946c79f94p-5);
  EXPECT_EQ(m.outage_evictions, 0);
  EXPECT_EQ(m.voice_dropped_outage, 0);
  EXPECT_EQ(m.barring_checks, 0);
}

// ------------------------------------------------- graceful degradation

// The coarse-threshold acceptance test: at 5x nominal load the
// contention-bound protocols (PRMA contends with whole packets; RMAV
// funnels everyone through one competitive slot) collapse, and closing the
// barring loop must buy back a strictly lower voice loss. CHARISMA itself
// is deliberately absent: its minislot request phase keeps collisions near
// zero even at 10x (the loss there is info-slot capacity, which no
// admission policy can mint), and the golden pins above prove barring
// leaves it untouched.
TEST(OverloadSurvival, BarringCutsVoiceLossAtFiveTimesLoad) {
  struct Case {
    ProtocolId id;
    double margin;  // required absolute loss improvement
  };
  for (const Case c : {Case{ProtocolId::kPrma, 0.005},
                       Case{ProtocolId::kRmav, 0.02}}) {
    SCOPED_TRACE(protocols::protocol_name(c.id));
    double loss[2];
    double barred[2];
    for (bool barring : {false, true}) {
      ScenarioParams p;
      p.num_voice_users = 300;  // 5x the 60-user nominal operating point
      p.num_data_users = 50;
      p.seed = 5;
      p.barring = barring;
      auto eng = protocols::make_protocol(c.id, p);
      const auto& m = eng->run(2.0, 4.0);
      loss[barring] = m.voice_loss_rate();
      barred[barring] = m.effective_barring_probability();
      if (barring) {
        // The loop actually engaged: factors tightened, users were barred.
        EXPECT_LT(eng->barring_voice_factor(), 1.0);
        EXPECT_GT(m.barring_checks, 0);
        EXPECT_GT(m.barring_factor_voice.count(), 0);
      }
    }
    EXPECT_DOUBLE_EQ(barred[0], 0.0);
    EXPECT_GT(barred[1], 0.0);
    EXPECT_LT(loss[1], loss[0] - c.margin)
        << "barring-on loss " << loss[1] << " vs barring-off " << loss[0];
  }
}

// ------------------------------------------------ barring-on golden pin
// The golden pins above hold the barring-off path. This one holds where
// each protocol consults the gate: barring_blocks draws from the user's
// own stream, so a scan that asked the gate for one user more or fewer
// would move every later draw of that user. One cell per protocol, 400
// voice + 60 data users, exact integers. In one cell, CHARISMA's and
// RAMA's controllers see too few collisions to ever close the gate,
// so they pin the open-gate path (no checks at all).
TEST(BarringOnGolden, RequestPathOfEveryProtocol) {
  struct Pin {
    ProtocolId id;
    std::int64_t voice_generated;
    std::int64_t voice_delivered;
    std::int64_t data_delivered;
    std::int64_t request_successes;
    std::int64_t request_collisions;
    std::int64_t barring_checks;
    std::int64_t barred_voice;
    std::int64_t barred_data;
  };
  const Pin pins[] = {
      {ProtocolId::kCharisma, 15306, 5599, 6929, 421, 20, 0, 0, 0},
      {ProtocolId::kDtdmaVr, 15306, 7949, 0, 2695, 2459, 49381, 40220, 3276},
      {ProtocolId::kDrma, 15306, 8551, 42, 383, 332, 14372, 8288, 5017},
      {ProtocolId::kRama, 15306, 7936, 0, 3005, 0, 0, 0, 0},
      {ProtocolId::kDtdmaFr, 15306, 7923, 0, 2684, 2189, 49704, 40973, 4060},
      {ProtocolId::kRmav, 15291, 2034, 1203, 2174, 1567, 1056842, 787675,
       212293},
      {ProtocolId::kPrma, 15306, 8374, 17, 189, 141, 48138, 27074, 16770},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(protocols::protocol_name(pin.id));
    ScenarioParams p;
    p.num_voice_users = 400;
    p.num_data_users = 60;
    p.seed = 11;
    p.barring = true;
    auto eng = protocols::make_protocol(pin.id, p);
    const auto& m = eng->run(0.5, 2.0);
    EXPECT_EQ(m.voice_generated, pin.voice_generated);
    EXPECT_EQ(m.voice_delivered, pin.voice_delivered);
    EXPECT_EQ(m.data_delivered, pin.data_delivered);
    EXPECT_EQ(m.request_successes, pin.request_successes);
    EXPECT_EQ(m.request_collisions, pin.request_collisions);
    EXPECT_EQ(m.barring_checks, pin.barring_checks);
    EXPECT_EQ(m.barring_barred_voice, pin.barred_voice);
    EXPECT_EQ(m.barring_barred_data, pin.barred_data);
    if (pin.id == ProtocolId::kCharisma || pin.id == ProtocolId::kRama) {
      EXPECT_EQ(m.barring_checks, 0);
    } else {
      EXPECT_GT(m.barring_checks, 0);
    }
  }
}

// ------------------------------------------------------ outage recovery

TEST(OverloadSurvival, OutageDropsInFlightVoiceAndCountsIt) {
  // A starved link (12 dB budget) keeps voice packets pending long enough
  // that the eviction at outage onset catches some in flight; they must
  // land in voice_dropped_outage and count against voice_loss_rate.
  CellularConfig cfg;
  cfg.num_cells = 3;
  cfg.num_threads = 1;
  cfg.params.num_voice_users = 60;
  cfg.params.num_data_users = 6;
  cfg.params.seed = 7;
  cfg.params.channel.mean_snr_db = 12.0;
  cfg.params.channel.shadow_sigma_db = 6.0;
  cfg.mobility.field_width_m = 1500.0;
  cfg.mobility.field_height_m = 300.0;
  cfg.mobility.speed_mps = common::km_per_hour(50.0);
  cfg.handoff_hysteresis_db = 2.0;
  cfg.outages.push_back({1, 0.5, 1.0});
  CellularWorld world(cfg, [](const ScenarioParams& p) {
    return protocols::make_protocol(ProtocolId::kCharisma, p);
  });
  world.run(0.0, 2.0);
  const auto m = world.aggregate_metrics();
  EXPECT_GT(m.outage_evictions, 0);
  EXPECT_GE(m.voice_dropped_outage, 1);
  EXPECT_GT(m.voice_outage_drop_rate(), 0.0);
  EXPECT_EQ(m.handoffs_in, m.handoffs_out + m.outage_evictions);
}

TEST(OverloadSurvival, RecoveryReconvergesToNeverFailedSteadyState) {
  // Two identically-seeded worlds; one suffers a cell-1 outage during the
  // first measurement window. After recovery, a second (fresh) window must
  // look like the never-failed world's: same population served, loss back
  // within tolerance, no residual evictions. This is what "graceful"
  // means — the fault leaves no permanent scar.
  auto make = [](bool with_outage) {
    CellularConfig cfg;
    cfg.num_cells = 3;
    cfg.num_threads = 1;
    cfg.params.num_voice_users = 30;
    cfg.params.num_data_users = 6;
    cfg.params.seed = 7;
    cfg.params.channel.mean_snr_db = 26.0;
    cfg.params.channel.shadow_sigma_db = 6.0;
    cfg.mobility.field_width_m = 1500.0;
    cfg.mobility.field_height_m = 300.0;
    cfg.mobility.speed_mps = common::km_per_hour(50.0);
    cfg.handoff_hysteresis_db = 2.0;
    if (with_outage) cfg.outages.push_back({1, 1.0, 1.5});
    return std::make_unique<CellularWorld>(
        cfg, [](const ScenarioParams& p) {
          return protocols::make_protocol(ProtocolId::kCharisma, p);
        });
  };

  auto healthy = make(false);
  auto faulted = make(true);
  // Phase 1 covers the fault window [1.0, 1.5).
  healthy->run(0.5, 1.5);
  faulted->run(0.5, 1.5);
  ASSERT_GT(faulted->aggregate_metrics().outage_evictions, 0);
  ASSERT_FALSE(faulted->cell_dark(1));

  // Phase 2: a fresh window starting 0.5 s after recovery.
  healthy->run(0.0, 1.5);
  faulted->run(0.0, 1.5);
  const auto h = healthy->aggregate_metrics();
  const auto f = faulted->aggregate_metrics();

  EXPECT_EQ(f.outage_evictions, 0);  // the fault is fully in the past
  EXPECT_EQ(f.voice_dropped_outage, 0);
  EXPECT_GT(f.voice_delivered, 0);
  EXPECT_NEAR(f.voice_loss_rate(), h.voice_loss_rate(), 0.02);
  // Same offered load shape (sources were never detached, only re-homed).
  EXPECT_NEAR(static_cast<double>(f.voice_generated),
              static_cast<double>(h.voice_generated),
              0.2 * static_cast<double>(h.voice_generated));

  // The recovered cell is serving again and everyone is attached somewhere.
  int total = 0;
  for (int c = 0; c < 3; ++c) total += faulted->attached_count(c);
  EXPECT_EQ(total, 36);
  EXPECT_GT(faulted->attached_count(1), 0);
}

}  // namespace
}  // namespace charisma::mac
