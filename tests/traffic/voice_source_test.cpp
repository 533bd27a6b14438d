#include "traffic/voice_source.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>

#include "common/rng.hpp"

namespace charisma::traffic {
namespace {

constexpr double kFrame = 2.5e-3;

VoiceSourceConfig test_config() {
  VoiceSourceConfig cfg;
  cfg.mean_talkspurt_s = 1.0;
  cfg.mean_silence_s = 1.35;
  cfg.voice_period = 20e-3;
  cfg.deadline = 20e-3;
  return cfg;
}

TEST(VoiceSource, StartsSilent) {
  VoiceSource src(test_config(), common::RngStream(1));
  const auto update = src.on_frame(0.0);
  EXPECT_EQ(update.packets_generated, 0);
  EXPECT_FALSE(src.has_packet());
}

TEST(VoiceSource, ActivityFactorLongRun) {
  VoiceSource src(test_config(), common::RngStream(2));
  long talk_frames = 0;
  const long n = 400000;  // 1000 s
  for (long i = 0; i < n; ++i) {
    src.on_frame(static_cast<double>(i) * kFrame);
    if (src.in_talkspurt()) ++talk_frames;
  }
  EXPECT_NEAR(static_cast<double>(talk_frames) / static_cast<double>(n),
              1.0 / 2.35, 0.03);
}

TEST(VoiceSource, PacketEveryVoicePeriodDuringTalkspurt) {
  VoiceSource src(test_config(), common::RngStream(3));
  // Run until a talkspurt and count consecutive packet emissions.
  long packets = 0;
  double first_packet_time = -1.0, last_packet_time = -1.0;
  for (long i = 0; i < 200000 && packets < 20; ++i) {
    const double t = static_cast<double>(i) * kFrame;
    const auto update = src.on_frame(t);
    if (update.packets_generated > 0) {
      if (first_packet_time < 0.0) first_packet_time = t;
      last_packet_time = t;
      packets += update.packets_generated;
      if (src.has_packet()) src.consume_packet();
    }
  }
  ASSERT_GE(packets, 20);
  // Packet instants are multiples of the 20 ms period; observed at 2.5 ms
  // frame boundaries the spacing averages to one period across a talkspurt.
  EXPECT_GT(last_packet_time, first_packet_time);
}

TEST(VoiceSource, DeadlineIsOnePeriodAfterGeneration) {
  VoiceSource src(test_config(), common::RngStream(4));
  for (long i = 0; i < 200000; ++i) {
    const auto update = src.on_frame(static_cast<double>(i) * kFrame);
    if (update.packets_generated > 0) {
      EXPECT_NEAR(src.packet().deadline - src.packet().generated_at, 20e-3,
                  1e-12);
      return;
    }
  }
  FAIL() << "no packet generated";
}

TEST(VoiceSource, UnconsumedPacketsExpire) {
  VoiceSource src(test_config(), common::RngStream(5));
  long generated = 0, expired = 0;
  const long n = 200000;  // 500 s, never consume
  for (long i = 0; i < n; ++i) {
    const auto update = src.on_frame(static_cast<double>(i) * kFrame);
    generated += update.packets_generated;
    expired += update.packets_expired;
  }
  ASSERT_GT(generated, 1000);
  // Every packet except possibly the live one must have expired.
  EXPECT_GE(expired, generated - 1);
  EXPECT_LE(expired, generated);
}

TEST(VoiceSource, ConsumedPacketsDontExpire) {
  VoiceSource src(test_config(), common::RngStream(6));
  long expired = 0;
  for (long i = 0; i < 100000; ++i) {
    const auto update = src.on_frame(static_cast<double>(i) * kFrame);
    expired += update.packets_expired;
    if (src.has_packet()) src.consume_packet();
  }
  EXPECT_EQ(expired, 0);
}

TEST(VoiceSource, MeanTalkspurtDuration) {
  VoiceSource src(test_config(), common::RngStream(7));
  double talk_time = 0.0;
  long talkspurts = 0;
  bool was_talking = false;
  const long n = 1000000;
  for (long i = 0; i < n; ++i) {
    src.on_frame(static_cast<double>(i) * kFrame);
    if (src.in_talkspurt()) {
      talk_time += kFrame;
      if (!was_talking) ++talkspurts;
    }
    was_talking = src.in_talkspurt();
  }
  ASSERT_GT(talkspurts, 500);
  EXPECT_NEAR(talk_time / static_cast<double>(talkspurts), 1.0, 0.1);
}

TEST(VoiceSource, TalkspurtStartFlagFires) {
  VoiceSource src(test_config(), common::RngStream(8));
  long starts = 0;
  bool was_talking = false;
  long transitions = 0;
  for (long i = 0; i < 400000; ++i) {
    const auto update = src.on_frame(static_cast<double>(i) * kFrame);
    if (update.talkspurt_started) ++starts;
    if (!was_talking && src.in_talkspurt()) ++transitions;
    was_talking = src.in_talkspurt();
  }
  // A talkspurt shorter than one frame starts and ends inside a single
  // on_frame call: the flag fires but the external observer never sees the
  // state high, so starts can exceed observed transitions slightly.
  EXPECT_GE(starts, transitions);
  EXPECT_LE(starts, transitions + transitions / 10 + 5);
  EXPECT_GT(starts, 100);
}

TEST(VoiceSource, NextPacketAtAdvances) {
  VoiceSource src(test_config(), common::RngStream(9));
  for (long i = 0; i < 200000; ++i) {
    const auto update = src.on_frame(static_cast<double>(i) * kFrame);
    if (update.packets_generated > 0) {
      EXPECT_NEAR(src.next_packet_at() - src.packet().generated_at, 20e-3,
                  1e-12);
      return;
    }
  }
  FAIL() << "no packet generated";
}

TEST(VoiceSource, Deterministic) {
  VoiceSource a(test_config(), common::RngStream(10));
  VoiceSource b(test_config(), common::RngStream(10));
  for (long i = 0; i < 50000; ++i) {
    const double t = static_cast<double>(i) * kFrame;
    const auto ua = a.on_frame(t);
    const auto ub = b.on_frame(t);
    ASSERT_EQ(ua.packets_generated, ub.packets_generated);
    ASSERT_EQ(a.in_talkspurt(), b.in_talkspurt());
  }
}

TEST(VoiceSource, InvalidConfig) {
  auto cfg = test_config();
  cfg.mean_talkspurt_s = 0.0;
  EXPECT_THROW(VoiceSource(cfg, common::RngStream(1)), std::invalid_argument);
  cfg = test_config();
  cfg.voice_period = 0.0;
  EXPECT_THROW(VoiceSource(cfg, common::RngStream(1)), std::invalid_argument);
}

TEST(VoiceSource, RejectsNonPositiveRateScale) {
  // A scale <= 0 would turn the divided exponential means into inf/NaN
  // toggle times, silently freezing the on/off chain. The source is the
  // last line of defense behind traffic::validate_or_throw at the config
  // parse layer — both must reject.
  VoiceSource src(test_config(), common::RngStream(12));
  EXPECT_THROW(src.set_rate_scale(0.0), std::invalid_argument);
  EXPECT_THROW(src.set_rate_scale(-1.0), std::invalid_argument);
  EXPECT_THROW(src.set_rate_scale(std::nan("")), std::invalid_argument);
  // A rejected call leaves the previous scale in force.
  src.set_rate_scale(2.0);
  EXPECT_THROW(src.set_rate_scale(-3.0), std::invalid_argument);
  VoiceSource ref(test_config(), common::RngStream(12));
  ref.set_rate_scale(2.0);
  for (long i = 0; i < 20000; ++i) {
    const double t = static_cast<double>(i) * kFrame;
    ASSERT_EQ(src.on_frame(t).packets_generated,
              ref.on_frame(t).packets_generated);
  }
}

TEST(VoiceSource, LongGapBetweenCallsReplaysEverything) {
  // Calling after a long gap (a variable-length RMAV frame) must process
  // all interim events, not lose them.
  VoiceSource a(test_config(), common::RngStream(11));
  VoiceSource b(test_config(), common::RngStream(11));
  long gen_a = 0, exp_a = 0, gen_b = 0, exp_b = 0;
  for (long i = 0; i < 40000; ++i) {  // 100 s at fine steps
    const auto u = a.on_frame(static_cast<double>(i) * kFrame);
    gen_a += u.packets_generated;
    exp_a += u.packets_expired;
  }
  for (long i = 0; i < 1000; ++i) {  // same horizon, 100 ms steps
    const auto u = b.on_frame(static_cast<double>(i) * 0.1);
    gen_b += u.packets_generated;
    exp_b += u.packets_expired;
  }
  // Land both sources on the identical final instant.
  {
    const auto ua = a.on_frame(100.0);
    gen_a += ua.packets_generated;
    exp_a += ua.packets_expired;
    const auto ub = b.on_frame(100.0);
    gen_b += ub.packets_generated;
    exp_b += ub.packets_expired;
  }
  // Same RNG stream, same state machine: identical totals.
  EXPECT_EQ(gen_a, gen_b);
  EXPECT_EQ(exp_a, exp_b);
}

// ---- The next-event contract the engine's activity index relies on ----

/// The gap to the next frame start: the static protocols' fixed 2.5 ms
/// frame, or an irregular one like RMAV's and DRMA's load-dependent frames.
double next_frame_gap(bool irregular, std::mt19937_64& gen) {
  if (!irregular) return kFrame;
  return std::uniform_real_distribution<double>(0.3e-3, 6e-3)(gen);
}

TEST(VoiceSource, NextEventTimeIsMinusInfinityBeforeTheFirstFrame) {
  VoiceSource src(test_config(), common::RngStream(1));
  EXPECT_EQ(src.next_event_time(), -std::numeric_limits<double>::infinity());
  src.on_frame(0.0);  // draws the initial silence
  EXPECT_GT(src.next_event_time(), 0.0);
}

TEST(VoiceSource, FramesBeforeTheNextEventChangeNothing) {
  // The engine calls on_frame(t) only once t + 1e-9 >= next_event_time().
  // That is exact only if every earlier call is a no-op: an all-zero update
  // and no visible state change. Transmissions (consume_packet) happen
  // between frames, as in the engine.
  for (std::uint64_t seed : {3u, 17u, 29u, 101u}) {
    for (bool irregular : {false, true}) {
      SCOPED_TRACE("seed " + std::to_string(seed) +
                   (irregular ? " irregular" : " 2.5 ms"));
      VoiceSource src(test_config(), common::RngStream(seed));
      std::mt19937_64 gen(seed);
      long quiet = 0, due = 0;
      for (double t = 0.0; t < 60.0; t += next_frame_gap(irregular, gen)) {
        const double next = src.next_event_time();
        const bool had_packet = src.has_packet();
        const bool talking = src.in_talkspurt();
        const double next_packet = src.next_packet_at();
        const auto update = src.on_frame(t);
        if (t + 1e-9 < next) {
          ++quiet;
          ASSERT_FALSE(update.talkspurt_started);
          ASSERT_EQ(update.packets_generated, 0);
          ASSERT_EQ(update.packets_expired, 0);
          ASSERT_EQ(src.has_packet(), had_packet);
          ASSERT_EQ(src.in_talkspurt(), talking);
          ASSERT_EQ(src.next_packet_at(), next_packet);
          ASSERT_EQ(src.next_event_time(), next);
        } else {
          ++due;
        }
        if (src.has_packet() && gen() % 2 == 0) src.consume_packet();
      }
      // Not vacuous: most frames are quiet, and events do fall due.
      EXPECT_GT(quiet, due);
      EXPECT_GT(due, 100);
    }
  }
}

TEST(VoiceSource, OutsideMutationsNeverMoveTheNextEventEarlier) {
  // Between two frames the engine's world may transmit or drop the pending
  // packet and rescale the call rate. None of them may pull the next event
  // before the time the engine cached, or a skipped frame would miss it.
  for (std::uint64_t seed : {5u, 6u, 7u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    VoiceSource src(test_config(), common::RngStream(seed));
    long consumed = 0;
    for (long i = 0; i < 24000; ++i) {
      src.on_frame(static_cast<double>(i) * kFrame);
      double before = src.next_event_time();
      if (src.has_packet() && i % 3 == 0) {
        src.consume_packet();
        ++consumed;
        ASSERT_GE(src.next_event_time(), before);
        before = src.next_event_time();
      }
      src.set_rate_scale(i % 2 == 0 ? 4.0 : 0.25);
      ASSERT_GE(src.next_event_time(), before);
    }
    EXPECT_GT(consumed, 100);
  }
}

}  // namespace
}  // namespace charisma::traffic
