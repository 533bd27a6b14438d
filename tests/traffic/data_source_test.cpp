#include "traffic/data_source.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <deque>
#include <random>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace charisma::traffic {
namespace {

constexpr double kFrame = 2.5e-3;

DataSourceConfig test_config() {
  DataSourceConfig cfg;
  cfg.mean_interarrival_s = 1.0;
  cfg.mean_burst_packets = 100.0;
  cfg.frame_duration = kFrame;
  return cfg;
}

TEST(DataSource, StartsEmpty) {
  DataSource src(test_config(), common::RngStream(1));
  EXPECT_TRUE(src.empty());
  EXPECT_EQ(src.backlog(), 0);
}

TEST(DataSource, BurstRateMatchesInterarrival) {
  DataSource src(test_config(), common::RngStream(2));
  long bursts = 0;
  const double horizon = 2000.0;
  for (double t = 0.0; t < horizon; t += 0.1) {
    bursts += src.on_frame(t).bursts_arrived;
  }
  EXPECT_NEAR(static_cast<double>(bursts) / horizon, 1.0, 0.05);
}

TEST(DataSource, MeanBurstSize) {
  DataSource src(test_config(), common::RngStream(3));
  long bursts = 0, packets = 0;
  for (double t = 0.0; t < 3000.0; t += 0.1) {
    const auto u = src.on_frame(t);
    bursts += u.bursts_arrived;
    packets += u.packets_arrived;
  }
  ASSERT_GT(bursts, 1000);
  EXPECT_NEAR(static_cast<double>(packets) / static_cast<double>(bursts),
              100.0, 5.0);
}

TEST(DataSource, PacketsStampedAtFrameBoundary) {
  DataSource src(test_config(), common::RngStream(4));
  for (long i = 0; i < 100000; ++i) {
    const double t = static_cast<double>(i) * kFrame;
    const auto u = src.on_frame(t);
    if (u.packets_arrived > 0) {
      EXPECT_DOUBLE_EQ(src.head_arrival(), t);
      return;
    }
  }
  FAIL() << "no burst arrived";
}

TEST(DataSource, PopHeadFifo) {
  DataSource src(test_config(), common::RngStream(5));
  double t = 0.0;
  while (src.backlog() < 2) {
    t += kFrame;
    src.on_frame(t);
  }
  const int before = src.backlog();
  const double head = src.head_arrival();
  src.pop_head();
  EXPECT_EQ(src.backlog(), before - 1);
  // Same-burst packets share the arrival stamp.
  EXPECT_DOUBLE_EQ(src.head_arrival(), head);
}

TEST(DataSource, PopEmptyThrows) {
  DataSource src(test_config(), common::RngStream(6));
  EXPECT_THROW(src.pop_head(), std::logic_error);
}

TEST(DataSource, PushFrontPreservesOrder) {
  DataSource src(test_config(), common::RngStream(7));
  double t = 0.0;
  while (src.backlog() < 3) {
    t += kFrame;
    src.on_frame(t);
  }
  const double a = src.head_arrival();
  src.pop_head();
  const double b = src.head_arrival();
  src.pop_head();
  // ARQ: the two failed packets return to the head in original order.
  const double failed[] = {a, b};
  src.push_front(failed);
  EXPECT_DOUBLE_EQ(src.head_arrival(), a);
  src.pop_head();
  EXPECT_DOUBLE_EQ(src.head_arrival(), b);
}

TEST(DataSource, GeneratedCounter) {
  DataSource src(test_config(), common::RngStream(8));
  long counted = 0;
  for (double t = 0.0; t < 100.0; t += 0.1) {
    counted += src.on_frame(t).packets_arrived;
  }
  EXPECT_EQ(src.packets_generated(), counted);
}

TEST(DataSource, Deterministic) {
  DataSource a(test_config(), common::RngStream(9));
  DataSource b(test_config(), common::RngStream(9));
  for (double t = 0.0; t < 200.0; t += 0.5) {
    EXPECT_EQ(a.on_frame(t).packets_arrived, b.on_frame(t).packets_arrived);
  }
}

TEST(DataSource, InvalidConfig) {
  auto cfg = test_config();
  cfg.mean_interarrival_s = 0.0;
  EXPECT_THROW(DataSource(cfg, common::RngStream(1)), std::invalid_argument);
  cfg = test_config();
  cfg.mean_burst_packets = 0.5;
  EXPECT_THROW(DataSource(cfg, common::RngStream(1)), std::invalid_argument);
}

TEST(DataSource, RejectsNonPositiveRateScale) {
  // Mirror of VoiceSource.RejectsNonPositiveRateScale: a scale <= 0 would
  // make next_gap's divided mean inf/NaN, so the setter throws and keeps
  // the previous scale.
  DataSource src(test_config(), common::RngStream(11));
  EXPECT_THROW(src.set_rate_scale(0.0), std::invalid_argument);
  EXPECT_THROW(src.set_rate_scale(-0.5), std::invalid_argument);
  EXPECT_THROW(src.set_rate_scale(std::nan("")), std::invalid_argument);
  src.set_rate_scale(3.0);
  EXPECT_THROW(src.set_rate_scale(0.0), std::invalid_argument);
  DataSource ref(test_config(), common::RngStream(11));
  ref.set_rate_scale(3.0);
  for (double t = 0.0; t < 100.0; t += 0.1) {
    ASSERT_EQ(src.on_frame(t).packets_arrived, ref.on_frame(t).packets_arrived);
  }
}

TEST(DataSource, BurstsAreAtLeastOnePacket) {
  auto cfg = test_config();
  cfg.mean_burst_packets = 1.0;  // tiny bursts still >= 1
  DataSource src(cfg, common::RngStream(10));
  long bursts = 0, packets = 0;
  for (double t = 0.0; t < 500.0; t += 0.1) {
    const auto u = src.on_frame(t);
    bursts += u.bursts_arrived;
    packets += u.packets_arrived;
  }
  EXPECT_GE(packets, bursts);
}

// ---- The next-event contract the engine's activity index relies on ----

TEST(DataSource, FramesBeforeTheNextBurstChangeNothing) {
  // The engine calls on_frame(t) only once t + 1e-9 >= next_event_time();
  // every earlier call must add nothing and leave the source as it was.
  // Service (pop_head) happens between frames, as in the engine. Grids:
  // fixed 2.5 ms frames and irregular RMAV/DRMA-like ones.
  for (std::uint64_t seed : {3u, 17u, 29u, 101u}) {
    for (bool irregular : {false, true}) {
      SCOPED_TRACE("seed " + std::to_string(seed) +
                   (irregular ? " irregular" : " 2.5 ms"));
      DataSource src(test_config(), common::RngStream(seed));
      std::mt19937_64 gen(seed);
      std::uniform_real_distribution<double> gap(0.3e-3, 6e-3);
      long quiet = 0, due = 0;
      for (double t = 0.0; t < 60.0; t += irregular ? gap(gen) : kFrame) {
        const double next = src.next_event_time();
        const int backlog = src.backlog();
        const auto update = src.on_frame(t);
        if (t + 1e-9 < next) {
          ++quiet;
          ASSERT_EQ(update.bursts_arrived, 0);
          ASSERT_EQ(update.packets_arrived, 0);
          ASSERT_EQ(src.backlog(), backlog);
          ASSERT_EQ(src.next_event_time(), next);
        } else {
          ++due;
          ASSERT_GT(update.bursts_arrived, 0);
          ASSERT_GT(src.next_event_time(), t + 1e-9);
        }
        if (!src.empty() && gen() % 2 == 0) src.pop_head();
      }
      EXPECT_GT(quiet, 100 * due);
      EXPECT_GT(due, 20);
    }
  }
}

TEST(DataSource, OutsideMutationsNeverMoveTheNextBurstEarlier) {
  // ARQ returns failed packets to the queue head and the world rescales
  // the burst rate between frames: neither may touch the next arrival the
  // engine cached.
  for (std::uint64_t seed : {5u, 6u, 7u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    DataSource src(test_config(), common::RngStream(seed));
    const std::vector<common::Time> failed(3, 0.0);
    for (long i = 0; i < 24000; ++i) {
      src.on_frame(static_cast<double>(i) * kFrame);
      const double before = src.next_event_time();
      src.push_front(failed);
      ASSERT_GE(src.next_event_time(), before);
      src.set_rate_scale(i % 2 == 0 ? 4.0 : 0.25);
      ASSERT_GE(src.next_event_time(), before);
    }
  }
}

TEST(ArrivalRing, MatchesAPlainQueueThroughWrapsGrowthAndCopies) {
  // The run-length ring against a std::deque of every packet: random
  // bursts (same-frame ones merge into the tail run), deliveries and ARQ
  // returns to the head, so the runs wrap, split, merge and regrow. A copy
  // taken anywhere must replay the same queue.
  std::mt19937_64 gen(17);
  ArrivalRing ring;
  std::deque<common::Time> model;
  common::Time now = 0.0;
  std::vector<common::Time> failed;
  const auto expect_same = [](ArrivalRing r, std::deque<common::Time> m) {
    ASSERT_EQ(r.size(), m.size());
    for (; !m.empty(); m.pop_front(), r.pop_front()) {
      ASSERT_EQ(r.front(), m.front());
    }
    EXPECT_TRUE(r.empty());
  };
  for (int step = 0; step < 20000; ++step) {
    switch (gen() % 4) {
      case 0: {  // a burst, sometimes in the same frame as the last one
        if (gen() % 3 != 0) now += kFrame;
        const std::size_t count = 1 + gen() % 40;
        ring.push_back(now, count);
        model.insert(model.end(), count, now);
        break;
      }
      case 1:
      case 2: {  // a slot: deliver some head packets, return the rest
        failed.clear();
        for (std::size_t n = gen() % 6; n > 0 && !model.empty(); --n) {
          ASSERT_EQ(ring.front(), model.front());
          if (gen() % 2 == 0) failed.push_back(model.front());
          ring.pop_front();
          model.pop_front();
        }
        ring.push_front(failed);
        model.insert(model.begin(), failed.begin(), failed.end());
        break;
      }
      default:
        if (step % 1000 == 3) expect_same(ring, model);  // copies
    }
    ASSERT_EQ(ring.size(), model.size());
    ASSERT_EQ(ring.empty(), model.empty());
    if (!model.empty()) {
      ASSERT_EQ(ring.front(), model.front());
    }
  }
  expect_same(std::move(ring), model);
}

}  // namespace
}  // namespace charisma::traffic
