#include "experiment/worker_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

namespace charisma::experiment {
namespace {

TEST(WorkerPool, RunsEveryIndexExactlyOnce) {
  WorkerPool pool(4);
  std::vector<std::atomic<int>> counts(200);
  pool.for_each(counts.size(), [&](std::size_t i) { counts[i].fetch_add(1); });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(WorkerPool, ZeroItemsIsNoop) {
  WorkerPool pool(3);
  EXPECT_NO_THROW(pool.for_each(0, [](std::size_t) { FAIL(); }));
}

TEST(WorkerPool, DefaultsToHardwareConcurrency) {
  WorkerPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(WorkerPool, SingleThreadRunsInline) {
  WorkerPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(8);
  pool.for_each(seen.size(),
                [&](std::size_t i) { seen[i] = std::this_thread::get_id(); });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(WorkerPool, ReusableAcrossManyEpochs) {
  // The world calls for_each 50 times per simulated second; the pool must
  // survive thousands of wake/barrier cycles without losing workers.
  WorkerPool pool(4);
  std::atomic<std::int64_t> total{0};
  constexpr int kEpochs = 2000;
  constexpr std::size_t kCells = 5;
  for (int e = 0; e < kEpochs; ++e) {
    pool.for_each(kCells, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), static_cast<std::int64_t>(kEpochs * kCells));
}

TEST(WorkerPool, ExceptionPropagatesToCaller) {
  WorkerPool pool(4);
  EXPECT_THROW(pool.for_each(16,
                             [](std::size_t i) {
                               if (i == 3) throw std::runtime_error("boom");
                             }),
               std::runtime_error);
}

TEST(WorkerPool, PoolSurvivesAnException) {
  WorkerPool pool(3);
  EXPECT_THROW(
      pool.for_each(8, [](std::size_t) { throw std::runtime_error("boom"); }),
      std::runtime_error);
  // A failed round must not poison the next one.
  std::atomic<int> count{0};
  pool.for_each(8, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(WorkerPool, MoreThreadsThanItems) {
  WorkerPool pool(8);
  std::atomic<int> count{0};
  pool.for_each(3, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 3);
}

TEST(WorkerPool, BarrierMakesResultsVisibleWithoutSync) {
  // for_each is a full barrier: plain (non-atomic) per-index writes must be
  // visible to the caller afterwards.
  WorkerPool pool(4);
  std::vector<double> out(64, 0.0);
  pool.for_each(out.size(),
                [&](std::size_t i) { out[i] = static_cast<double>(i) * 2.0; });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], static_cast<double>(i) * 2.0);
  }
}

TEST(WorkerPoolRange, CoversEveryElementExactlyOnceInShardOrder) {
  WorkerPool pool(4);
  std::vector<std::atomic<int>> hits(103);
  std::vector<std::atomic<int>> shard_of(103);
  pool.for_each_range(hits.size(), 5,
                      [&](std::size_t s, std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) {
                          hits[i].fetch_add(1);
                          shard_of[i].store(static_cast<int>(s));
                        }
                      });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // Contiguous ascending ranges: shard ids are non-decreasing over the
  // elements.
  for (std::size_t i = 1; i < shard_of.size(); ++i) {
    EXPECT_GE(shard_of[i].load(), shard_of[i - 1].load());
  }
}

TEST(WorkerPoolRange, DecompositionMatchesFormulaAtAnyThreadCount) {
  // The shard boundaries must depend only on (total, shards) — never on
  // the pool's thread count — or the world's proposal merge order would
  // vary with the host.
  constexpr std::size_t kTotal = 97;
  constexpr std::size_t kShards = 4;
  for (unsigned threads : {1u, 2u, 8u}) {
    WorkerPool pool(threads);
    std::vector<std::pair<std::size_t, std::size_t>> ranges(kShards);
    pool.for_each_range(kTotal, kShards,
                        [&](std::size_t s, std::size_t begin,
                            std::size_t end) { ranges[s] = {begin, end}; });
    for (std::size_t s = 0; s < kShards; ++s) {
      EXPECT_EQ(ranges[s].first, s * kTotal / kShards);
      EXPECT_EQ(ranges[s].second, (s + 1) * kTotal / kShards);
    }
  }
}

TEST(WorkerPoolRange, MoreShardsThanElementsDropsEmptyShards) {
  WorkerPool pool(4);
  std::atomic<int> shards_run{0};
  std::vector<std::atomic<int>> hits(3);
  pool.for_each_range(hits.size(), 10,
                      [&](std::size_t, std::size_t begin, std::size_t end) {
                        shards_run.fetch_add(1);
                        for (std::size_t i = begin; i < end; ++i) {
                          hits[i].fetch_add(1);
                        }
                      });
  EXPECT_EQ(shards_run.load(), 3);  // clamped to total
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPoolRange, ZeroTotalIsNoop) {
  WorkerPool pool(3);
  EXPECT_NO_THROW(pool.for_each_range(
      0, 4, [](std::size_t, std::size_t, std::size_t) { FAIL(); }));
}

TEST(WorkerPoolRange, SingleThreadRunsInlineOnCaller) {
  WorkerPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(3);
  pool.for_each_range(30, 3,
                      [&](std::size_t s, std::size_t, std::size_t) {
                        seen[s] = std::this_thread::get_id();
                      });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(WorkerPoolRange, ExceptionPropagatesAndPoolSurvives) {
  WorkerPool pool(4);
  EXPECT_THROW(
      pool.for_each_range(100, 4,
                          [](std::size_t s, std::size_t, std::size_t) {
                            if (s == 2) throw std::runtime_error("boom");
                          }),
      std::runtime_error);
  // A failed range round must poison neither plain rounds nor later range
  // rounds.
  std::atomic<int> count{0};
  pool.for_each(8, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
  std::atomic<int> covered{0};
  pool.for_each_range(50, 4,
                      [&](std::size_t, std::size_t begin, std::size_t end) {
                        covered.fetch_add(static_cast<int>(end - begin));
                      });
  EXPECT_EQ(covered.load(), 50);
}

TEST(WorkerPoolRange, InterleavesWithPlainForEach) {
  // The world alternates range rounds (user shards) and plain rounds
  // (cells) every epoch; the two dispatch modes must not leak state into
  // each other.
  WorkerPool pool(4);
  for (int e = 0; e < 100; ++e) {
    std::atomic<int> range_sum{0};
    pool.for_each_range(64, 4,
                        [&](std::size_t, std::size_t begin, std::size_t end) {
                          range_sum.fetch_add(static_cast<int>(end - begin));
                        });
    EXPECT_EQ(range_sum.load(), 64);
    std::atomic<int> plain_sum{0};
    pool.for_each(5, [&](std::size_t) { plain_sum.fetch_add(1); });
    EXPECT_EQ(plain_sum.load(), 5);
  }
}

}  // namespace
}  // namespace charisma::experiment
