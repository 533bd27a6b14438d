// The library's one thread pool: a persistent barrier-style worker pool.
// It is built for work that recurs at a high rate on small index ranges —
// the multi-cell world dispatches one task per cell 50 times per simulated
// second, where spawning threads per call would cost more than a whole
// 20 ms epoch of a small cell — and serves one-shot grids (run_sweep's
// independent (point, protocol) cells) just as well.
//
// Workers are spawned once and parked on a condition variable between
// jobs. for_each(n, fn) wakes them, the calling thread joins in, indices
// are claimed from a shared atomic, and the call returns only after every
// worker has finished the round (a full barrier) — so the caller may touch
// the results with no further synchronization. Share-nothing tasks (each
// cell owns its engine, bank and RNG streams) need exactly this and nothing
// more.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace charisma::experiment {

class WorkerPool {
 public:
  /// Total concurrency including the calling thread; 0 picks
  /// std::thread::hardware_concurrency() (min 1). threads == 1 spawns no
  /// workers at all — for_each degenerates to an inline loop.
  explicit WorkerPool(unsigned threads = 0);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  unsigned thread_count() const { return threads_; }

  /// Runs fn(i) for every i in [0, n) across the workers plus the calling
  /// thread; returns after all n calls complete. The first exception thrown
  /// by any call is rethrown here. A thread stops claiming indices once it
  /// sees a failure — its own at once, another thread's as soon as the
  /// flag reaches it — so a round runs at most thread_count() failing
  /// calls and abandons the rest. The pool remains usable afterwards.
  /// Reentrant calls (fn itself calling for_each on the same pool) are not
  /// supported.
  void for_each(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Scatter/gather over a contiguous index space: splits [0, total) into
  /// `shards` near-equal contiguous ranges and runs
  /// fn(shard, begin, end) for each — one for_each round, so with its
  /// barrier, exception and reentrancy contract. Shards in excess of
  /// `total` are dropped (no empty ranges); shard s covers
  /// [s*total/shards, (s+1)*total/shards). The decomposition depends only
  /// on (total, shards) — never on the thread count — which is what lets
  /// sharded callers keep bit-identical results at any concurrency.
  void for_each_range(
      std::size_t total, std::size_t shards,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

 private:
  void worker_loop();
  /// Claims and runs indices of the current round until they run out (or a
  /// failure short-circuits the round).
  void run_round();

  unsigned threads_;
  std::vector<std::jthread> workers_;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t round_ = 0;       ///< bumped per for_each; wakes the workers
  std::size_t workers_active_ = 0;  ///< workers not yet done with the round
  bool shutdown_ = false;
  std::exception_ptr error_;

  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t n_ = 0;
  std::atomic<std::size_t> next_{0};
  std::atomic<bool> failed_{false};
};

}  // namespace charisma::experiment
