#include "experiment/worker_pool.hpp"

#include <algorithm>

namespace charisma::experiment {

WorkerPool::WorkerPool(unsigned threads) : threads_(threads) {
  if (threads_ == 0) {
    threads_ = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads_ - 1);
  for (unsigned t = 1; t < threads_; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  start_cv_.notify_all();
  // Join here, explicitly: workers_ is declared before the mutex and the
  // condition variables, so leaving the join to the implicit jthread
  // destructors would tear the synchronization out from under any worker
  // still waking up.
  workers_.clear();
}

void WorkerPool::run_round() {
  while (!failed_.load(std::memory_order_acquire)) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n_) return;
    try {
      (*fn_)(i);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!error_) error_ = std::current_exception();
      }
      failed_.store(true, std::memory_order_release);
    }
  }
}

void WorkerPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] { return shutdown_ || round_ != seen; });
      if (shutdown_) return;
      seen = round_;
    }
    run_round();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--workers_active_ == 0) done_cv_.notify_all();
    }
  }
}

void WorkerPool::for_each(std::size_t n,
                          const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty()) {
    // Single-thread pool: the inline loop keeps serial runs free of any
    // synchronization (and of this object entirely in the common path).
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    fn_ = &fn;
    n_ = n;
    next_.store(0, std::memory_order_relaxed);
    failed_.store(false, std::memory_order_relaxed);
    error_ = nullptr;
    workers_active_ = workers_.size();
    ++round_;
  }
  start_cv_.notify_all();
  run_round();  // the calling thread participates
  std::unique_lock<std::mutex> lock(mutex_);
  // Full barrier: every worker has wound down this round (each wakes
  // exactly once per round, and the next round cannot start before this
  // wait clears), so the caller sees all writes made by the tasks.
  done_cv_.wait(lock, [&] { return workers_active_ == 0; });
  fn_ = nullptr;
  if (error_) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    std::rethrow_exception(e);
  }
}

void WorkerPool::for_each_range(
    std::size_t total, std::size_t shards,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (total == 0 || shards == 0) return;
  // Shard s's bounds are a pure function of (total, shards), so claiming
  // order cannot change them. The task captures two references, which
  // std::function stores inline: a round allocates nothing.
  struct Split {
    std::size_t total, shards;
  };
  const Split split{total, std::min(shards, total)};  // never an empty shard
  for_each(split.shards, [&fn, &split](std::size_t s) {
    fn(s, s * split.total / split.shards,
       (s + 1) * split.total / split.shards);
  });
}

}  // namespace charisma::experiment
