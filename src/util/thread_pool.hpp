// Deterministic parallel-execution layer.
//
// A fixed-size worker pool plus `parallel_for` / `parallel_map` /
// `sharded_for` helpers designed so that results never depend on the
// number of threads:
//
//   * `parallel_for(n, body)` requires body(i) to touch only state owned
//     by index i (typically slot i of a preallocated output vector); the
//     iteration->thread assignment is then irrelevant to the result.
//   * `sharded_for` splits work into a *data-derived* shard count (never
//     the thread count) and combines shard results serially in shard
//     order, so stateful accumulation is reproducible bit-for-bit.
//
// The global pool is sized by the LONGTAIL_THREADS environment variable:
// unset = hardware_concurrency, 0 or 1 = serial (helpers run inline on the
// calling thread, no workers at all). Benchmarks and tests can re-size it
// at runtime with set_global_threads(); callers must not do so while a
// parallel section is in flight.
//
// Nested parallelism is safe but not amplified: a helper invoked from
// inside a worker thread runs serially inline, which both avoids deadlock
// (workers never block on other workers) and keeps determinism trivial.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace longtail::util {

class ThreadPool {
 public:
  // `threads` workers; 0 means no workers (helpers run serially).
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  // Enqueue a task. Tasks must not block waiting for other tasks.
  void submit(std::function<void()> task);

  // True when the calling thread is one of this process's pool workers.
  static bool on_worker_thread() noexcept;

  // Pool size implied by LONGTAIL_THREADS (see file comment).
  static unsigned default_threads();

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

// The process-wide pool used by the helpers below.
ThreadPool& global_pool();

// Replace the global pool with one of `threads` workers (0/1 = serial).
// Not thread-safe against concurrently running parallel sections.
void set_global_threads(unsigned threads);

// Worker count of the global pool, clamped to >= 1 (i.e. the number of
// concurrent execution lanes, counting the calling thread when serial).
unsigned effective_threads();

namespace detail {

struct ForState {
  explicit ForState(std::size_t chunks) : errors(chunks) {}
  std::atomic<std::size_t> cursor{0};
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t done = 0;  // guarded by mutex
  std::vector<std::exception_ptr> errors;
};

// Rethrows the lowest-index captured exception, if any, so the surfaced
// error is independent of execution interleaving.
void rethrow_first(const std::vector<std::exception_ptr>& errors);

}  // namespace detail

// Runs body(i) for every i in [0, n). body(i) must only write state owned
// by i. `grain` is the minimum number of iterations per chunk (tune it up
// for very cheap bodies). Exceptions thrown by body propagate to the
// caller (lowest chunk index wins).
template <typename Body>
void parallel_for(std::size_t n, Body&& body, std::size_t grain = 1) {
  if (n == 0) return;
  ThreadPool& pool = global_pool();
  const unsigned workers = pool.size();
  if (grain == 0) grain = 1;
  if (workers == 0 || ThreadPool::on_worker_thread() || n <= grain) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  const std::size_t max_chunks = static_cast<std::size_t>(workers) * 4;
  const std::size_t n_chunks =
      std::min((n + grain - 1) / grain, std::max<std::size_t>(max_chunks, 1));
  const std::size_t chunk = (n + n_chunks - 1) / n_chunks;
  auto state = std::make_shared<detail::ForState>(n_chunks);

  Body* body_ptr = &body;  // valid until every chunk is claimed (see below)
  auto drain = [state, body_ptr, n, chunk, n_chunks]() {
    for (;;) {
      const std::size_t c =
          state->cursor.fetch_add(1, std::memory_order_relaxed);
      if (c >= n_chunks) return;
      const std::size_t begin = c * chunk;
      const std::size_t end = std::min(begin + chunk, n);
      try {
        for (std::size_t i = begin; i < end; ++i) (*body_ptr)(i);
      } catch (...) {
        state->errors[c] = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(state->mutex);
      if (++state->done == n_chunks) state->cv.notify_all();
    }
  };

  const std::size_t helpers =
      std::min<std::size_t>(workers, n_chunks > 1 ? n_chunks - 1 : 0);
  for (std::size_t i = 0; i < helpers; ++i) pool.submit(drain);
  drain();  // the calling thread participates

  std::vector<std::exception_ptr> errors;
  {
    std::unique_lock<std::mutex> lock(state->mutex);
    state->cv.wait(lock, [&] { return state->done == n_chunks; });
    // All chunks are claimed and finished; leftover queued drain tasks will
    // see cursor >= n_chunks and never touch body again. One of them may
    // still hold `state`, so the errors move out here: every caught
    // exception is then released on this thread.
    errors = std::move(state->errors);
  }
  detail::rethrow_first(errors);
}

// Maps fn over [0, n), returning results in index order. The result type
// must be default-constructible and assignable.
template <typename Fn>
auto parallel_map(std::size_t n, Fn&& fn, std::size_t grain = 1) {
  using R = std::decay_t<std::invoke_result_t<Fn&, std::size_t>>;
  std::vector<R> out(n);
  parallel_for(
      n, [&](std::size_t i) { out[i] = fn(i); }, grain);
  return out;
}

// Splits [0, n) into `n_shards` contiguous shards (clamped to n), runs
// shard_fn(shard_index, begin, end) -> S in parallel, then calls
// combine(S&&, shard_index) serially in ascending shard order. Because the
// shard count comes from the caller's data (never the thread count), the
// combined result is bit-identical for any LONGTAIL_THREADS.
template <typename ShardFn, typename Combine>
void sharded_for(std::size_t n, std::size_t n_shards, ShardFn&& shard_fn,
                 Combine&& combine) {
  if (n == 0) return;
  using S = std::decay_t<
      std::invoke_result_t<ShardFn&, std::size_t, std::size_t, std::size_t>>;
  n_shards = std::max<std::size_t>(1, std::min(n_shards, n));
  const std::size_t chunk = (n + n_shards - 1) / n_shards;
  std::vector<S> shards(n_shards);
  parallel_for(n_shards, [&](std::size_t s) {
    const std::size_t begin = s * chunk;
    const std::size_t end = std::min(begin + chunk, n);
    shards[s] = shard_fn(s, begin, end);
  });
  for (std::size_t s = 0; s < n_shards; ++s) combine(std::move(shards[s]), s);
}

}  // namespace longtail::util
