#include "util/thread_pool.hpp"

#include <cstdlib>
#include <cstring>
#include <optional>

#include "util/profile.hpp"
#include "util/trace.hpp"

namespace longtail::util {

namespace {

thread_local bool t_on_worker = false;

std::unique_ptr<ThreadPool>& pool_slot() {
  static std::unique_ptr<ThreadPool> pool =
      std::make_unique<ThreadPool>(ThreadPool::default_threads());
  return pool;
}

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  // Carry the submitting thread's open trace span across to the worker so
  // spans recorded inside the task nest below it (no-op when tracing is
  // off; tasks themselves are unchanged). With profiling on, each task
  // runs inside a "pool.task" span: it records the task's wall time into
  // profile.pool.task_ms when metrics are on and, when tracing, nests
  // under the submitting span, which is what trace_report sums to compute
  // per-phase parallel efficiency.
  const bool traced = trace::enabled();
  const bool profiled = profile::enabled();
  if (traced || profiled) {
    task = [parent = traced ? trace::current_span() : 0, traced, profiled,
            inner = std::move(task)] {
      std::optional<trace::ParentScope> scope;
      if (traced) scope.emplace(parent);
      if (!profiled) {
        inner();
        return;
      }
      trace::Span span("pool.task",
                       LONGTAIL_TRACE_HISTOGRAM("profile.pool.task"));
      inner();
    };
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

bool ThreadPool::on_worker_thread() noexcept { return t_on_worker; }

unsigned ThreadPool::default_threads() {
  if (const char* env = std::getenv("LONGTAIL_THREADS");
      env != nullptr && *env != '\0') {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 0) {
      // 0 and 1 both mean "serial": no workers, helpers run inline.
      return v <= 1 ? 0u : static_cast<unsigned>(v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw <= 1 ? 0u : hw;
}

void ThreadPool::worker_loop() {
  t_on_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

ThreadPool& global_pool() { return *pool_slot(); }

void set_global_threads(unsigned threads) {
  pool_slot() = std::make_unique<ThreadPool>(threads <= 1 ? 0u : threads);
}

unsigned effective_threads() {
  const unsigned n = global_pool().size();
  return n == 0 ? 1u : n;
}

namespace detail {

void rethrow_first(const std::vector<std::exception_ptr>& errors) {
  for (const auto& error : errors)
    if (error) std::rethrow_exception(error);
}

}  // namespace detail

}  // namespace longtail::util
