// Tests for the deterministic parallel-execution layer: correctness of the
// helpers, exception propagation, nested sections, and bit-identical
// results across thread counts.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace longtail::util {
namespace {

// Restores the global pool to its environment-configured size afterwards,
// so thread-count fiddling cannot leak into other tests.
class ThreadPoolTest : public ::testing::Test {
 protected:
  void TearDown() override {
    set_global_threads(ThreadPool::default_threads());
  }
};

TEST_F(ThreadPoolTest, EmptyRangeIsANoop) {
  set_global_threads(4);
  bool touched = false;
  parallel_for(0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);

  const auto mapped = parallel_map(0, [](std::size_t i) { return i; });
  EXPECT_TRUE(mapped.empty());

  int combines = 0;
  sharded_for(
      0, 8, [](std::size_t, std::size_t, std::size_t) { return 0; },
      [&](int&&, std::size_t) { ++combines; });
  EXPECT_EQ(combines, 0);
}

TEST_F(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  set_global_threads(4);
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST_F(ThreadPoolTest, ParallelMapPreservesInputOrder) {
  set_global_threads(3);
  const auto out =
      parallel_map(5'000, [](std::size_t i) { return i * i; }, /*grain=*/7);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST_F(ThreadPoolTest, ShardedForIsIndependentOfThreadCount) {
  // A deliberately order-sensitive accumulation (string concatenation):
  // identical results require the same shard boundaries and combine order
  // under every thread count.
  auto run = [](unsigned threads) {
    set_global_threads(threads);
    std::string combined;
    sharded_for(
        1'000, 16,
        [](std::size_t shard, std::size_t begin, std::size_t end) {
          return std::to_string(shard) + ":" + std::to_string(begin) + "-" +
                 std::to_string(end) + ";";
        },
        [&](std::string&& s, std::size_t) { combined += s; });
    return combined;
  };
  const auto serial = run(1);
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(8), serial);
}

TEST_F(ThreadPoolTest, ExceptionsPropagateToCaller) {
  set_global_threads(4);
  EXPECT_THROW(
      parallel_for(1'000,
                   [](std::size_t i) {
                     if (i == 513) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // The lowest-index failure wins, independent of scheduling.
  try {
    parallel_for(
        1'000,
        [](std::size_t i) {
          if (i == 100) throw std::runtime_error("first");
          if (i == 900) throw std::runtime_error("second");
        },
        /*grain=*/1);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
}

TEST_F(ThreadPoolTest, PoolSurvivesAnExceptionAndKeepsWorking) {
  set_global_threads(2);
  EXPECT_THROW(parallel_for(100, [](std::size_t) {
    throw std::runtime_error("boom");
  }),
               std::runtime_error);
  std::atomic<std::size_t> sum{0};
  parallel_for(100, [&](std::size_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 100u * 99u / 2u);
}

TEST_F(ThreadPoolTest, NestedParallelSectionsDoNotDeadlock) {
  set_global_threads(2);
  std::vector<std::size_t> outer(64);
  parallel_for(64, [&](std::size_t i) {
    // Inner sections run inline on the worker; this must neither deadlock
    // nor change results.
    const auto inner = parallel_map(32, [&](std::size_t j) { return i + j; });
    outer[i] = std::accumulate(inner.begin(), inner.end(), std::size_t{0});
  });
  for (std::size_t i = 0; i < outer.size(); ++i)
    EXPECT_EQ(outer[i], 32 * i + 31 * 32 / 2);
}

TEST_F(ThreadPoolTest, SerialFallbackRunsInline) {
  set_global_threads(0);
  EXPECT_EQ(global_pool().size(), 0u);
  EXPECT_EQ(effective_threads(), 1u);
  const auto caller = std::this_thread::get_id();
  parallel_for(16, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_FALSE(ThreadPool::on_worker_thread());
  });
}

TEST_F(ThreadPoolTest, EnvParsingRules) {
  // 0 and 1 both mean serial; this mirrors ThreadPool::default_threads()
  // semantics exercised indirectly via set_global_threads.
  set_global_threads(1);
  EXPECT_EQ(global_pool().size(), 0u);
  set_global_threads(7);
  EXPECT_EQ(global_pool().size(), 7u);
  EXPECT_EQ(effective_threads(), 7u);
}

TEST_F(ThreadPoolTest, SubmitRunsTasks) {
  // The count changes only under the mutex, and the pool is declared last
  // so its destructor joins the workers before `cv` and `m` go: a task
  // still notifying can then never touch a destroyed condition variable.
  std::mutex m;
  std::condition_variable cv;
  int ran = 0;  // guarded by m
  ThreadPool pool(2);
  for (int i = 0; i < 32; ++i)
    pool.submit([&] {
      EXPECT_TRUE(ThreadPool::on_worker_thread());
      std::lock_guard<std::mutex> lock(m);
      if (++ran == 32) cv.notify_all();
    });
  std::unique_lock<std::mutex> lock(m);
  cv.wait(lock, [&] { return ran == 32; });
  EXPECT_EQ(ran, 32);
}

}  // namespace
}  // namespace longtail::util
