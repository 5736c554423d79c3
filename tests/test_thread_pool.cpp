#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace dhnsw {
namespace {

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, SubmitRunsTask) {
  ThreadPool pool(2);
  std::atomic<int> value{0};
  pool.Submit([&] { value.store(42); }).get();
  EXPECT_EQ(value.load(), 42);
}

TEST(ThreadPoolTest, ManyTasksAllRun) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(0, [&](size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, ParallelForComputesCorrectSum) {
  ThreadPool pool(3);
  std::vector<long> partial(500);
  pool.ParallelFor(500, [&](size_t i) { partial[i] = static_cast<long>(i) * 2; });
  const long sum = std::accumulate(partial.begin(), partial.end(), 0L);
  EXPECT_EQ(sum, 499L * 500L);  // 2 * sum(0..499)
}

TEST(ThreadPoolTest, SubmitFutureCarriesTaskException) {
  ThreadPool pool(2);
  auto future = pool.Submit([] { throw std::runtime_error("task died"); });
  EXPECT_THROW(future.get(), std::runtime_error);
  // The worker survives the throw and keeps serving tasks.
  std::atomic<int> value{0};
  pool.Submit([&] { value.store(7); }).get();
  EXPECT_EQ(value.load(), 7);
}

// Regression: a throwing build task used to be "dropped" — the first
// future.get() rethrew while sibling shards still ran against the unwound
// stack frame. ParallelFor must drain every shard, then rethrow.
TEST(ThreadPoolTest, ParallelForPropagatesTaskException) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(pool.ParallelFor(200,
                                [&](size_t i) {
                                  if (i == 37) throw std::runtime_error("partition failed");
                                  completed.fetch_add(1);
                                }),
               std::runtime_error);
  // Every iteration either completed or was skipped after the failure; no
  // iteration is left in flight once ParallelFor returns.
  EXPECT_LE(completed.load(), 199);
  // The pool is still healthy: later parallel work runs to completion.
  std::atomic<int> after{0};
  pool.ParallelFor(50, [&](size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 50);
}

TEST(ThreadPoolTest, ParallelForRethrowsOneOfManyFailures) {
  ThreadPool pool(4);
  // Every iteration throws; exactly one exception must surface.
  EXPECT_THROW(
      pool.ParallelFor(64, [](size_t i) { throw std::invalid_argument(std::to_string(i)); }),
      std::invalid_argument);
}

TEST(ThreadPoolTest, ParallelForSequentialPathPropagatesToo) {
  ThreadPool pool(1);  // single worker takes the inline path
  EXPECT_THROW(pool.ParallelFor(10, [](size_t i) {
    if (i == 3) throw std::runtime_error("boom");
  }),
               std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForWithCallerCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelForWithCaller(1000, [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// One worker plus the caller: the two iterations run at the same time, which
// a caller that only waited could never do. The wait is bounded so that a
// regression fails instead of hanging.
TEST(ThreadPoolTest, ParallelForWithCallerRunsOnTheCallingThreadToo) {
  ThreadPool pool(1);
  std::atomic<int> entered{0};
  std::atomic<bool> met{true};
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> on_caller{0};
  pool.ParallelForWithCaller(2, [&](size_t) {
    if (std::this_thread::get_id() == caller) on_caller.fetch_add(1);
    entered.fetch_add(1);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (entered.load() < 2) {
      if (std::chrono::steady_clock::now() > deadline) {
        met.store(false);
        return;
      }
      std::this_thread::yield();
    }
  });
  EXPECT_TRUE(met.load());
  EXPECT_EQ(on_caller.load(), 1);
}

TEST(ThreadPoolTest, ParallelForWithCallerPropagatesTaskException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelForWithCaller(100,
                                          [](size_t i) {
                                            if (i == 41) throw std::runtime_error("boom");
                                          }),
               std::runtime_error);
  std::atomic<int> after{0};
  pool.ParallelForWithCaller(20, [&](size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 20);
}

TEST(ThreadPoolTest, ParallelForChunkedCoversEveryElementExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1003);  // non-multiple of grain
  pool.ParallelForChunked(1003, 64, [&](size_t begin, size_t end) {
    ASSERT_LT(begin, end);
    ASSERT_LE(end - begin, 64u);
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForChunkedBoundariesIndependentOfThreadCount) {
  // Chunk boundaries are a pure function of (n, grain): per-chunk sums merged
  // in chunk order must be bit-identical across pool sizes — the property the
  // deterministic k-means reduction relies on.
  auto chunk_starts = [](size_t threads) {
    ThreadPool pool(threads);
    std::mutex mu;
    std::vector<std::pair<size_t, size_t>> ranges;
    pool.ParallelForChunked(777, 50, [&](size_t b, size_t e) {
      std::lock_guard<std::mutex> lock(mu);
      ranges.emplace_back(b, e);
    });
    std::sort(ranges.begin(), ranges.end());
    return ranges;
  };
  const auto r1 = chunk_starts(1);
  const auto r2 = chunk_starts(2);
  const auto r8 = chunk_starts(8);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(r1, r8);
}

TEST(ThreadPoolTest, DestructorJoinsCleanlyWithPendingWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&] { counter.fetch_add(1); });
    }
    // Pool destroyed here; queued tasks must all have been drained or run.
  }
  // Tasks submitted before shutdown are guaranteed to execute.
  EXPECT_EQ(counter.load(), 50);
}

}  // namespace
}  // namespace dhnsw
