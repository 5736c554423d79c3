#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace dhnsw {

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t n = num_threads == 0 ? 1 : num_threads;
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  RunShards(n, fn, /*caller_joins=*/false);
}

void ThreadPool::ParallelForWithCaller(size_t n, const std::function<void(size_t)>& fn) {
  RunShards(n, fn, /*caller_joins=*/true);
}

void ThreadPool::RunShards(size_t n, const std::function<void(size_t)>& fn,
                           bool caller_joins) {
  if (n == 0) return;
  if (n == 1 || (workers_.size() == 1 && !caller_joins)) {
    for (size_t i = 0; i < n; ++i) fn(i);  // a throw propagates directly
    return;
  }
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  auto shard = [&] {
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      if (failed.load(std::memory_order_relaxed)) return;
      try {
        fn(i);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (first_error == nullptr) first_error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };
  std::vector<std::future<void>> futures;
  const size_t shards = std::min(caller_joins ? n - 1 : n, workers_.size());
  futures.reserve(shards);
  for (size_t s = 0; s < shards; ++s) futures.push_back(Submit(shard));
  if (caller_joins) shard();
  // Drain EVERY shard before unwinding: the shard lambdas reference this
  // frame's locals (next/failed/fn), so returning — or rethrowing — while a
  // shard still runs would leave workers touching a dead stack. The old
  // `f.get()` loop did exactly that when the first shard threw.
  for (auto& f : futures) f.wait();
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

void ThreadPool::ParallelForChunked(size_t n, size_t grain,
                                    const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  const size_t chunks = (n + grain - 1) / grain;
  ParallelFor(chunks, [&](size_t c) {
    const size_t begin = c * grain;
    fn(begin, std::min(n, begin + grain));
  });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

}  // namespace dhnsw
