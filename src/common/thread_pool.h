// Fixed-size thread pool used for intra-instance parallel sub-HNSW search
// (the paper uses 18 OpenMP threads per compute instance; we expose the same
// degree of parallelism as a configurable pool) and for the parallel build
// pipeline (k-means assignment, per-partition graph builds, batch-parallel
// insertion, streamed serialization).
//
// Nesting rule: ParallelFor/ParallelForChunked must not be called from inside
// a task running on the SAME pool — the calling shard would block on work
// queued behind itself. The build pipeline keeps one level of pool
// parallelism per stage for exactly this reason.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace dhnsw {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 is clamped to 1.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const noexcept { return workers_.size(); }

  /// Enqueues a task; returns a future for its completion. A task that
  /// throws stores the exception in the future — callers that discard the
  /// future discard the error with it, so build-path work goes through
  /// ParallelFor, which cannot lose an exception.
  std::future<void> Submit(std::function<void()> task);

  /// Runs `fn(i)` for i in [0, n) across the pool and blocks until every
  /// iteration has finished or been cancelled. If an iteration throws, the
  /// remaining un-started iterations are skipped, every in-flight shard is
  /// still drained (no shard may outlive this call — they reference the
  /// caller's stack), and the first captured exception is rethrown to the
  /// caller. A partition build that dies therefore surfaces as an error
  /// instead of hanging or silently dropping the partition.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// ParallelFor in which the calling thread runs iterations too, next to
  /// the workers, instead of blocking idle: a pool of N - 1 workers keeps N
  /// cores busy. Same exception contract as ParallelFor.
  void ParallelForWithCaller(size_t n, const std::function<void(size_t)>& fn);

  /// Chunked variant for cheap per-element bodies: runs `fn(begin, end)`
  /// over consecutive ranges of at most `grain` elements. Chunk boundaries
  /// depend only on `grain` — never on the worker count — so reductions
  /// that accumulate per chunk and merge in chunk-index order produce
  /// bit-identical results across thread counts. Same exception contract
  /// as ParallelFor.
  void ParallelForChunked(size_t n, size_t grain,
                          const std::function<void(size_t, size_t)>& fn);

 private:
  void WorkerLoop();
  void RunShards(size_t n, const std::function<void(size_t)>& fn, bool caller_joins);

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace dhnsw
