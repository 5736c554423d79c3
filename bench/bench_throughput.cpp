// Throughput scaling across the compute pool (paper §4 runs 24 instances
// over 3 servers; §1 targets "high-throughput vector query"). The client
// load balancer shards each batch across instances; with independent QPs
// and caches, throughput should scale near-linearly until the shards get so
// small that per-batch fixed costs (metadata refresh, cold loads) dominate.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/stats.h"
#include "common/timer.h"
#include "core/client_router.h"
#include "dataset/ground_truth.h"

namespace {

// One row of the threads sweep: fresh node (cold cache) per repetition,
// best-of-reps wall latency for the full 2000-query batch.
struct ThreadsPoint {
  double latency_us = 0;
  double throughput_qps = 0;
  double recall = 0;
};

ThreadsPoint MeasureThreads(dhnsw::DhnswEngine& engine, const dhnsw::Dataset& ds,
                            const dhnsw::bench::BenchConfig& config, size_t search_threads,
                            int reps) {
  ThreadsPoint point;
  double best_us = 0;
  for (int rep = 0; rep < reps; ++rep) {
    auto node = AttachComputeNode(engine, config, dhnsw::EngineMode::kFull);
    node->mutable_options()->search_threads = search_threads;
    dhnsw::WallTimer timer;
    auto result = node->SearchAll(ds.queries, 10, 32);
    const double us = timer.elapsed_us();
    if (!result.ok()) {
      std::fprintf(stderr, "threads bench failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    if (std::getenv("DHNSW_BENCH_DIAG") != nullptr) {
      const dhnsw::BatchBreakdown& b = result.value().breakdown;
      std::fprintf(stderr,
                   "diag t=%zu wall=%.0fus net=%.0f meta=%.0f sub=%.0f deser=%.0f "
                   "loaded=%llu\n",
                   search_threads, us, b.network_us, b.meta_us, b.sub_us, b.deserialize_us,
                   (unsigned long long)b.clusters_loaded);
    }
    if (rep == 0 || us < best_us) {
      best_us = us;
      point.recall = dhnsw::MeanRecallAtK(ds, result.value().results, 10);
    }
  }
  point.latency_us = best_us;
  point.throughput_qps = static_cast<double>(ds.queries.size()) / (best_us / 1e6);
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dhnsw::bench;
  // `--json=PATH` archives the threads sweep; everything else goes to
  // ParseFlags (which treats unknown keys as fatal).
  std::string json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      args.push_back(argv[i]);
    }
  }
  BenchConfig config = ParseFlags(static_cast<int>(args.size()), args.data(),
                                  BenchConfig::ForWorkload(Workload::kSiftLike));
  config.num_queries = 2000;

  std::printf("==== Throughput scaling over compute instances ====\n");
  dhnsw::Dataset ds = LoadDataset(config);
  dhnsw::DhnswEngine engine = BuildEngine(ds, config);

  std::printf("\n%10s %16s %16s %14s %14s %14s\n", "instances", "batch latency",
              "throughput", "recall", "shard p50", "shard max");
  std::printf("%10s %16s %16s %14s %14s %14s\n", "", "(us)", "(queries/s)", "@10",
              "(us)", "(us)");
  for (size_t instances : {1u, 2u, 4u, 8u, 16u}) {
    // A fresh pool per point (cold caches), all attached to the same region.
    std::vector<std::unique_ptr<dhnsw::ComputeNode>> nodes;
    std::vector<dhnsw::ComputeNode*> pool;
    for (size_t i = 0; i < instances; ++i) {
      nodes.push_back(AttachComputeNode(engine, config, dhnsw::EngineMode::kFull));
      pool.push_back(nodes.back().get());
    }
    dhnsw::ClientRouter router(pool);
    auto result = router.SearchBatch(ds.queries, 10, 32);
    if (!result.ok()) {
      std::fprintf(stderr, "router failed: %s\n", result.status().ToString().c_str());
      return 1;
    }
    // Per-shard latency distribution: each shard records into its own
    // recorder/stat (in a real pool each instance aggregates locally), then
    // the shards are Merge()d into a pool-wide view — no re-sort of the
    // combined samples, no double-counting of Welford terms.
    dhnsw::LatencyRecorder pool_latency;
    dhnsw::RunningStat pool_stat;
    for (const dhnsw::BatchBreakdown& b : result.value().per_instance) {
      dhnsw::LatencyRecorder shard_latency;
      dhnsw::RunningStat shard_stat;
      const double shard_us = b.network_us + b.meta_us + b.sub_us + b.deserialize_us;
      shard_latency.Add(shard_us);
      shard_stat.Add(shard_us);
      pool_latency.Merge(shard_latency);
      pool_stat.Merge(shard_stat);
    }
    double recall = dhnsw::MeanRecallAtK(ds, result.value().results, 10);
    std::printf("%10zu %16.1f %16.0f %14.4f %14.1f %14.1f\n", instances,
                result.value().batch_latency_us, result.value().throughput_qps, recall,
                pool_latency.p50(), pool_stat.max());
  }
  std::printf("\n# latency = slowest shard; throughput = batch size / latency.\n");

  // ---- Search threads on one instance ----
  // Routing, cluster decode, sub-searches and the merge of each batch run on
  // search_threads threads; threads=1 is the inline path.
  std::printf("\n==== Search threads (single instance, cold cache) ====\n");
  std::printf("\n%10s %16s %16s %10s\n", "threads", "batch latency", "throughput", "recall");
  std::printf("%10s %16s %16s %10s\n", "", "(us)", "(queries/s)", "@10");
  constexpr int kReps = 3;
  JsonWriter json;
  const size_t kThreads[2] = {1, 4};
  ThreadsPoint sweep[2];
  for (size_t ti = 0; ti < 2; ++ti) {
    const ThreadsPoint p = MeasureThreads(engine, ds, config, kThreads[ti], kReps);
    sweep[ti] = p;
    std::printf("%10zu %16.1f %16.0f %10.4f\n", kThreads[ti], p.latency_us,
                p.throughput_qps, p.recall);
    LabelNic(json.Row("threads_sweep"), engine)
        .Label("search_threads", std::to_string(kThreads[ti]))
        .Field("batch_latency_us", p.latency_us)
        .Field("throughput_qps", p.throughput_qps)
        .Field("recall_at_10", p.recall);
  }
  const double thread_speedup = sweep[1].throughput_qps / sweep[0].throughput_qps;
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("\n# thread speedup (threads 4 vs 1): %.2fx\n", thread_speedup);
  json.Row("threads_summary")
      .Field("thread_speedup_t4_vs_t1", thread_speedup)
      .Field("hardware_threads", static_cast<double>(cores));
  if (!json_path.empty() && !json.WriteFile(json_path)) return 1;
  return 0;
}
