// dhnsw_perf: runs one benchmark workload against the d-HNSW public API and
// prints its metrics. Usage:
//   dhnsw_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--scale full|tiny] [--out <dir>]
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it, prefixed with
// "PERFBENCH_DETAIL ", carries everything else (fingerprint, sample counts,
// tail percentiles, deterministic counters). perfbench/run.py builds and
// drives this program; see perfbench/README.md for the workloads and metrics.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/compute_pool.h"
#include "core/engine.h"
#include "core/memory_node.h"
#include "core/meta_hnsw.h"
#include "core/partitioner.h"
#include "core/workload_gen.h"
#include "common/rng.h"
#include "dataset/ground_truth.h"
#include "dataset/synthetic.h"
#include "index/distance.h"
#include "index/pq.h"
#include "replay.h"
#include "spans.h"
#include "telemetry/metrics.h"

#ifndef DHNSW_PERF_BUILD_TYPE
#define DHNSW_PERF_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace dhnsw;

// ---------------------------------------------------------------- workloads

// Query parameters shared by every workload: the paper's Table-1 point.
constexpr uint32_t kClustersPerQuery = 4;  ///< b
constexpr uint32_t kEfSearch = 48;
constexpr uint32_t kTopK = 10;
constexpr uint32_t kPqSubquantizers = 32;
constexpr uint32_t kRerankDepth = 64;

struct Workload {
  const char* name = "";
  uint32_t num_base = 0;
  uint32_t num_queries = 0;   ///< query sample: closed-loop batches / open-loop recall set
  uint32_t partitions = 100;  ///< meta-HNSW representatives
  uint32_t batch = 1;         ///< queries per SearchBatch call (closed loop)
  uint32_t probe_batch = 1;   ///< batch size of the deterministic probe pass
  double cache_fraction = 0.10;  ///< cluster cache size as a share of partitions
  bool pq_rerank = false;        ///< payload = kPqRerank (else raw)
  uint32_t pq_train_cap = 4096;
  rdma::TransportKind transport = rdma::TransportKind::kSim;
  bool open_loop = false;
  double offered_qps = 0.0;   ///< open loop: Poisson arrival rate
  uint32_t pool_nodes = 1;    ///< open loop: ComputePool size
  double recall_floor = 0.0;  ///< recall@k the run must reach to count as correct
  uint32_t setup_repeats = 5; ///< builds per run; setup_s is their median
  uint32_t insert_rounds = 40;    ///< insert phase: rounds, a pause apart
  uint32_t insert_per_round = 25; ///< ComputeNode::Insert calls per round
  uint32_t replay_batches = 2;  ///< traced run: batches replayed and compared
};

// Sizes keep a full run under a minute on a 4-core machine; README.md
// explains why each workload exists. The recall floors sit below the measured
// recall with margin for the query sample and are quoted in BENCHMARK.json.
const Workload kFull[] = {
    {.name = "batch_sift", .num_base = 50000, .num_queries = 6000, .batch = 2000,
     .probe_batch = 2000, .recall_floor = 0.80},
    {.name = "serve_zipf_rw", .num_base = 20000, .num_queries = 2000, .probe_batch = 500,
     .open_loop = true, .offered_qps = 100.0, .pool_nodes = 2, .recall_floor = 0.80,
     .replay_batches = 16},
    {.name = "rerank_tcp", .num_base = 50000, .num_queries = 2000, .batch = 500,
     .probe_batch = 500, .pq_rerank = true, .transport = rdma::TransportKind::kTcp,
     .recall_floor = 0.75},
};
// The same workloads shrunk to seconds, for perfbench/smoke_test.py.
const Workload kTiny[] = {
    {.name = "batch_sift", .num_base = 3000, .num_queries = 300, .partitions = 20,
     .batch = 100, .probe_batch = 100, .cache_fraction = 0.25, .recall_floor = 0.80,
     .setup_repeats = 2, .insert_rounds = 4, .insert_per_round = 10},
    {.name = "serve_zipf_rw", .num_base = 3000, .num_queries = 100, .partitions = 20,
     .probe_batch = 50, .cache_fraction = 0.25, .open_loop = true, .offered_qps = 100.0,
     .pool_nodes = 2, .recall_floor = 0.80, .setup_repeats = 2, .insert_rounds = 4,
     .insert_per_round = 10, .replay_batches = 4},
    {.name = "rerank_tcp", .num_base = 3000, .num_queries = 200, .partitions = 20,
     .batch = 50, .probe_batch = 50, .cache_fraction = 0.25, .pq_rerank = true,
     .pq_train_cap = 2048, .transport = rdma::TransportKind::kTcp, .recall_floor = 0.75,
     .setup_repeats = 2, .insert_rounds = 4, .insert_per_round = 10},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool tiny = false;
  std::string out_dir = ".bench_build/perfbench";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      a->trace = std::atoi(val.c_str());
    } else if (key == "--scale") {
      if (val != "full" && val != "tiny") return false;
      a->tiny = val == "tiny";
    } else if (key == "--out") {
      a->out_dir = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0.0 &&
         (a->trace == 0 || a->trace == 1);
}

// ------------------------------------------------------------------ helpers

double SecondsSince(uint64_t start_ns) { return static_cast<double>(NowNs() - start_ns) / 1e9; }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// One polling thread per CPU of the process, at SCHED_IDLE, for the life of
/// the object. In a virtual machine an idle vCPU halts, and waking it again
/// goes through the hypervisor, which a busy host delays by milliseconds. The
/// open loop wakes a thread for every operation, so without the pollers its
/// latencies follow the host's load rather than the program (README.md,
/// "Noise on the measurement host"). A SCHED_IDLE thread runs only when no
/// other thread wants its CPU, so every thread of the benchmark and the
/// library preempts it at once. This is the guest's idle=poll, set for one
/// process.
class IdlePoller {
 public:
  IdlePoller() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) threads_.emplace_back([this, cpu] { Poll(cpu); });
    }
  }
  ~IdlePoller() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) t.join();
  }
  IdlePoller(const IdlePoller&) = delete;
  IdlePoller& operator=(const IdlePoller&) = delete;

  size_t size() const { return threads_.size(); }

 private:
  void Poll(int cpu) {
    // At any other policy the poller would take CPU time from the program.
    sched_param param{};
    if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
    while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
  }

  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

uint64_t Fnv1a(std::span<const float> data, uint64_t h = 1469598103934665603ULL) {
  const auto* p = reinterpret_cast<const uint8_t*>(data.data());
  for (size_t i = 0; i < data.size_bytes(); ++i) h = (h ^ p[i]) * 1099511628211ULL;
  return h;
}

constexpr uint64_t kCorpusSeed = 20250706;
constexpr uint32_t kQueryPoolFactor = 10;

/// `n` distinct rows of `pool`, chosen by a partial Fisher-Yates shuffle.
VectorSet SampleRows(const VectorSet& pool, size_t n, uint64_t seed) {
  std::vector<size_t> idx(pool.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  Xoshiro256 rng(seed);
  VectorSet out(pool.dim());
  out.Reserve(n);
  for (size_t i = 0; i < n && i < idx.size(); ++i) {
    std::swap(idx[i], idx[i + rng.NextBounded(idx.size() - i)]);
    out.Append(pool[idx[i]]);
  }
  return out;
}

uint64_t InputFingerprint(const Dataset& ds) {
  return Fnv1a(ds.queries.flat(), Fnv1a(ds.base.flat()));
}

uint64_t Counter(const char* name) {
  return telemetry::DefaultRegistry().GetCounter(name)->value();
}

/// Process-wide compute counters the library publishes; deltas over a window.
struct RegistryCounters {
  uint64_t queries, batches, loads, bytes, hits, misses, retries, rerank_reads, rerank_bytes;
  static RegistryCounters Now() {
    return {Counter("dhnsw_compute_queries_total"),
            Counter("dhnsw_compute_batches_total"),
            Counter("dhnsw_compute_cluster_loads_total"),
            Counter("dhnsw_compute_bytes_loaded_total"),
            Counter("dhnsw_compute_cache_hit_clusters_total"),
            Counter("dhnsw_compute_cache_miss_clusters_total"),
            Counter("dhnsw_compute_retries_total"),
            Counter("dhnsw_compute_rerank_reads_total"),
            Counter("dhnsw_compute_rerank_bytes_total")};
  }
  RegistryCounters operator-(const RegistryCounters& o) const {
    return {queries - o.queries, batches - o.batches, loads - o.loads, bytes - o.bytes,
            hits - o.hits,       misses - o.misses,   retries - o.retries,
            rerank_reads - o.rerank_reads, rerank_bytes - o.rerank_bytes};
  }
};

rdma::QpStats SumQpStats(DhnswEngine& engine) {
  rdma::QpStats s;
  for (size_t i = 0; i < engine.num_compute_nodes(); ++i) {
    const rdma::QpStats& q = engine.compute(i).qp_stats();
    s.round_trips += q.round_trips;
    s.work_requests += q.work_requests;
    s.reads += q.reads;
    s.bytes_read += q.bytes_read;
    s.sim_network_ns += q.sim_network_ns;
  }
  return s;
}

/// Exact counters of the deterministic probe pass (one fresh node, the whole
/// query set in fixed batches). They depend only on the seed and the code.
struct ProbeCounters {
  uint64_t round_trips = 0, bytes_read = 0, clusters_loaded = 0, cache_hits = 0,
           unique_clusters = 0, rerank_reads = 0;
  bool operator==(const ProbeCounters&) const = default;
};

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

bool SameIds(const std::vector<Scored>& a, const std::vector<Scored>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id) return false;
  }
  return true;
}

/// Ordered metric list: name -> (value, unit).
class Metrics {
 public:
  void Set(const std::string& name, double value, const char* unit) {
    for (auto& m : items_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    items_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string s = "{";
    for (size_t i = 0; i < items_.size(); ++i) {
      char buf[256];
      const double v = std::isfinite(items_[i].value) ? items_[i].value : 0.0;
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", items_[i].name.c_str(), v, items_[i].unit);
      s += buf;
    }
    return s + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Item> items_;
};

/// Free-form detail fields for the PERFBENCH_DETAIL line.
class Detail {
 public:
  void Num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    fields_.emplace_back(k, buf);
  }
  void Str(const std::string& k, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += (c == '\n') ? ' ' : c;
    }
    fields_.emplace_back(k, q + "\"");
  }
  void Bool(const std::string& k, bool v) { fields_.emplace_back(k, v ? "true" : "false"); }
  std::string Json() const {
    std::string s = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      s += (i == 0 ? "\"" : ", \"") + fields_[i].first + "\": " + fields_[i].second;
    }
    return s + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// ------------------------------------------------------------------- runner

class Runner {
 public:
  Runner(const Workload& w, const Args& a, size_t idle_pollers)
      : w_(w), args_(a), idle_pollers_(idle_pollers) {
    threads_ = std::max<unsigned>(1, std::thread::hardware_concurrency());
  }

  int Run();

 private:
  DhnswConfig Config() const;
  void Fail(const std::string& why) {
    correct_ = false;
    std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  }
  /// One pass over the query set in probe_batch-sized SearchBatch calls on a
  /// freshly connected node; returns the exact counters and the results.
  ProbeCounters ProbePass(ComputeNode& node, std::vector<std::vector<Scored>>* results);
  void TimeBuildStages(const DhnswConfig& cfg);
  void ClosedLoop(DhnswEngine& engine);
  void OpenLoop(DhnswEngine& engine);
  /// w_.insert_rounds rounds of w_.insert_per_round ComputeNode::Insert calls
  /// on node 0 of a build no insert has touched, timed one by one; the
  /// acknowledged ones are appended to `acked`.
  void InsertPhase(DhnswEngine& engine,
                   std::vector<std::pair<uint32_t, std::vector<float>>>* acked);
  void ReadYourWrites(DhnswEngine& engine,
                      const std::vector<std::pair<uint32_t, std::vector<float>>>& acked);
  void Replay(DhnswEngine& engine);
  void WindowLayerMetrics(const RegistryCounters& reg, const rdma::QpStats& qp,
                          double queries);

  const Workload& w_;
  const Args& args_;
  size_t idle_pollers_;
  unsigned threads_;
  Dataset ds_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  Metrics e2e_;
  Metrics layer_;
  Detail detail_;
  std::vector<std::vector<Scored>> reference_;  ///< probe-pass results, query order
  std::vector<std::pair<uint32_t, std::vector<float>>> acked_inserts_;
  uint64_t ryw_checked_ = 0;
};

DhnswConfig Runner::Config() const {
  DhnswConfig cfg = DhnswConfig::Defaults();
  cfg.meta.num_representatives = w_.partitions;
  // The sub-HNSW build parameters of the paper benches under bench/.
  cfg.sub_hnsw.M = 8;
  cfg.sub_hnsw.ef_construction = 40;
  cfg.compute.clusters_per_query = kClustersPerQuery;
  cfg.compute.cache_capacity =
      static_cast<uint32_t>(std::max(1.0, std::round(w_.cache_fraction * w_.partitions)));
  cfg.compute.payload = w_.pq_rerank ? PayloadMode::kPqRerank : PayloadMode::kRaw;
  cfg.compute.rerank_depth = kRerankDepth;
  cfg.pq.enabled = w_.pq_rerank;
  cfg.pq.m = kPqSubquantizers;
  cfg.pq.train_sample_cap = w_.pq_train_cap;
  cfg.transport.kind = w_.transport;
  cfg.num_compute_nodes = w_.open_loop ? w_.pool_nodes : 1;
  cfg.build_threads = threads_;
  // Same seed, same region bytes: the exact counters below depend on it.
  cfg.deterministic_build = true;
  // Room for ~1000 inserted vectors per cluster pair.
  cfg.layout.overflow_bytes_per_group = 1000ull * (8 + ds_.base.dim() * 4ull);
  return cfg;
}

ProbeCounters Runner::ProbePass(ComputeNode& node, std::vector<std::vector<Scored>>* results) {
  ProbeCounters c;
  results->assign(ds_.queries.size(), {});
  for (size_t begin = 0; begin < ds_.queries.size(); begin += w_.probe_batch) {
    const size_t n = std::min<size_t>(w_.probe_batch, ds_.queries.size() - begin);
    Result<BatchResult> r = node.SearchBatch(ds_.queries, begin, n, kTopK, kEfSearch);
    if (!r.ok()) {
      Fail("probe SearchBatch: " + r.status().ToString());
      return c;
    }
    const BatchBreakdown& bd = r.value().breakdown;
    c.round_trips += bd.round_trips;
    c.bytes_read += bd.bytes_read;
    c.clusters_loaded += bd.clusters_loaded;
    c.cache_hits += bd.cache_hits;
    c.unique_clusters += bd.cache_hits + bd.clusters_loaded;
    c.rerank_reads += bd.rerank_reads;
    for (size_t i = 0; i < n; ++i) {
      if (!r.value().statuses[i].ok()) Fail("probe query status not OK");
      (*results)[begin + i] = std::move(r.value().results[i]);
    }
  }
  return c;
}

void Runner::TimeBuildStages(const DhnswConfig& cfg) {
  // The pipeline DhnswEngine::Build runs, stage by stage through the same
  // public functions, so each stage's wall time is attributable.
  MetaHnswOptions mopts = cfg.meta;
  mopts.build_threads = threads_;
  uint64_t t = NowNs();
  Result<MetaHnsw> meta = MetaHnsw::Build(ds_.base, mopts);
  layer_.Set("build.meta_s", SecondsSince(t), "s");
  if (!meta.ok()) return Fail("MetaHnsw::Build: " + meta.status().ToString());

  PartitionerOptions popts;
  popts.sub_hnsw = cfg.sub_hnsw;
  popts.num_threads = cfg.build_threads;
  popts.deterministic = cfg.deterministic_build;
  t = NowNs();
  Result<Partitioning> parts = PartitionDataset(ds_.base, meta.value(), popts);
  layer_.Set("build.partition_s", SecondsSince(t), "s");
  if (!parts.ok()) return Fail("PartitionDataset: " + parts.status().ToString());

  double train_s = 0.0;
  if (cfg.pq.enabled) {
    // Residual sample: the first train_sample_cap residuals in cluster order
    // (the engine uses a seeded reservoir; the training cost is the same).
    const uint32_t dim = ds_.base.dim();
    std::vector<float> samples;
    for (uint32_t c = 0; c < parts.value().clusters.size() &&
                         samples.size() < size_t{cfg.pq.train_sample_cap} * dim; ++c) {
      const std::span<const float> center = meta.value().index().vector(c);
      const HnswIndex& members = parts.value().clusters[c].index;
      for (uint32_t l = 0; l < members.size() && samples.size() < size_t{cfg.pq.train_sample_cap} * dim; ++l) {
        const std::span<const float> v = members.vector(l);
        for (uint32_t d = 0; d < dim; ++d) samples.push_back(v[d] - center[d]);
      }
    }
    t = NowNs();
    Result<ProductQuantizer> pq = ProductQuantizer::Train(dim, cfg.pq.m, samples,
                                                          cfg.pq.train_iterations, cfg.pq.seed);
    train_s = SecondsSince(t);
    if (!pq.ok()) return Fail("ProductQuantizer::Train: " + pq.status().ToString());
    meta.value().set_quantizer(std::move(pq).value());
  }
  layer_.Set("build.pq_train_s", train_s, "s");

  rdma::Fabric fabric(cfg.nic, rdma::TransportOptions::Sim());
  MemoryNode memory(&fabric);
  t = NowNs();
  const Status st = memory.Provision(meta.value(), parts.value().clusters, cfg.layout, 0, 1,
                                     cfg.build_threads);
  layer_.Set("build.provision_s", SecondsSince(t), "s");
  if (!st.ok()) Fail("MemoryNode::Provision: " + st.ToString());
}

void Runner::ClosedLoop(DhnswEngine& engine) {
  ComputeNode& node = engine.compute(0);
  const size_t nbatches = ds_.queries.size() / w_.batch;
  std::vector<double> batch_ms;
  uint64_t queries = 0;
  const RegistryCounters reg0 = RegistryCounters::Now();
  const rdma::QpStats qp0 = node.qp_stats();
  const uint64_t start = NowNs();
  for (size_t i = 0; SecondsSince(start) < args_.seconds; ++i) {
    const size_t begin = (i % nbatches) * w_.batch;
    const uint64_t t = NowNs();
    Result<BatchResult> r = node.SearchBatch(ds_.queries, begin, w_.batch, kTopK, kEfSearch);
    batch_ms.push_back(static_cast<double>(NowNs() - t) / 1e6);
    attempted_ += w_.batch;
    queries += w_.batch;
    if (!r.ok()) {
      failed_ += w_.batch;
      continue;
    }
    for (size_t q = 0; q < w_.batch; ++q) {
      // Search is deterministic, so every repeat of a batch must return the
      // probe pass's ids whatever the cache held.
      if (!r.value().statuses[q].ok() || !SameIds(r.value().results[q], reference_[begin + q])) {
        ++failed_;
      }
    }
  }
  const double elapsed = SecondsSince(start);
  const RegistryCounters reg = RegistryCounters::Now() - reg0;
  const rdma::QpStats qp = node.qp_stats() - qp0;

  // A query waits for its whole batch, so a closed-loop query's latency is
  // its batch's and the batches are the independent samples. A p99 needs
  // 1000 of them to leave ten beyond it; with fewer, latency_us.p99 falls
  // back to the tail rule and the detail line records the percentile used.
  std::vector<double> query_us;
  query_us.reserve(batch_ms.size());
  for (double ms : batch_ms) query_us.push_back(ms * 1e3);
  const TailPoint tail = TailPercentile(batch_ms);
  const TailPoint p99 = TailPercentile(query_us, 99.0);
  // One caller, so throughput is the batch size over the batch time. The
  // median batch sets it: a stretch of the window in which the host ran slow
  // moves the mean, not the median.
  const double median_ms = Median(batch_ms);
  e2e_.Set("qps", Ratio(w_.batch * 1e3, median_ms), "1/s");
  e2e_.Set("batch_ms.p50", median_ms, "ms");
  e2e_.Set("batch_ms.tail", tail.value, "ms");
  e2e_.Set("latency_us.p50", Median(query_us), "us");
  e2e_.Set("latency_us.p99", p99.value, "us");
  detail_.Num("batch_ms.tail_percentile", tail.percentile);
  detail_.Num("batch_ms.samples", static_cast<double>(tail.samples));
  detail_.Num("latency_us.p99_percentile", p99.percentile);
  detail_.Num("latency_us.samples", static_cast<double>(p99.samples));
  detail_.Num("window_s", elapsed);
  detail_.Num("window_qps", static_cast<double>(queries) / elapsed);
  WindowLayerMetrics(reg, qp, static_cast<double>(queries));
}

void Runner::OpenLoop(DhnswEngine& engine) {
  ComputePoolOptions popts;
  popts.dispatch = DispatchPolicy::kLeastLoaded;
  popts.k = kTopK;
  popts.ef_search = kEfSearch;
  ComputePool pool(engine.compute_nodes(), popts);

  WorkloadGenOptions g;
  g.seed = args_.seed * 0x9E3779B97F4A7C15ULL + 1;
  g.target_qps = w_.offered_qps;
  g.arrivals = ArrivalProcess::kPoisson;
  g.zipf_s = 1.1;
  g.read_fraction = 0.9;
  g.first_insert_id = engine.next_global_id();

  // Warm-up: one second of search-only traffic so the caches hold the hot
  // topics before the measured window. Not measured, not checked.
  {
    WorkloadGenOptions warm = g;
    warm.seed = g.seed + 7;
    warm.read_fraction = 1.0;
    warm.num_ops = static_cast<size_t>(w_.offered_qps);
    const std::vector<WorkloadOp> ops = WorkloadGenerator(ds_.base, warm).Generate();
    pool.Run(ops, PoolRunMode::kPaced);
  }

  g.num_ops = static_cast<size_t>(std::llround(w_.offered_qps * args_.seconds));
  WorkloadGenerator gen(ds_.base, g);
  std::vector<WorkloadOp> ops = gen.Generate();
  // Condition the Poisson process on its count: stretch the arrivals so the
  // last one falls at the end of the window. The offered rate is then exactly
  // num_ops / seconds on every seed, so qps does not inherit the arrival
  // count's sampling noise.
  if (!ops.empty() && ops.back().arrival_ns > 0) {
    const double scale = args_.seconds * 1e9 / static_cast<double>(ops.back().arrival_ns);
    for (WorkloadOp& op : ops) {
      op.arrival_ns = static_cast<uint64_t>(static_cast<double>(op.arrival_ns) * scale);
    }
  }
  std::vector<OpOutcome> outcomes;
  const RegistryCounters reg0 = RegistryCounters::Now();
  const rdma::QpStats qp0 = SumQpStats(engine);
  const PoolRunStats stats = pool.Run(ops, PoolRunMode::kPaced, &outcomes);
  const RegistryCounters reg = RegistryCounters::Now() - reg0;
  const rdma::QpStats qp = SumQpStats(engine) - qp0;

  std::vector<double> search_us, service_ms, queue_us, service_us, insert_us;
  uint64_t ok = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const OpOutcome& o = outcomes[i];
    ++attempted_;
    if (o.dropped || !o.status.ok()) {
      ++failed_;
      continue;
    }
    ++ok;
    const double total_us = static_cast<double>(o.total_wall_ns) / 1e3;
    const double svc_us = static_cast<double>(o.total_wall_ns - o.queue_wall_ns) / 1e3;
    queue_us.push_back(static_cast<double>(o.queue_wall_ns) / 1e3);
    service_us.push_back(svc_us);
    if (ops[i].kind == WorkloadOp::Kind::kSearch) {
      search_us.push_back(total_us);
      service_ms.push_back(svc_us / 1e3);
    } else {
      insert_us.push_back(total_us);
      acked_inserts_.emplace_back(ops[i].global_id, ops[i].vector);
    }
  }

  const TailPoint tail = TailPercentile(service_ms, 99.0);
  const TailPoint p99 = TailPercentile(search_us, 99.0);
  e2e_.Set("qps", static_cast<double>(ok) / stats.wall_seconds, "1/s");
  e2e_.Set("batch_ms.p50", Median(service_ms), "ms");
  e2e_.Set("batch_ms.tail", tail.value, "ms");
  e2e_.Set("latency_us.p50", Median(search_us), "us");
  e2e_.Set("latency_us.p99", p99.value, "us");
  detail_.Num("batch_ms.tail_percentile", tail.percentile);
  detail_.Num("batch_ms.samples", static_cast<double>(tail.samples));
  detail_.Num("latency_us.p99_percentile", p99.percentile);
  detail_.Num("latency_us.samples", static_cast<double>(p99.samples));
  // Pool insert sojourn, for reference: its median sits where inserts stop
  // finding an idle node and start queueing behind searches, so it swings
  // with the load's exact mix and is not used for insert_us.p50.
  detail_.Num("pool_insert_sojourn_us.samples", static_cast<double>(insert_us.size()));
  for (double q : {25.0, 50.0, 75.0, 99.0}) {
    detail_.Num("pool_insert_sojourn_us.p" + std::to_string(static_cast<int>(q)),
                Percentile(insert_us, q));
  }
  detail_.Num("offered_qps", stats.offered_qps);
  detail_.Num("dropped", static_cast<double>(stats.dropped()));
  detail_.Num("window_s", stats.wall_seconds);

  const double span_ms = ops.empty() ? 0.0 : static_cast<double>(ops.back().arrival_ns) / 1e6;
  double max_ops = 0.0, sum_ops = 0.0;
  for (uint64_t n : stats.per_node_ops) {
    max_ops = std::max(max_ops, static_cast<double>(n));
    sum_ops += static_cast<double>(n);
  }
  layer_.Set("pool.queue_us.p50", Median(queue_us), "us");
  layer_.Set("pool.queue_us.p99", Percentile(queue_us, 99.0), "us");
  layer_.Set("pool.service_us.p50", Median(service_us), "us");
  layer_.Set("pool.service_us.p99", Percentile(service_us, 99.0), "us");
  layer_.Set("pool.node_imbalance",
             Ratio(max_ops, sum_ops / static_cast<double>(stats.per_node_ops.size())), "ratio");
  layer_.Set("pool.dispatch_lag_ms", stats.wall_seconds * 1e3 - span_ms, "ms");
  WindowLayerMetrics(reg, qp, static_cast<double>(reg.queries));
}

void Runner::WindowLayerMetrics(const RegistryCounters& reg, const rdma::QpStats& qp,
                                double queries) {
  const double unique = static_cast<double>(reg.hits + reg.misses);
  layer_.Set("rdma.round_trips_per_query", Ratio(qp.round_trips, queries), "count");
  layer_.Set("rdma.bytes_per_query", Ratio(qp.bytes_read, queries), "B");
  layer_.Set("rdma.wrs_per_ring", Ratio(qp.work_requests, qp.round_trips), "count");
  layer_.Set("rdma.retries", static_cast<double>(reg.retries), "count");
  layer_.Set("rdma.sim_network_us_per_query", Ratio(qp.sim_network_ns / 1e3, queries), "us");
  layer_.Set("compute.cache_hit_rate", Ratio(reg.hits, unique), "ratio");
  layer_.Set("compute.loads_per_query", Ratio(reg.loads, queries), "count");
  layer_.Set("compute.rerank_reads_per_query", Ratio(reg.rerank_reads, queries), "count");
  layer_.Set("compute.rerank_bytes_per_query", Ratio(reg.rerank_bytes, queries), "B");
  layer_.Set("scheduler.unique_clusters_per_batch", Ratio(unique, reg.batches), "count");
  layer_.Set("scheduler.dedup_ratio", Ratio(unique, queries * kClustersPerQuery), "ratio");
}

void Runner::InsertPhase(DhnswEngine& engine,
                         std::vector<std::pair<uint32_t, std::vector<float>>>* acked) {
  // A shared host's speed changes from one fraction of a second to the next,
  // and a round of inserts takes under a millisecond, so each round sees one
  // state of the host. Many short rounds a pause apart, pooled into one
  // median, see many states instead of a few.
  constexpr auto kPause = std::chrono::milliseconds(75);
  ComputeNode& node = engine.compute(0);
  std::mt19937_64 rng(args_.seed ^ 0x1A5E57ULL);
  std::normal_distribution<float> noise(0.0f, 2.0f);
  const rdma::QpStats qp0 = node.qp_stats();
  std::vector<double> service_us;
  uint32_t id = engine.next_global_id();
  for (uint32_t round = 0; round < w_.insert_rounds; ++round) {
    std::this_thread::sleep_for(kPause);
    for (uint32_t i = 0; i < w_.insert_per_round; ++i, ++id) {
      const std::span<const float> row = ds_.base[rng() % ds_.base.size()];
      std::vector<float> v(row.begin(), row.end());
      for (float& x : v) x += noise(rng);
      const uint64_t t = NowNs();
      Result<InsertReceipt> r = node.Insert(v, id);
      service_us.push_back(static_cast<double>(NowNs() - t) / 1e3);
      ++attempted_;
      if (!r.ok()) {
        ++failed_;
        continue;
      }
      acked->emplace_back(id, std::move(v));
    }
  }
  const rdma::QpStats qp = node.qp_stats() - qp0;
  e2e_.Set("insert_us.p50", Median(service_us), "us");
  layer_.Set("compute.insert_us", Median(service_us), "us");
  layer_.Set("compute.insert_round_trips",
             Ratio(qp.round_trips, static_cast<double>(service_us.size())), "count");
  detail_.Num("insert_us.samples", static_cast<double>(service_us.size()));
  detail_.Num("insert_us.p25", Percentile(service_us, 25.0));
  detail_.Num("insert_us.p75", Percentile(service_us, 75.0));
}

void Runner::ReadYourWrites(DhnswEngine& engine,
                            const std::vector<std::pair<uint32_t, std::vector<float>>>& acked) {
  // Every acknowledged insert must come back at top-1 when its own vector is
  // searched: it is the only stored vector at distance 0.
  if (acked.empty()) return;
  VectorSet probes(ds_.base.dim());
  for (const auto& [id, v] : acked) probes.Append(v);
  Result<BatchResult> r = engine.compute(0).SearchAll(probes, 1, kEfSearch);
  uint64_t missing = 0;
  for (size_t i = 0; i < acked.size(); ++i) {
    if (!r.ok() || r.value().results[i].empty() || r.value().results[i][0].id != acked[i].first) {
      ++missing;
    }
  }
  attempted_ += acked.size();
  failed_ += missing;
  ryw_checked_ += acked.size();
  if (missing > 0) Fail(std::to_string(missing) + " acked inserts not found at top-1");
}

void Runner::Replay(DhnswEngine& engine) {
  SpanRecorder rec;
  Replayer replayer(&engine.fabric(), engine.memory_handle());
  ComputeNode& node = engine.compute(0);
  const size_t batch = w_.open_loop ? 1 : w_.batch;
  const size_t total_batches = ds_.queries.size() / batch;
  const size_t step = std::max<size_t>(1, total_batches / w_.replay_batches);
  uint64_t ref_ns = 0, replay_ns = 0, queries = 0, decoded = 0, rings = 0, unique = 0;
  size_t replayed = 0, diverged = 0;
  std::map<std::string, double> layer_ms;
  for (size_t i = 0; i < w_.replay_batches && i * step < total_batches; ++i) {
    const auto request = static_cast<uint32_t>(i + 1);
    const ReplayOutcome o = replayer.Run(node, ds_.queries, i * step * batch, batch, kTopK,
                                         kEfSearch, request, &rec);
    if (!o.error.empty()) Fail("replay: " + o.error);
    if (!o.matched) ++diverged;
    ++replayed;
    ref_ns += o.reference_wall_ns;
    replay_ns += o.replay_wall_ns;
    queries += o.queries;
    decoded += o.clusters_decoded;
    rings += o.rings;
    unique += o.unique_clusters;
    for (const auto& [layer, ns] : rec.LayerSelfNs(request)) layer_ms[layer] += ns / 1e6;
  }
  if (diverged > 0) Fail(std::to_string(diverged) + " replayed batches diverged from SearchBatch");
  const double n = static_cast<double>(std::max<size_t>(replayed, 1));

  double attributed_ms = 0.0;
  for (const char* layer : {"meta", "scheduler", "rdma", "serialize", "index", "compute"}) {
    layer_.Set(std::string("trace.self_ms.") + layer, layer_ms[layer] / n, "ms");
    attributed_ms += layer_ms[layer];
  }
  const double ref_ms = static_cast<double>(ref_ns) / 1e6;
  layer_.Set("trace.coverage", Ratio(attributed_ms, ref_ms), "ratio");
  layer_.Set("trace.unattributed_ms", (ref_ms - attributed_ms) / n, "ms");
  layer_.Set("trace.glue_ms", (layer_ms["replay"] + layer_ms["probe"]) / n, "ms");
  layer_.Set("trace.overhead", Ratio(static_cast<double>(replay_ns), static_cast<double>(ref_ns)),
             "ratio");
  layer_.Set("trace.replayed_batches", static_cast<double>(replayed), "count");
  layer_.Set("trace.diverged_batches", static_cast<double>(diverged), "count");

  uint64_t cnt = 0, inst = 0;
  layer_.Set("meta.route_us", Ratio(rec.TotalNs("meta.route") / 1e3, queries), "us");
  layer_.Set("scheduler.plan_us", rec.TotalNs("scheduler.plan") / 1e3 / n, "us");
  const uint64_t ring_ns = rec.TotalNs("rdma.ring", nullptr, &inst);
  layer_.Set("rdma.ring_us", Ratio(ring_ns / 1e3, inst), "us");
  const uint64_t crc_ns = rec.TotalNs("probe.crc", &cnt);
  layer_.Set("serialize.crc_us_per_mb", Ratio(crc_ns / 1e3, cnt / 1e6), "us/MB");
  layer_.Set("serialize.decode_us_per_cluster",
             Ratio(rec.TotalNs("serialize.decode") / 1e3, decoded), "us");
  layer_.Set("serialize.clusters_decoded_per_query", Ratio(decoded, queries), "count");
  const uint64_t sub_ns = rec.TotalNs("index.sub_search", nullptr, &inst);
  layer_.Set("index.sub_search_us", Ratio(sub_ns / 1e3, inst), "us");
  const uint64_t adc_ns = rec.TotalNs("index.adc_search", nullptr, &inst);
  layer_.Set("index.adc_search_us", Ratio(adc_ns / 1e3, inst), "us");
  layer_.Set("compute.merge_us", rec.TotalNs("compute.merge") / 1e3 / n, "us");
  layer_.Set("compute.rerank_us", rec.TotalNs("replay.rerank") / 1e3 / n, "us");
  detail_.Num("replay.rings", static_cast<double>(rings));
  detail_.Num("replay.unique_clusters", static_cast<double>(unique));

  // Round trips the same probe pass needs with raw payloads on this very
  // deployment (PQ regions keep the raw rows), for the re-rank comparison.
  if (w_.pq_rerank) {
    ComputeOptions raw_options = node.options();
    raw_options.payload = PayloadMode::kRaw;
    ComputeNode raw(&engine.fabric(), engine.memory_handle(), raw_options, "raw-probe");
    if (const Status st = raw.Connect(); !st.ok()) {
      Fail("raw probe Connect: " + st.ToString());
    } else {
      std::vector<std::vector<Scored>> unused;
      const ProbeCounters c = ProbePass(raw, &unused);
      detail_.Num("raw_payload.round_trips", static_cast<double>(c.round_trips));
      detail_.Num("raw_payload.bytes_read", static_cast<double>(c.bytes_read));
    }
  }

  // Metadata refresh, timed directly through the public entry point.
  std::vector<double> refresh_us;
  for (int i = 0; i < 20; ++i) {
    const uint64_t t = NowNs();
    if (!node.RefreshMetadata().ok()) Fail("RefreshMetadata failed");
    refresh_us.push_back(static_cast<double>(NowNs() - t) / 1e3);
  }
  layer_.Set("compute.refresh_us", Median(refresh_us), "us");

  std::filesystem::create_directories(args_.out_dir + "/traces");
  const std::string path = args_.out_dir + "/traces/" + w_.name + "-seed" +
                           std::to_string(args_.seed) + ".jsonl";
  if (!rec.WriteJsonLines(path)) Fail("cannot write " + path);
  detail_.Str("trace_file", path);
}

int Runner::Run() {
  const uint64_t run_start = NowNs();
  // Inputs. The base set is a fixed SIFT-shaped corpus, as a benchmark
  // dataset is; --seed draws the queries from a ten-times larger pool of the
  // same distribution (and, in the open loop, the operation stream). Holding
  // the corpus fixed keeps seed-to-seed differences down to the traffic, so
  // the spread across seeds measures the system rather than the partitioning
  // luck of one generated corpus.
  Dataset corpus = MakeSiftLike(w_.num_base, w_.num_queries * kQueryPoolFactor, kCorpusSeed);
  ds_.base = std::move(corpus.base);
  ds_.queries = SampleRows(corpus.queries, w_.num_queries, args_.seed);
  const uint64_t fingerprint = InputFingerprint(ds_);
  if (Fnv1a(SampleRows(corpus.queries, w_.num_queries, args_.seed + 1).flat()) ==
      Fnv1a(ds_.queries.flat())) {
    Fail("seed+1 drew the same queries");
  }
  ComputeGroundTruth(&ds_, kTopK, Metric::kL2, threads_);
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016" PRIx64, fingerprint);
  detail_.Str("input_fingerprint", fp);

  const DhnswConfig cfg = Config();
  std::vector<double> setup_s;
  std::optional<DhnswEngine> engine;
  std::optional<ProbeCounters> first;
  for (uint32_t r = 0; r < w_.setup_repeats; ++r) {
    engine.reset();
    const uint64_t t = NowNs();
    Result<DhnswEngine> built = DhnswEngine::Build(ds_.base, cfg);
    setup_s.push_back(SecondsSince(t));
    if (!built.ok()) {
      Fail("DhnswEngine::Build: " + built.status().ToString());
      break;
    }
    engine.emplace(std::move(built).value());
    // Deterministic probe: same seed -> same region -> same counters and ids
    // on every build. It also warms the node before the measured window.
    std::vector<std::vector<Scored>> results;
    const ProbeCounters c = ProbePass(engine->compute(0), &results);
    if (!first.has_value()) {
      first = c;
      reference_ = std::move(results);
    } else {
      if (!(c == *first)) Fail("probe counters differ between same-seed builds");
      for (size_t q = 0; q < results.size(); ++q) {
        if (!SameIds(results[q], reference_[q])) {
          Fail("probe results differ between same-seed builds");
          break;
        }
      }
    }
    // The inserts go to the last build that is discarded, so they meet the
    // same fresh region on every workload and the window does not see them.
    if (r + 2 == w_.setup_repeats) {
      std::vector<std::pair<uint32_t, std::vector<float>>> acked;
      InsertPhase(*engine, &acked);
      ReadYourWrites(*engine, acked);
    }
  }
  if (!engine.has_value() || !first.has_value()) {
    std::fprintf(stderr, "perfbench: setup failed\n");
    return 1;
  }
  e2e_.Set("setup_s", Median(setup_s), "s");
  detail_.Num("setup_repeats", static_cast<double>(setup_s.size()));

  // Recall of the probe pass against exact ground truth (closed loop). The
  // open loop measures it after its run, against base + acked inserts.
  double recall = w_.open_loop ? 0.0 : MeanRecallAtK(ds_, reference_, kTopK);

  if (args_.trace == 1) TimeBuildStages(cfg);
  if (w_.open_loop) {
    OpenLoop(*engine);
  } else {
    ClosedLoop(*engine);
  }
  ReadYourWrites(*engine, acked_inserts_);
  detail_.Num("read_your_writes.checked", static_cast<double>(ryw_checked_));

  if (w_.open_loop) {
    Dataset grown;
    grown.base = ds_.base;
    grown.queries = ds_.queries;
    std::sort(acked_inserts_.begin(), acked_inserts_.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    for (const auto& [id, v] : acked_inserts_) {
      if (id != grown.base.size()) {
        Fail("insert ids are not dense; recall ground truth would be misaligned");
        break;
      }
      grown.base.Append(v);
    }
    ComputeGroundTruth(&grown, kTopK, Metric::kL2, threads_);
    Result<BatchResult> r = engine->compute(0).SearchAll(grown.queries, kTopK, kEfSearch);
    if (!r.ok()) {
      Fail("open-loop recall SearchAll: " + r.status().ToString());
    } else {
      recall = MeanRecallAtK(grown, r.value().results, kTopK);
    }
  }
  e2e_.Set("recall_at_10", recall, "ratio");
  detail_.Num("recall_floor", w_.recall_floor);
  if (recall < w_.recall_floor) Fail("recall below the workload's floor");
  if (failed_ > 0) Fail(std::to_string(failed_) + " failed operations");

  if (args_.trace == 1) {
    Replay(*engine);
    layer_.Set("counters.round_trips", static_cast<double>(first->round_trips), "count");
    layer_.Set("counters.bytes_read", static_cast<double>(first->bytes_read), "B");
    layer_.Set("counters.clusters_loaded", static_cast<double>(first->clusters_loaded), "count");
    layer_.Set("counters.cache_hits", static_cast<double>(first->cache_hits), "count");
    layer_.Set("counters.unique_clusters", static_cast<double>(first->unique_clusters), "count");
    layer_.Set("counters.rerank_reads", static_cast<double>(first->rerank_reads), "count");
    // The closed loops run no ComputePool; their pool metrics read 0.
    if (!w_.open_loop) {
      const std::pair<const char*, const char*> pool_metrics[] = {
          {"pool.queue_us.p50", "us"},   {"pool.queue_us.p99", "us"},
          {"pool.service_us.p50", "us"}, {"pool.service_us.p99", "us"},
          {"pool.node_imbalance", "ratio"}, {"pool.dispatch_lag_ms", "ms"}};
      for (const auto& [name, unit] : pool_metrics) layer_.Set(name, 0.0, unit);
    }
  }
  e2e_.Set("peak_rss_mb", PeakRssMb(), "MB");

  detail_.Str("workload", w_.name);
  detail_.Num("seed", static_cast<double>(args_.seed));
  detail_.Str("scale", args_.tiny ? "tiny" : "full");
  detail_.Str("simd_tier", std::string(SimdTierName(ActiveTier())));
  detail_.Str("transport", std::string(engine->fabric().transport().name()));
  detail_.Str("nic_source", engine->fabric().nic_config().source);
  detail_.Str("build_type", DHNSW_PERF_BUILD_TYPE);
  detail_.Num("hardware_threads", threads_);
  detail_.Num("idle_pollers", static_cast<double>(idle_pollers_));
  detail_.Num("counters.round_trips", static_cast<double>(first->round_trips));
  detail_.Num("counters.bytes_read", static_cast<double>(first->bytes_read));
  detail_.Num("counters.clusters_loaded", static_cast<double>(first->clusters_loaded));
  detail_.Num("counters.cache_hits", static_cast<double>(first->cache_hits));
  detail_.Num("counters.unique_clusters", static_cast<double>(first->unique_clusters));
  detail_.Num("counters.rerank_reads", static_cast<double>(first->rerank_reads));
  detail_.Num("error_rate", Ratio(failed_, attempted_));
  detail_.Num("run_wall_s", SecondsSince(run_start));
  detail_.Bool("correct", correct_);

  std::printf("PERFBENCH_DETAIL %s\n", detail_.Json().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              correct_ ? "true" : "false", attempted_, failed_,
              (args_.trace == 1 ? layer_ : e2e_).Json().c_str());
  std::fflush(stdout);
  return correct_ ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: dhnsw_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>"
                 " [--scale full|tiny] [--out <dir>]\n");
    return 2;
  }
  const auto& table = args.tiny ? kTiny : kFull;
  for (const Workload& w : table) {
    if (args.workload != w.name) continue;
    const IdlePoller poller;
    return Runner(w, args, poller.size()).Run();
  }
  std::fprintf(stderr, "dhnsw_perf: unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
