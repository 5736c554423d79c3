// Decode-executor differential suite: each load round's READs decode across
// the batch's search threads (ComputeNode::RunLoadRounds via RunChunked),
// and the owner thread then installs the results in posted order. Which
// thread decodes a cluster is a wall-clock-only effect — every fabric op,
// fault decision, retry, cache mutation and simulated timestamp must be
// BIT-IDENTICAL for every search_threads value. These tests replay the same
// seeded chaos batches on one thread and on the pool and compare everything
// observable.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "chaos_harness.h"
#include "telemetry/trace.h"

namespace dhnsw {
namespace {

constexpr size_t kPoolThreads = 3;

struct Observed {
  BatchResult result;
  uint64_t sim_ns = 0;
  uint64_t round_trips = 0;
  uint64_t injected_faults = 0;
  uint64_t backoff_ns = 0;
  size_t cache_size = 0;
  std::vector<uint32_t> cached;  ///< resident cluster ids, ascending
  bool matches_oracle = false;   ///< same answers as the fault-free baseline
};

Observed ObserveNode(ChaosHarness& h, BatchResult result) {
  ComputeNode& node = h.engine().compute(0);
  Observed obs;
  obs.result = std::move(result);
  obs.sim_ns = node.clock().now_ns();
  obs.round_trips = node.qp_stats().round_trips;
  obs.injected_faults = node.qp_stats().injected_faults;
  obs.backoff_ns = obs.result.breakdown.backoff_ns;
  obs.cache_size = node.cache_size();
  for (uint32_t c = 0; c < h.config().num_clusters; ++c) {
    if (node.IsCached(c)) obs.cached.push_back(c);
  }
  obs.matches_oracle = SameResults(h.baseline(), obs.result);
  return obs;
}

void ExpectIdentical(const Observed& a, const Observed& b, const std::string& what) {
  EXPECT_TRUE(SameResults(a.result, b.result)) << what;
  EXPECT_EQ(a.sim_ns, b.sim_ns) << what;
  EXPECT_EQ(a.round_trips, b.round_trips) << what;
  EXPECT_EQ(a.injected_faults, b.injected_faults) << what;
  EXPECT_EQ(a.backoff_ns, b.backoff_ns) << what;
  EXPECT_EQ(a.result.breakdown.retries, b.result.breakdown.retries) << what;
  EXPECT_EQ(a.result.breakdown.failed_loads, b.result.breakdown.failed_loads) << what;
  EXPECT_EQ(a.result.breakdown.clusters_loaded, b.result.breakdown.clusters_loaded) << what;
  EXPECT_EQ(a.result.breakdown.bytes_read, b.result.breakdown.bytes_read) << what;
  EXPECT_EQ(a.cache_size, b.cache_size) << what;
  EXPECT_EQ(a.cached, b.cached) << what;
  ASSERT_EQ(a.result.statuses.size(), b.result.statuses.size()) << what;
  for (size_t qi = 0; qi < a.result.statuses.size(); ++qi) {
    EXPECT_EQ(a.result.statuses[qi].ToString(), b.result.statuses[qi].ToString())
        << what << " query " << qi;
  }
}

/// Payload bit-flips only, on cluster READs: the READs themselves always
/// complete, so every retry this plan causes is a CRC failure that a decode
/// found. The trigger budget is bounded, so the batch converges.
rdma::FaultPlan BitFlipPlan(ChaosHarness& h) {
  uint64_t blob_area = UINT64_MAX;
  for (const ClusterMeta& e : h.engine().memory_node()->plan().entries) {
    blob_area = std::min(blob_area, e.blob_offset);
  }
  rdma::FaultRule rule;
  rule.kind = rdma::FaultKind::kBitFlip;
  rule.opcode = rdma::Opcode::kRead;
  rule.offset_lo = blob_area;
  rule.skip_first = 1;
  rule.every_nth = 2;
  rule.max_triggers = 3;
  rule.bit_flips = 2;
  return rdma::FaultPlan(77).Add(rule);
}

enum class Plan { kTransient, kBitFlip };

Observed RunTransient(Plan which, size_t search_threads) {
  ChaosHarness h({.transport = rdma::TransportOptions::Sim()});
  h.engine().compute(0).mutable_options()->search_threads = search_threads;
  RetryPolicy retry = RetryPolicy::Default();
  retry.max_attempts = ChaosHarness::kTransientTriggerBudget + 4;
  const rdma::FaultPlan plan =
      which == Plan::kTransient ? h.MakeTransientPlan(31) : BitFlipPlan(h);
  auto run = h.RunUnderPlan(plan, retry, /*partial_results=*/false);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return ObserveNode(h, std::move(run).value());
}

const char* PlanName(Plan which) {
  return which == Plan::kTransient ? "transient" : "bit-flip";
}

// The headline contract: decoding on the pool is indistinguishable from
// decoding inline, even while transient faults fire — including payload
// bit-flips whose CRC failure is found by a decode on a pool thread and
// healed by a re-read.
TEST(DecodeExecutorTest, BitIdenticalAcrossThreadsUnderTransientFaults) {
  for (Plan which : {Plan::kTransient, Plan::kBitFlip}) {
    const std::string plan_name = PlanName(which);
    const Observed inline_run = RunTransient(which, 1);
    ASSERT_GT(inline_run.injected_faults, 0u) << plan_name << ": the plan never fired";
    if (which == Plan::kBitFlip) {
      EXPECT_GT(inline_run.result.breakdown.retries, 0u)
          << "no decode found the flipped bits";
    }
    for (size_t threads : {kPoolThreads, size_t{0}}) {
      ExpectIdentical(inline_run, RunTransient(which, threads),
                      plan_name + ", threads 1 vs " + std::to_string(threads));
    }
  }
}

// Transient faults striking clusters that a pool thread decodes must heal on
// the shared retry machinery: with a budget that outlasts the plan's trigger
// budget, every executor converges to the fault-free oracle.
TEST(DecodeExecutorTest, TransientFaultsOnPooledDecodeConverge) {
  for (Plan which : {Plan::kTransient, Plan::kBitFlip}) {
    for (size_t threads : {size_t{1}, kPoolThreads, size_t{0}}) {
      const std::string what =
          std::string(PlanName(which)) + ", threads " + std::to_string(threads);
      const Observed run = RunTransient(which, threads);
      EXPECT_GT(run.injected_faults, 0u) << what;
      EXPECT_TRUE(run.matches_oracle) << what;
      for (const Status& st : run.result.statuses) {
        EXPECT_TRUE(st.ok()) << what << ": " << st.ToString();
      }
    }
  }
}

// Permanent outage of one cluster: graceful degradation (per-query statuses,
// candidates kept from healthy clusters) must be identical on every executor.
TEST(DecodeExecutorTest, PermanentFailureDegradationParity) {
  auto run_permanent = [](size_t search_threads) {
    ChaosHarness h({.transport = rdma::TransportOptions::Sim()});
    h.engine().compute(0).mutable_options()->search_threads = search_threads;
    uint32_t victim = 0;
    auto run = h.RunUnderPlan(h.MakePermanentPlan(&victim), RetryPolicy::Default(),
                              /*partial_results=*/true);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    Observed obs = ObserveNode(h, std::move(run).value());
    EXPECT_GT(obs.result.breakdown.failed_loads, 0u);
    return obs;
  };
  ExpectIdentical(run_permanent(1), run_permanent(kPoolThreads), "permanent degradation");
}

// Without partial_results a permanent failure fails the whole batch, and the
// failed round must leave no WR or completion behind: a follow-up fault-free
// batch on the SAME node returns the oracle's answers.
TEST(DecodeExecutorTest, FailedStrictBatchLeavesQueuePairClean) {
  for (size_t threads : {size_t{1}, kPoolThreads}) {
    ChaosHarness h({.transport = rdma::TransportOptions::Sim()});
    h.engine().compute(0).mutable_options()->search_threads = threads;
    uint32_t victim = 0;
    auto failing = h.RunUnderPlan(h.MakePermanentPlan(&victim), RetryPolicy::Default(),
                                  /*partial_results=*/false);
    EXPECT_FALSE(failing.ok()) << "threads " << threads;

    // RunUnderPlan clears the fabric's faults; the QP must be clean too.
    auto healthy = h.engine().SearchAll(h.dataset().queries, h.config().k,
                                        h.config().ef_search);
    ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
    EXPECT_TRUE(SameResults(h.baseline(), healthy.value())) << "threads " << threads;
    for (const Status& st : healthy.value().statuses) EXPECT_TRUE(st.ok());
  }
}

// Warm-cache behaviour probes the LRU state a batch leaves behind: the second
// identical batch must see the same hits (same resident set AND the same
// recency order driving the same evictions) whichever thread decoded.
TEST(DecodeExecutorTest, WarmCacheSecondBatchHitsMatchInline) {
  auto two_batches = [](size_t search_threads) {
    ChaosHarness h({.transport = rdma::TransportOptions::Sim()});
    ComputeNode& node = h.engine().compute(0);
    node.mutable_options()->search_threads = search_threads;
    auto first = h.engine().SearchAll(h.dataset().queries, h.config().k,
                                      h.config().ef_search);
    EXPECT_TRUE(first.ok());
    auto second = h.engine().SearchAll(h.dataset().queries, h.config().k,
                                       h.config().ef_search);
    EXPECT_TRUE(second.ok());
    return ObserveNode(h, std::move(second).value());
  };
  const Observed inline_run = two_batches(1);
  const Observed pooled = two_batches(kPoolThreads);
  ExpectIdentical(inline_run, pooled, "warm cache");
  EXPECT_EQ(inline_run.result.breakdown.cache_hits, pooled.result.breakdown.cache_hits);
  EXPECT_GT(pooled.result.breakdown.cache_hits, 0u);
}

std::string WithoutQuerySpans(const std::string& jsonl) {
  std::istringstream lines(jsonl);
  std::string out;
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"name\":\"query.") == std::string::npos) out += line + "\n";
  }
  return out;
}

// Same-seed chaos runs on the pool serialize byte-identical wall-free JSONL,
// and match the inline run except for its query.* spans (those are recorded
// by inline batches only). CI archives and byte-compares the export.
TEST(DecodeExecutorTest, TraceJsonlByteIdenticalAcrossSameSeedRuns) {
  const auto run_traced = [](size_t search_threads) {
    ChaosHarness h({.transport = rdma::TransportOptions::Sim()});
    h.engine().compute(0).mutable_options()->search_threads = search_threads;
    h.engine().EnableTracing(1 << 16);
    RetryPolicy retry = RetryPolicy::Default();
    retry.max_attempts = ChaosHarness::kTransientTriggerBudget + 4;
    auto run = h.RunUnderPlan(h.MakeTransientPlan(31), retry, false);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    const telemetry::TraceBuffer& trace = h.engine().compute(0).trace();
    EXPECT_GT(trace.size(), 0u);
    EXPECT_EQ(trace.dropped(), 0u);
    return TraceToJsonl(trace, telemetry::TraceExportOptions{.include_wall = false});
  };

  const std::string first = run_traced(kPoolThreads);
  const std::string second = run_traced(kPoolThreads);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "same-seed traces diverged";
  EXPECT_EQ(WithoutQuerySpans(run_traced(1)), WithoutQuerySpans(first))
      << "the inline trace differs beyond its query.* spans";

  EXPECT_NE(first.find("\"cluster.decode\""), std::string::npos);
  EXPECT_NE(first.find("\"stage.load\""), std::string::npos);
  EXPECT_NE(first.find("\"rdma.ring\""), std::string::npos);
  EXPECT_EQ(first.find("wall_ns"), std::string::npos);

  if (const char* dir = std::getenv("DHNSW_TRACE_ARTIFACT_DIR")) {
    const std::string path = std::string(dir) + "/decode_executor_trace_seed31.jsonl";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    ASSERT_EQ(std::fwrite(first.data(), 1, first.size(), f), first.size());
    ASSERT_EQ(std::fclose(f), 0);
  }
}

}  // namespace
}  // namespace dhnsw
