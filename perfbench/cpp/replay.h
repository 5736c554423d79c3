// Traced replay of one ComputeNode::SearchBatch through the library's public
// layer calls, in the order SearchBatch runs them:
//   metadata refresh -> meta routing (MetaHnsw::RouteManyScored) -> wave plan
//   (PlanBatch) -> post + ring the cluster READs (QueuePair) -> decode
//   (DecodeCluster / DecodePqCluster / DecodeOverflowArea) -> sub-search
//   (HnswIndex::Search / SearchPqCluster) -> re-rank reads -> top-k merge.
// Each call is wrapped in a span named "<layer>.<stage>". Work the replay has
// to redo in its own code because the library exposes no entry point for it
// (the overflow scan, the re-rank fetch bookkeeping, heap glue) is recorded
// under the "replay" layer and counts as unattributed. "probe" spans time
// extra work that SearchBatch does not do separately (a standalone CRC pass),
// and are excluded from attribution as well.
#pragma once

#include <cstdint>

#include "common/sim_clock.h"
#include "common/status.h"
#include "core/compute_node.h"
#include "core/memory_layout.h"
#include "core/memory_node.h"
#include "rdma/fabric.h"
#include "rdma/queue_pair.h"
#include "spans.h"

namespace perfbench {

struct ReplayOutcome {
  bool matched = false;           ///< replay top-k ids == SearchBatch ids
  std::string error;              ///< set when the replay or reference failed
  uint64_t reference_wall_ns = 0; ///< untraced SearchBatch on an empty cache
  uint64_t replay_wall_ns = 0;    ///< traced replay of the same batch
  uint64_t queries = 0;
  uint64_t work_items = 0;        ///< (query, cluster) sub-searches
  uint64_t unique_clusters = 0;   ///< from the replay's PlanBatch
  uint64_t clusters_decoded = 0;
  uint64_t rings = 0;             ///< doorbell round trips the replay issued
};

class Replayer {
 public:
  /// Opens a queue pair of its own on `fabric` towards the region behind
  /// `handle`.
  Replayer(dhnsw::rdma::Fabric* fabric, dhnsw::MemoryNodeHandle handle);

  /// Runs `node.SearchBatch` on an emptied cache (the reference), then the
  /// traced replay of the same batch from an empty cache, and compares ids.
  /// `node` supplies the options and the cached meta-HNSW to mirror.
  ReplayOutcome Run(dhnsw::ComputeNode& node, const dhnsw::VectorSet& queries,
                    size_t begin, size_t count, size_t k, uint32_t ef,
                    uint32_t request, SpanRecorder* rec);

 private:
  dhnsw::Status RefreshTable(uint32_t request, SpanRecorder* rec);

  dhnsw::MemoryNodeHandle handle_;
  dhnsw::SimClock clock_;
  dhnsw::rdma::QueuePair qp_;
  dhnsw::RegionHeader header_;
  std::vector<dhnsw::ClusterMeta> table_;
};

}  // namespace perfbench
