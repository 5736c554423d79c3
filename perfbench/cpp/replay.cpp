#include "replay.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "common/aligned_buffer.h"
#include "common/crc32.h"
#include "common/topk.h"
#include "core/batch_scheduler.h"
#include "index/distance.h"
#include "serialize/cluster_blob.h"
#include "serialize/overflow.h"

namespace perfbench {

using namespace dhnsw;

namespace {

/// A decoded cluster held for the duration of one wave.
struct Resident {
  std::optional<Cluster> raw;
  std::optional<PqCluster> pq;
  std::vector<OverflowRecord> overflow;  ///< live inserts
  std::vector<uint32_t> tombstones;      ///< sorted
  bool IsDeleted(uint32_t gid) const {
    return std::binary_search(tombstones.begin(), tombstones.end(), gid);
  }
};

struct Pending {
  uint32_t cluster = 0;
  AlignedBuffer buffer;
  uint64_t used = 0;
};

}  // namespace

Replayer::Replayer(rdma::Fabric* fabric, MemoryNodeHandle handle)
    : handle_(std::move(handle)), qp_(fabric, &clock_) {}

Status Replayer::RefreshTable(uint32_t request, SpanRecorder* rec) {
  if (header_.num_clusters == 0) {
    AlignedBuffer hdr(RegionHeader::kEncodedSize, 64);
    DHNSW_RETURN_IF_ERROR(qp_.Read(handle_.rkey_for_slot(0), 0, hdr.span()));
    DHNSW_ASSIGN_OR_RETURN(header_, DecodeRegionHeader(hdr.span()));
  }
  ScopedSpan refresh(rec, "compute.refresh", request);
  AlignedBuffer buf(static_cast<size_t>(header_.num_clusters) * ClusterMeta::kEncodedSize, 64);
  {
    ScopedSpan ring(rec, "rdma.ring", request);
    DHNSW_RETURN_IF_ERROR(qp_.Read(handle_.rkey_for_slot(0), header_.table_offset, buf.span()));
  }
  table_.resize(header_.num_clusters);
  for (uint32_t c = 0; c < header_.num_clusters; ++c) {
    DHNSW_ASSIGN_OR_RETURN(
        table_[c], DecodeClusterMeta(buf.subspan(static_cast<size_t>(c) * ClusterMeta::kEncodedSize,
                                                 ClusterMeta::kEncodedSize)));
  }
  return Status::Ok();
}

ReplayOutcome Replayer::Run(ComputeNode& node, const VectorSet& queries, size_t begin,
                            size_t count, size_t k, uint32_t ef, uint32_t request,
                            SpanRecorder* rec) {
  ReplayOutcome out;
  out.queries = count;
  const ComputeOptions& opt = node.options();
  if (opt.mode != EngineMode::kFull || opt.sub_search != SubSearchMode::kGraph ||
      opt.adaptive_prune_factor > 0.0 || opt.payload == PayloadMode::kPq ||
      opt.link_overflow_on_load) {
    out.error = "replay supports kFull graph search with raw or pq+rerank payloads only";
    return out;
  }

  // Reference: the real SearchBatch, untraced, from an empty cluster cache.
  node.InvalidateCache();
  const uint64_t ref_start = NowNs();
  Result<BatchResult> reference = node.SearchBatch(queries, begin, count, k, ef);
  out.reference_wall_ns = NowNs() - ref_start;
  if (!reference.ok()) {
    out.error = "reference SearchBatch: " + reference.status().ToString();
    return out;
  }

  const bool pq_mode = opt.payload == PayloadMode::kPqRerank;
  const Metric metric = opt.sub_hnsw_template.metric;
  const MetaHnsw& meta = node.meta();
  const uint32_t doorbell = std::max<uint32_t>(opt.doorbell_batch, 1);
  qp_.set_max_doorbell_wrs(doorbell);
  const uint64_t replay_start = NowNs();
  ScopedSpan batch(rec, "replay.batch", request);
  batch.set_count(count);

  if (Status st = RefreshTable(request, rec); !st.ok()) {
    out.error = "replay refresh: " + st.ToString();
    return out;
  }

  // 1. Meta routing.
  const uint32_t b = std::max<uint32_t>(opt.clusters_per_query, 1);
  std::vector<std::vector<uint32_t>> routes(count);
  {
    ScopedSpan route(rec, "meta.route", request);
    route.set_count(count);
    for (size_t i = 0; i < count; ++i) {
      for (const Scored& s : meta.RouteManyScored(queries[begin + i], b)) {
        routes[i].push_back(s.id);
      }
    }
  }

  // 2. Wave plan from an empty cache.
  BatchPlan plan;
  {
    ScopedSpan span(rec, "scheduler.plan", request);
    plan = PlanBatch(routes, [](uint32_t) { return false; }, opt.cache_capacity);
    span.set_count(plan.unique_clusters);
  }
  out.unique_clusters = plan.unique_clusters;

  std::vector<TopKHeap> heaps;
  heaps.reserve(count);
  for (size_t i = 0; i < count; ++i) heaps.emplace_back(k);
  const PairKernel pair = ActiveKernels().Pair(metric);
  const uint32_t dim = header_.dim;
  std::vector<Scored> results;
  std::vector<float> lut, scratch;

  for (const LoadWave& wave : plan.waves) {
    ScopedSpan wave_span(rec, "replay.wave", request);
    // 3. Post + ring the wave's READs, grouped by memory node like SearchBatch.
    std::vector<uint32_t> ids = wave.to_load;
    std::stable_sort(ids.begin(), ids.end(), [this](uint32_t x, uint32_t y) {
      return table_[x].node_slot < table_[y].node_slot;
    });
    std::vector<Pending> pending;
    pending.reserve(ids.size());
    uint32_t in_ring = 0, ring_slot = 0;
    auto ring = [&] {
      ScopedSpan span(rec, "rdma.ring", request);
      out.rings += qp_.RingDoorbell();
      in_ring = 0;
    };
    auto post = [&](uint32_t slot, uint64_t offset, std::span<uint8_t> dst, uint32_t cluster) {
      {
        ScopedSpan span(rec, "rdma.post", request);
        qp_.PostRead(handle_.rkey_for_slot(slot), offset, dst, cluster);
      }
      if (++in_ring == doorbell) ring();
    };
    for (uint32_t cluster : ids) {
      const ClusterMeta& m = table_[cluster];
      if (in_ring > 0 && m.node_slot != ring_slot) ring();
      ring_slot = m.node_slot;
      const uint64_t used = m.overflow_used;
      if (pq_mode) {
        pending.push_back(Pending{cluster, AlignedBuffer(used + m.pq_head_size, 64), used});
        std::span<uint8_t> buf = pending.back().buffer.span();
        if (m.direction == OverflowDirection::kBackward) {
          post(m.node_slot, m.overflow_base - used, buf, cluster);
        } else {
          if (used > 0) post(m.node_slot, m.overflow_base, buf.first(used), cluster);
          post(m.node_slot, m.blob_offset, buf.subspan(used, m.pq_head_size), cluster);
        }
      } else {
        const ClusterMeta::Range range = m.ReadRange(used);
        pending.push_back(Pending{cluster, AlignedBuffer(range.length, 64), used});
        post(m.node_slot, range.offset, pending.back().buffer.span(), cluster);
      }
    }
    if (in_ring > 0) ring();
    {
      ScopedSpan poll(rec, "rdma.poll", request);
      rdma::Completion c;
      while (qp_.PollCompletion(&c)) {
        if (c.status != rdma::WcStatus::kSuccess) {
          out.error = "replay READ failed: " + rdma::QueuePair::ToStatus(c).ToString();
        }
      }
    }
    if (!out.error.empty()) return out;

    // 4. Decode.
    std::unordered_map<uint32_t, Resident> resident;
    for (Pending& p : pending) {
      const ClusterMeta& m = table_[p.cluster];
      const std::span<const uint8_t> bytes = p.buffer.span();
      const std::span<const uint8_t> blob =
          pq_mode ? bytes.subspan(p.used, m.pq_head_size)
                  : bytes.subspan(m.BlobOffsetInRead(p.used), m.blob_size);
      const std::span<const uint8_t> overflow =
          pq_mode ? bytes.subspan(0, p.used) : bytes.subspan(m.OverflowOffsetInRead(), p.used);
      if (&p == &pending.front()) {
        // Checksum throughput, sampled on one cluster per wave to bound the
        // replay's extra work; DecodeCluster verifies its own CRC again.
        ScopedSpan crc(rec, "probe.crc", request);
        crc.set_count(blob.size());
        volatile uint32_t sink = Crc32c(blob);
        (void)sink;
      }
      ScopedSpan decode(rec, "serialize.decode", request);
      decode.set_count(1);
      Resident r;
      if (pq_mode) {
        Result<PqCluster> decoded = DecodePqCluster(blob);
        if (!decoded.ok()) {
          out.error = "DecodePqCluster: " + decoded.status().ToString();
          return out;
        }
        r.pq.emplace(std::move(decoded).value());
      } else {
        Result<Cluster> decoded = DecodeCluster(blob, opt.sub_hnsw_template);
        if (!decoded.ok()) {
          out.error = "DecodeCluster: " + decoded.status().ToString();
          return out;
        }
        r.raw.emplace(std::move(decoded).value());
      }
      Result<std::vector<OverflowRecord>> records = DecodeOverflowArea(overflow, p.used, dim);
      if (!records.ok()) {
        out.error = "DecodeOverflowArea: " + records.status().ToString();
        return out;
      }
      for (OverflowRecord& record : records.value()) {
        if (record.is_tombstone()) {
          r.tombstones.push_back(record.global_id);
        } else {
          r.overflow.push_back(std::move(record));
        }
      }
      std::sort(r.tombstones.begin(), r.tombstones.end());
      resident.emplace(p.cluster, std::move(r));
      ++out.clusters_decoded;
    }

    // 5. Sub-searches, in the plan's (query-grouped) work order.
    struct RerankTask {
      uint32_t cluster;
      size_t query;
      std::vector<Scored> cands;
    };
    std::vector<RerankTask> tasks;
    for (const WorkItem& item : wave.work) {
      const auto it = resident.find(item.cluster);
      if (it == resident.end()) {
        out.error = "replay: wave work references a cluster it did not load";
        return out;
      }
      const Resident& r = it->second;
      const std::span<const float> q = queries[begin + item.query_index];
      TopKHeap& heap = heaps[item.query_index];
      const uint32_t slack = static_cast<uint32_t>(std::min<size_t>(r.tombstones.size(), 64));
      ++out.work_items;
      if (pq_mode) {
        const ProductQuantizer* pqz = meta.quantizer();
        const uint32_t want = std::max<uint32_t>(static_cast<uint32_t>(k), opt.rerank_depth);
        {
          ScopedSpan span(rec, "index.adc_search", request);
          lut.resize(pqz->lut_floats());
          scratch.resize(pqz->dim());
          const float bias = pqz->BuildAdcLut(metric, q, meta.index().vector(item.cluster),
                                              lut.data(), scratch.data());
          SearchPqCluster(*r.pq, lut.data(), bias, want + slack,
                          std::max<uint32_t>(ef, want + slack), false, &results);
        }
        RerankTask task{item.cluster, item.query_index, {}};
        for (const Scored& s : results) {
          if (r.IsDeleted(r.pq->global_ids[s.id])) continue;
          task.cands.push_back(s);
          if (task.cands.size() == want) break;
        }
        if (!task.cands.empty()) tasks.push_back(std::move(task));
      } else {
        {
          ScopedSpan span(rec, "index.sub_search", request);
          r.raw->index.Search(q, k + slack, std::max<uint32_t>(ef, 1), &results);
        }
        ScopedSpan merge(rec, "compute.merge", request);
        for (const Scored& s : results) {
          const uint32_t gid = r.raw->global_ids[s.id];
          if (!r.IsDeleted(gid)) heap.Push(s.distance, gid);
        }
      }
      if (!r.overflow.empty()) {
        ScopedSpan scan(rec, "replay.overflow_scan", request);
        for (const OverflowRecord& o : r.overflow) {
          if (!r.IsDeleted(o.global_id)) {
            heap.Push(pair(o.vector.data(), q.data(), o.vector.size()), o.global_id);
          }
        }
      }
    }

    // 6. Exact re-rank: unique (cluster, local id) raw rows, first-use order,
    //    grouped by memory node, doorbell-batched, then rescored in task order.
    if (!tasks.empty()) {
      ScopedSpan rerank(rec, "replay.rerank", request);
      std::vector<std::pair<uint32_t, uint32_t>> fetches;
      std::unordered_map<uint64_t, uint32_t> index;
      auto key = [](uint32_t c, uint32_t l) { return (static_cast<uint64_t>(c) << 32) | l; };
      for (const RerankTask& t : tasks) {
        for (const Scored& c : t.cands) {
          if (index.emplace(key(t.cluster, c.id), static_cast<uint32_t>(fetches.size())).second) {
            fetches.emplace_back(t.cluster, c.id);
          }
        }
      }
      std::stable_sort(fetches.begin(), fetches.end(), [this](const auto& x, const auto& y) {
        return table_[x.first].node_slot < table_[y.first].node_slot;
      });
      for (uint32_t i = 0; i < fetches.size(); ++i) index[key(fetches[i].first, fetches[i].second)] = i;
      const size_t row_bytes = static_cast<size_t>(dim) * sizeof(float);
      AlignedBuffer rows(fetches.size() * row_bytes, 64);
      in_ring = 0;
      ring_slot = 0;
      for (uint32_t i = 0; i < fetches.size(); ++i) {
        const ClusterMeta& m = table_[fetches[i].first];
        if (in_ring > 0 && m.node_slot != ring_slot) ring();
        ring_slot = m.node_slot;
        post(m.node_slot,
             m.blob_offset + m.pq_head_size + static_cast<uint64_t>(fetches[i].second) * row_bytes,
             rows.subspan(static_cast<size_t>(i) * row_bytes, row_bytes), i);
      }
      if (in_ring > 0) ring();
      {
        ScopedSpan poll(rec, "rdma.poll", request);
        rdma::Completion c;
        while (qp_.PollCompletion(&c)) {
          if (c.status != rdma::WcStatus::kSuccess) out.error = "replay re-rank READ failed";
        }
      }
      if (!out.error.empty()) return out;
      ScopedSpan rescore(rec, "index.rescore", request);
      for (const RerankTask& t : tasks) {
        const std::span<const float> q = queries[begin + t.query];
        const Resident& r = resident.at(t.cluster);
        for (const Scored& cand : t.cands) {
          const uint32_t fi = index[key(t.cluster, cand.id)];
          const auto* vec = reinterpret_cast<const float*>(rows.data() + fi * row_bytes);
          heaps[t.query].Push(pair(q.data(), vec, dim), r.pq->global_ids[cand.id]);
        }
      }
    }
  }

  // 7. Final top-k merge.
  std::vector<std::vector<Scored>> replayed(count);
  {
    ScopedSpan merge(rec, "compute.merge", request);
    for (size_t i = 0; i < count; ++i) replayed[i] = heaps[i].TakeSorted();
  }
  batch.Close();
  out.replay_wall_ns = NowNs() - replay_start;

  const std::vector<std::vector<Scored>>& ref = reference.value().results;
  out.matched = ref.size() == replayed.size();
  for (size_t i = 0; out.matched && i < ref.size(); ++i) {
    if (ref[i].size() != replayed[i].size()) out.matched = false;
    for (size_t j = 0; out.matched && j < ref[i].size(); ++j) {
      if (ref[i][j].id != replayed[i][j].id) out.matched = false;
    }
  }
  return out;
}

}  // namespace perfbench
