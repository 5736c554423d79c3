#include "serialize/cluster_blob.h"

#include <cassert>

#include "common/binary_io.h"
#include "common/crc32.h"

namespace dhnsw {
namespace {

constexpr uint32_t kNoMaxLevel = 0xFFFFFFFFu;  // empty-graph sentinel

void EncodeHeader(const ClusterHeader& h, BinaryWriter* w) {
  const size_t start = w->size();
  w->PutU32(h.magic);
  w->PutU16(h.version);
  w->PutU16(h.flags);
  w->PutU32(h.partition_id);
  w->PutU32(h.dim);
  w->PutU32(h.count);
  w->PutU32(h.m);
  w->PutU32(h.entry_point);
  w->PutU32(h.max_level);
  w->PutU64(h.payload_size);
  w->PutU32(h.payload_crc);
  w->PutU32(h.ext_size);
  while (w->size() - start < ClusterHeader::kEncodedSize) w->PutU8(0);
  assert(w->size() - start == ClusterHeader::kEncodedSize);
}

Status DecodeHeader(BinaryReader* r, ClusterHeader* h) {
  const size_t start = r->offset();
  DHNSW_RETURN_IF_ERROR(r->GetU32(&h->magic));
  if (h->magic != ClusterHeader::kMagic) {
    return Status::Corruption("cluster blob: bad magic");
  }
  DHNSW_RETURN_IF_ERROR(r->GetU16(&h->version));
  if (h->version != ClusterHeader::kVersion) {
    return Status::Corruption("cluster blob: unsupported version");
  }
  DHNSW_RETURN_IF_ERROR(r->GetU16(&h->flags));
  DHNSW_RETURN_IF_ERROR(r->GetU32(&h->partition_id));
  DHNSW_RETURN_IF_ERROR(r->GetU32(&h->dim));
  DHNSW_RETURN_IF_ERROR(r->GetU32(&h->count));
  DHNSW_RETURN_IF_ERROR(r->GetU32(&h->m));
  DHNSW_RETURN_IF_ERROR(r->GetU32(&h->entry_point));
  DHNSW_RETURN_IF_ERROR(r->GetU32(&h->max_level));
  DHNSW_RETURN_IF_ERROR(r->GetU64(&h->payload_size));
  DHNSW_RETURN_IF_ERROR(r->GetU32(&h->payload_crc));
  DHNSW_RETURN_IF_ERROR(r->GetU32(&h->ext_size));
  if (((h->flags & ClusterHeader::kFlagHasExtensions) != 0) != (h->ext_size != 0)) {
    return Status::Corruption("cluster blob: extension flag and ext_size disagree");
  }
  return r->Skip(ClusterHeader::kEncodedSize - (r->offset() - start));
}

/// One parsed extension section (body CRC already verified).
struct ExtSection {
  uint16_t kind = 0;
  uint16_t version = 0;
  std::span<const uint8_t> body;
};

constexpr uint16_t kExtKindPqCodes = 1;
constexpr uint16_t kExtKindPqCodebook = 2;

/// Walks the extension area [kEncodedSize, kEncodedSize + ext_size) of
/// `bytes`, verifying framing + per-section CRCs. Corruption messages carry
/// the absolute byte offset of the failure.
Status ParseExtSections(std::span<const uint8_t> bytes, const ClusterHeader& h,
                        std::vector<ExtSection>* out) {
  const size_t ext_end = ClusterHeader::kEncodedSize + h.ext_size;
  if (bytes.size() < ext_end) {
    return Status::Corruption("cluster blob: extension area truncated at offset " +
                              std::to_string(bytes.size()));
  }
  BinaryReader r(bytes.first(ext_end));
  DHNSW_RETURN_IF_ERROR(r.Skip(ClusterHeader::kEncodedSize));
  while (r.offset() < ext_end) {
    const size_t section_start = r.offset();
    ExtSection s;
    uint32_t body_size = 0;
    if (!r.GetU16(&s.kind).ok() || !r.GetU16(&s.version).ok() ||
        !r.GetU32(&body_size).ok()) {
      return Status::Corruption("cluster blob: extension header truncated at offset " +
                                std::to_string(section_start));
    }
    const size_t body_start = r.offset();
    uint32_t stored_crc = 0;
    if (!r.Skip(body_size).ok() || !r.GetU32(&stored_crc).ok()) {
      return Status::Corruption("cluster blob: extension body truncated at offset " +
                                std::to_string(body_start));
    }
    s.body = bytes.subspan(body_start, body_size);
    if (Crc32c(s.body) != stored_crc) {
      return Status::Corruption("cluster blob: extension CRC mismatch at offset " +
                                std::to_string(section_start));
    }
    out->push_back(s);
  }
  return Status::Ok();
}

/// Parses the graph prefix (ids, levels, adjacency) at the front of `payload`
/// into the CSR fields of a fresh `g`; returns its size (payload_size minus
/// the float rows). Both decoders share it, so both enforce Validate()'s rules.
/// count and dim carry no CRC: they are bounded before anything is sized.
Result<uint64_t> ParseGraphPrefix(std::span<const uint8_t> payload,
                                  const ClusterHeader& h, PqCluster* g) {
  const uint32_t count = h.count;
  const uint64_t row_bytes = uint64_t{h.dim} * 4;
  if (uint64_t{count} * 8 > h.payload_size ||
      (count > 0 && row_bytes > (h.payload_size - uint64_t{count} * 8) / count)) {
    return Status::Corruption("cluster blob: node count exceeds payload");
  }
  const uint64_t graph_size = h.payload_size - row_bytes * count;
  if (payload.size() < graph_size) {
    return Status::Corruption("cluster blob: graph prefix truncated");
  }
  BinaryReader r(payload.first(graph_size));
  g->global_ids.resize(count);
  DHNSW_RETURN_IF_ERROR(r.GetU32Array(g->global_ids));
  g->levels.resize(count);
  DHNSW_RETURN_IF_ERROR(r.GetU32Array(g->levels));

  // Each (node, layer) slot holds at least a 4-byte degree: bounds the levels.
  uint64_t slots = 0;
  for (uint32_t level : g->levels) {
    slots += uint64_t{level} + 1;
    if (level > h.max_level || slots * 4 > r.remaining()) {
      return Status::Corruption("cluster blob: node level out of range");
    }
  }
  // An entry point on max_level also proves some node reaches it.
  if (count > 0 && (h.entry_point >= count || g->levels[h.entry_point] != h.max_level)) {
    return Status::Corruption("cluster blob: entry point not on max_level");
  }

  g->span_index.resize(count);
  g->span_offsets.reserve(slots + 1);
  g->neighbor_ids.reserve((r.remaining() - slots * 4) / 4);
  for (uint32_t id = 0; id < count; ++id) {
    g->span_index[id] = static_cast<uint32_t>(g->span_offsets.size());
    for (uint32_t layer = 0; layer <= g->levels[id]; ++layer) {
      uint32_t degree = 0;
      DHNSW_RETURN_IF_ERROR(r.GetU32(&degree));
      if (degree > (layer == 0 ? 2 * h.m : h.m)) {
        return Status::Corruption("cluster blob: degree cap exceeded");
      }
      const size_t start = g->neighbor_ids.size();
      g->span_offsets.push_back(static_cast<uint32_t>(start));
      g->neighbor_ids.resize(start + degree);
      const auto nbs = std::span<uint32_t>(g->neighbor_ids).subspan(start, degree);
      DHNSW_RETURN_IF_ERROR(r.GetU32Array(nbs));
      for (uint32_t nb : nbs) {
        if (nb >= count) return Status::Corruption("cluster blob: neighbor id out of range");
        if (nb == id) return Status::Corruption("cluster blob: self loop");
        if (g->levels[nb] < layer) return Status::Corruption("cluster blob: neighbor below layer");
      }
    }
  }
  g->span_offsets.push_back(static_cast<uint32_t>(g->neighbor_ids.size()));
  if (!r.exhausted()) {
    return Status::Corruption("cluster blob: trailing bytes after adjacency");
  }
  return graph_size;
}

}  // namespace

size_t EncodedClusterSize(const Cluster& cluster) {
  const HnswIndex& index = cluster.index;
  const size_t count = index.size();
  size_t payload = 0;
  payload += count * 4;                         // global ids
  payload += count * 4;                         // levels
  for (uint32_t id = 0; id < count; ++id) {     // adjacency
    for (uint32_t layer = 0; layer <= index.level(id); ++layer) {
      payload += 4 + index.neighbors(id, layer).size() * 4;
    }
  }
  payload += count * index.dim() * 4;           // vectors
  return ClusterHeader::kEncodedSize + payload;
}

ClusterSizePlan PlanClusterSize(const Cluster& cluster, uint32_t code_m) {
  const size_t count = cluster.index.size();
  const size_t payload_size = EncodedClusterSize(cluster) - ClusterHeader::kEncodedSize;
  const size_t vectors_offset = payload_size - count * cluster.index.dim() * 4;
  // Codes section: 8-byte framing + fixed 20-byte body head + codes + 4-byte CRC.
  const size_t ext_size = code_m > 0 ? 8 + 20 + count * code_m + 4 : 0;
  ClusterSizePlan plan;
  plan.total_size = ClusterHeader::kEncodedSize + ext_size + payload_size;
  plan.pq_head_size =
      code_m > 0 ? ClusterHeader::kEncodedSize + ext_size + vectors_offset : 0;
  return plan;
}

std::vector<uint8_t> EncodeCluster(const Cluster& cluster) {
  return EncodeCluster(cluster, ClusterPqExtensions{}, nullptr);
}

std::vector<uint8_t> EncodeCluster(const Cluster& cluster,
                                   const ClusterPqExtensions& ext,
                                   uint64_t* pq_head_size) {
  const HnswIndex& index = cluster.index;
  assert(cluster.global_ids.size() == index.size());

  // Payload first (header needs its size + CRC).
  std::vector<uint8_t> payload;
  payload.reserve(EncodedClusterSize(cluster) - ClusterHeader::kEncodedSize);
  {
    BinaryWriter w(&payload);
    w.PutU32Array(cluster.global_ids);
    for (uint32_t id = 0; id < index.size(); ++id) w.PutU32(index.level(id));
    for (uint32_t id = 0; id < index.size(); ++id) {
      for (uint32_t layer = 0; layer <= index.level(id); ++layer) {
        const auto nbs = index.neighbors(id, layer);
        w.PutU32(static_cast<uint32_t>(nbs.size()));
        w.PutU32Array(nbs);
      }
    }
    w.PutF32Array(index.vectors());
  }
  // The float rows always close the payload, so the graph prefix ends here.
  const uint64_t vectors_offset =
      payload.size() - static_cast<size_t>(index.size()) * index.dim() * 4;

  const bool has_codes = ext.code_m > 0;
  std::vector<uint8_t> ext_bytes;
  {
    BinaryWriter w(&ext_bytes);
    const auto append_section = [&w](uint16_t kind, std::span<const uint8_t> body) {
      w.PutU16(kind);
      w.PutU16(1);  // section version
      w.PutU32(static_cast<uint32_t>(body.size()));
      w.PutBytes(body);
      w.PutU32(Crc32c(body));
    };
    if (has_codes) {
      assert(ext.codes.size() ==
             static_cast<size_t>(index.size()) * ext.code_m);
      std::vector<uint8_t> body;
      BinaryWriter bw(&body);
      bw.PutU16(static_cast<uint16_t>(ext.code_m));
      bw.PutU16(0);  // reserved
      bw.PutU32(static_cast<uint32_t>(index.size()));
      bw.PutU64(vectors_offset);
      bw.PutU32(Crc32c(std::span<const uint8_t>(payload).first(vectors_offset)));
      bw.PutBytes(ext.codes);
      append_section(kExtKindPqCodes, body);
    }
    if (ext.codebook != nullptr) {
      append_section(kExtKindPqCodebook, ext.codebook->ToBytes());
    }
  }

  ClusterHeader h;
  // Blobs are self-describing: the metric rides in the flags field so a
  // decoder (or a compactor on another node) never guesses it.
  h.flags = static_cast<uint16_t>(index.options().metric);
  if (!ext_bytes.empty()) h.flags |= ClusterHeader::kFlagHasExtensions;
  h.partition_id = cluster.partition_id;
  h.dim = index.dim();
  h.count = static_cast<uint32_t>(index.size());
  h.m = index.options().M;
  h.entry_point = index.empty() ? 0 : index.entry_point();
  h.max_level = index.empty() ? kNoMaxLevel
                              : static_cast<uint32_t>(index.max_level_in_graph());
  h.payload_size = payload.size();
  h.payload_crc = Crc32c(payload);
  h.ext_size = static_cast<uint32_t>(ext_bytes.size());

  if (pq_head_size != nullptr) {
    *pq_head_size = has_codes
                        ? ClusterHeader::kEncodedSize + ext_bytes.size() + vectors_offset
                        : 0;
  }

  std::vector<uint8_t> out;
  out.reserve(ClusterHeader::kEncodedSize + ext_bytes.size() + payload.size());
  BinaryWriter w(&out);
  EncodeHeader(h, &w);
  w.PutBytes(ext_bytes);
  w.PutBytes(payload);
  // Keep the size predictor honest (codebook sections are out of its scope).
  assert(ext.codebook != nullptr ||
         out.size() == PlanClusterSize(cluster, ext.code_m).total_size);
  return out;
}

Result<ClusterHeader> PeekClusterHeader(std::span<const uint8_t> bytes) {
  BinaryReader r(bytes);
  ClusterHeader h;
  DHNSW_RETURN_IF_ERROR(DecodeHeader(&r, &h));
  return h;
}

Result<Cluster> DecodeCluster(std::span<const uint8_t> bytes,
                              const HnswOptions& options_template) {
  BinaryReader r(bytes);
  ClusterHeader h;
  DHNSW_RETURN_IF_ERROR(DecodeHeader(&r, &h));
  // Verify extension framing/CRCs but otherwise skip: raw decoding ignores
  // PQ sections (the payload is unchanged by their presence).
  std::vector<ExtSection> sections;
  DHNSW_RETURN_IF_ERROR(ParseExtSections(bytes, h, &sections));
  DHNSW_RETURN_IF_ERROR(r.Skip(h.ext_size));
  if (r.remaining() < h.payload_size) {
    return Status::Corruption("cluster blob: payload truncated");
  }
  const std::span<const uint8_t> payload =
      bytes.subspan(ClusterHeader::kEncodedSize + h.ext_size, h.payload_size);
  if (Crc32c(payload) != h.payload_crc) {
    return Status::Corruption("cluster blob: payload CRC mismatch");
  }

  PqCluster g;  // CSR graph only; rebuilt below into HnswIndex adjacency
  DHNSW_ASSIGN_OR_RETURN(const uint64_t graph_size, ParseGraphPrefix(payload, h, &g));
  std::vector<std::vector<std::vector<uint32_t>>> links(h.count);
  for (uint32_t id = 0; id < h.count; ++id) {
    for (uint32_t layer = 0; layer <= g.levels[id]; ++layer) {
      const std::span<const uint32_t> nbs = g.neighbors(id, layer);
      links[id].emplace_back(nbs.begin(), nbs.end());
    }
  }
  std::vector<float> vectors(static_cast<size_t>(h.count) * h.dim);
  BinaryReader vr(payload.subspan(graph_size));
  DHNSW_RETURN_IF_ERROR(vr.GetF32Array(vectors));

  HnswOptions options = options_template;
  options.M = h.m;
  options.metric = static_cast<Metric>(h.flags & 0x7);
  DHNSW_ASSIGN_OR_RETURN(
      HnswIndex index,
      HnswIndex::FromRaw(h.dim, options, std::move(vectors), std::move(g.levels),
                         std::move(links), h.entry_point));
  return Cluster(h.partition_id, std::move(index), std::move(g.global_ids));
}

Result<std::optional<ProductQuantizer>> DecodeClusterCodebook(
    std::span<const uint8_t> bytes) {
  BinaryReader r(bytes);
  ClusterHeader h;
  DHNSW_RETURN_IF_ERROR(DecodeHeader(&r, &h));
  std::vector<ExtSection> sections;
  DHNSW_RETURN_IF_ERROR(ParseExtSections(bytes, h, &sections));
  for (const ExtSection& s : sections) {
    if (s.kind != kExtKindPqCodebook) continue;
    DHNSW_ASSIGN_OR_RETURN(ProductQuantizer pq,
                           ProductQuantizer::FromBytes(s.body));
    return std::optional<ProductQuantizer>(std::move(pq));
  }
  return std::optional<ProductQuantizer>();
}

Result<PqCluster> DecodePqCluster(std::span<const uint8_t> bytes) {
  BinaryReader r(bytes);
  ClusterHeader h;
  DHNSW_RETURN_IF_ERROR(DecodeHeader(&r, &h));
  std::vector<ExtSection> sections;
  DHNSW_RETURN_IF_ERROR(ParseExtSections(bytes, h, &sections));

  const ExtSection* codes_section = nullptr;
  for (const ExtSection& s : sections) {
    if (s.kind == kExtKindPqCodes) codes_section = &s;
  }
  if (codes_section == nullptr) {
    return Status::Corruption("cluster blob: no PQ codes section");
  }

  PqCluster pc;
  BinaryReader br(codes_section->body);
  uint16_t code_m = 0, reserved = 0;
  uint32_t count = 0, graph_crc = 0;
  DHNSW_RETURN_IF_ERROR(br.GetU16(&code_m));
  DHNSW_RETURN_IF_ERROR(br.GetU16(&reserved));
  DHNSW_RETURN_IF_ERROR(br.GetU32(&count));
  DHNSW_RETURN_IF_ERROR(br.GetU64(&pc.vectors_offset));
  DHNSW_RETURN_IF_ERROR(br.GetU32(&graph_crc));
  if (code_m == 0 || count != h.count ||
      br.remaining() != static_cast<size_t>(count) * code_m) {
    return Status::Corruption("cluster blob: PQ codes section geometry mismatch");
  }
  const size_t graph_start = ClusterHeader::kEncodedSize + h.ext_size;
  if (bytes.size() - graph_start < pc.vectors_offset) {
    return Status::Corruption("cluster blob: PQ prefix truncated at offset " +
                              std::to_string(bytes.size()));
  }
  const std::span<const uint8_t> graph = bytes.subspan(graph_start, pc.vectors_offset);
  if (Crc32c(graph) != graph_crc) {
    return Status::Corruption("cluster blob: PQ graph CRC mismatch at offset " +
                              std::to_string(graph_start));
  }
  DHNSW_ASSIGN_OR_RETURN(const uint64_t graph_size, ParseGraphPrefix(graph, h, &pc));
  if (graph_size != pc.vectors_offset) {
    return Status::Corruption("cluster blob: PQ vectors_offset inconsistent");
  }
  pc.partition_id = h.partition_id;
  pc.dim = h.dim;
  pc.count = h.count;
  pc.m = code_m;
  pc.hnsw_m = h.m;
  pc.entry_point = h.entry_point;
  pc.max_level = h.max_level == kNoMaxLevel ? 0 : h.max_level;
  pc.metric = static_cast<Metric>(h.flags & 0x7);
  pc.codes.resize(static_cast<size_t>(count) * code_m);
  DHNSW_RETURN_IF_ERROR(br.GetBytes(pc.codes));
  return pc;
}

}  // namespace dhnsw
