// Compact, versioned, checksummed serialization of one sub-HNSW cluster —
// the unit that lives in remote memory and crosses the wire on every cluster
// load (paper Fig. 4: "metadata, neighbor array for HNSW, and the associated
// floating-point vectors").
//
// Layout (little-endian):
//   [48-byte header][extension sections, ext_size bytes][payload]
//   payload := global_ids u32[count]
//              levels     u32[count]
//              adjacency  per node, per layer 0..level: degree u32, u32[degree]
//              vectors    f32[count*dim]
// The header carries a CRC-32C of the payload so a torn RDMA read of a
// concurrently rebuilt cluster is detected instead of silently searched.
//
// Extension sections (version 1, present iff kFlagHasExtensions is set;
// ext_size == 0 keeps the byte stream identical to pre-extension blobs):
//   section := kind u16, version u16, body_size u32, body[body_size],
//              crc u32 (CRC-32C of body)
//   kind 1 (PQ codes):    m u16, reserved u16, count u32, vectors_offset u64,
//                         graph_crc u32 (CRC-32C of payload[0, vectors_offset)
//                         — validates a *prefix* read that stops before the
//                         float rows), codes u8[count*m]
//   kind 2 (PQ codebook): ProductQuantizer::ToBytes body (meta blob only)
// The payload itself is unchanged by extensions, so `payload=pq` readers can
// fetch just [0, pq_head_size) = header + extensions + payload up to
// vectors_offset, and raw readers skip the extension area entirely.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/status.h"
#include "index/hnsw.h"
#include "index/pq.h"

namespace dhnsw {

/// Fixed-size on-wire header of a serialized cluster.
struct ClusterHeader {
  static constexpr uint32_t kMagic = 0x44484E57;  // "DHNW"
  static constexpr uint16_t kVersion = 1;
  static constexpr size_t kEncodedSize = 48;
  /// flags bits 0..2 carry the Metric; bit 3 marks extension sections.
  static constexpr uint16_t kFlagHasExtensions = 0x8;

  uint32_t magic = kMagic;
  uint16_t version = kVersion;
  uint16_t flags = 0;
  uint32_t partition_id = 0;
  uint32_t dim = 0;
  uint32_t count = 0;
  uint32_t m = 0;            ///< HNSW M the graph was built with
  uint32_t entry_point = 0;
  uint32_t max_level = 0;
  uint64_t payload_size = 0;
  uint32_t payload_crc = 0;
  uint32_t ext_size = 0;     ///< bytes of extension sections after the header
};

/// A sub-HNSW cluster ready for serialization / freshly decoded: the graph
/// over partition-local ids plus the mapping back to dataset-global ids.
struct Cluster {
  uint32_t partition_id = 0;
  HnswIndex index;
  std::vector<uint32_t> global_ids;  ///< local id -> global id

  Cluster(uint32_t pid, HnswIndex idx, std::vector<uint32_t> gids)
      : partition_id(pid), index(std::move(idx)), global_ids(std::move(gids)) {}
};

/// Optional PQ material to ride along with a cluster blob as extension
/// sections. Both members are independent: sub-cluster blobs carry codes,
/// the meta blob carries the shared codebook.
struct ClusterPqExtensions {
  const ProductQuantizer* codebook = nullptr;  ///< kind-2 section when set
  std::span<const uint8_t> codes;              ///< count x code_m, kind-1 section
  uint32_t code_m = 0;                         ///< PQ subquantizers (codes row width)
};

/// Serializes `cluster` into a fresh byte vector.
std::vector<uint8_t> EncodeCluster(const Cluster& cluster);

/// Extension-aware encode. When `ext` has codes, `pq_head_size` (if non-null)
/// receives header + ext_size + vectors_offset — the prefix a `payload=pq`
/// reader fetches; otherwise it receives 0.
std::vector<uint8_t> EncodeCluster(const Cluster& cluster,
                                   const ClusterPqExtensions& ext,
                                   uint64_t* pq_head_size);

/// Exact encoded size without materializing the bytes (layout planning).
size_t EncodedClusterSize(const Cluster& cluster);

/// Exact sizes of the blob EncodeCluster would emit for `cluster` with a
/// codes section of `code_m` bytes/vector (0 = no PQ section), again without
/// materializing anything. Lets the provisioner plan the full region layout
/// first and then encode straight into each cluster's final offset — the
/// streamed build path never holds more than a few blobs in flight.
/// (Codebook sections are not covered; only the meta blob carries one.)
struct ClusterSizePlan {
  size_t total_size = 0;     ///< header + extensions + payload
  uint64_t pq_head_size = 0; ///< prefix a `payload=pq` reader fetches; 0 if no codes
};
ClusterSizePlan PlanClusterSize(const Cluster& cluster, uint32_t code_m);

/// Parses and CRC-verifies a blob, then checks the graph against
/// HnswIndex::Validate()'s rules before building anything from it (the same
/// parser DecodePqCluster uses). `bytes` may be longer than the blob
/// (e.g. a read that also covered the overflow region); trailing bytes are
/// ignored. HnswOptions besides M/metric come from `options_template`.
Result<Cluster> DecodeCluster(std::span<const uint8_t> bytes,
                              const HnswOptions& options_template);

/// Reads just the header (no CRC check) — used to size follow-up reads.
Result<ClusterHeader> PeekClusterHeader(std::span<const uint8_t> bytes);

/// Extracts the PQ codebook extension section, if present (meta-HNSW blob).
/// Returns nullopt for blobs without one; kCorruption for damaged sections.
Result<std::optional<ProductQuantizer>> DecodeClusterCodebook(
    std::span<const uint8_t> bytes);

/// Decodes a PQ *prefix* read — header + extensions + the payload up to (and
/// excluding) the float rows. `bytes` must cover at least pq_head_size;
/// trailing bytes are ignored. The graph prefix is validated against the
/// codes section's graph_crc (the full-payload CRC can't be checked without
/// the vectors). Fails kCorruption (with the byte offset) on truncation,
/// CRC mismatch, or a blob without a codes section, and kCorruption on a
/// graph that breaks HnswIndex::Validate()'s rules.
Result<PqCluster> DecodePqCluster(std::span<const uint8_t> bytes);

}  // namespace dhnsw
