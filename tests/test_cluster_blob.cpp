#include "serialize/cluster_blob.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

#include "common/crc32.h"
#include "common/rng.h"

// The largest single heap request, so a test can prove a decoder never sizes
// an allocation from an unchecked header field.
namespace {
std::atomic<size_t> g_largest_allocation{0};
}  // namespace

void* operator new(size_t size) {
  size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
  while (size > seen &&
         !g_largest_allocation.compare_exchange_weak(seen, size, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t size) { return ::operator new(size); }
// Out of line, so the compiler never pairs an inlined free() with new.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace dhnsw {
namespace {

Cluster MakeCluster(uint32_t partition_id, uint32_t count, uint32_t dim, uint64_t seed) {
  Xoshiro256 rng(seed);
  HnswIndex index(dim, {.M = 6, .ef_construction = 40, .seed = seed});
  std::vector<uint32_t> gids;
  std::vector<float> v(dim);
  for (uint32_t i = 0; i < count; ++i) {
    for (auto& x : v) x = rng.NextFloat() * 10.0f;
    index.Add(v);
    gids.push_back(1000 + i * 3);  // arbitrary non-dense global ids
  }
  return Cluster(partition_id, std::move(index), std::move(gids));
}

TEST(ClusterBlobTest, RoundTripPreservesEverything) {
  const Cluster original = MakeCluster(7, 120, 12, 42);
  const std::vector<uint8_t> blob = EncodeCluster(original);

  auto decoded = DecodeCluster(blob, HnswOptions{});
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const Cluster& c = decoded.value();

  EXPECT_EQ(c.partition_id, 7u);
  EXPECT_EQ(c.global_ids, original.global_ids);
  ASSERT_EQ(c.index.size(), original.index.size());
  EXPECT_EQ(c.index.dim(), original.index.dim());
  EXPECT_EQ(c.index.entry_point(), original.index.entry_point());
  EXPECT_EQ(c.index.max_level_in_graph(), original.index.max_level_in_graph());

  for (uint32_t id = 0; id < c.index.size(); ++id) {
    ASSERT_EQ(c.index.level(id), original.index.level(id));
    for (uint32_t layer = 0; layer <= c.index.level(id); ++layer) {
      const auto a = c.index.neighbors(id, layer);
      const auto b = original.index.neighbors(id, layer);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
    }
    const auto va = c.index.vector(id);
    const auto vb = original.index.vector(id);
    for (uint32_t d = 0; d < c.index.dim(); ++d) ASSERT_FLOAT_EQ(va[d], vb[d]);
  }
}

TEST(ClusterBlobTest, DecodedIndexSearchesIdentically) {
  const Cluster original = MakeCluster(0, 200, 8, 43);
  const std::vector<uint8_t> blob = EncodeCluster(original);
  auto decoded = DecodeCluster(blob, HnswOptions{});
  ASSERT_TRUE(decoded.ok());

  Xoshiro256 rng(44);
  std::vector<float> q(8);
  for (int t = 0; t < 10; ++t) {
    for (auto& x : q) x = rng.NextFloat() * 10.0f;
    const auto r1 = original.index.Search(q, 5, 30);
    const auto r2 = decoded.value().index.Search(q, 5, 30);
    ASSERT_EQ(r1.size(), r2.size());
    for (size_t i = 0; i < r1.size(); ++i) EXPECT_EQ(r1[i].id, r2[i].id);
  }
}

TEST(ClusterBlobTest, EncodedSizeMatchesActual) {
  for (uint32_t count : {1u, 10u, 100u}) {
    const Cluster c = MakeCluster(1, count, 6, count);
    EXPECT_EQ(EncodedClusterSize(c), EncodeCluster(c).size()) << "count " << count;
  }
}

TEST(ClusterBlobTest, PeekHeaderWithoutFullDecode) {
  const Cluster c = MakeCluster(9, 50, 4, 45);
  const std::vector<uint8_t> blob = EncodeCluster(c);
  auto header = PeekClusterHeader(blob);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header.value().partition_id, 9u);
  EXPECT_EQ(header.value().count, 50u);
  EXPECT_EQ(header.value().dim, 4u);
  EXPECT_EQ(header.value().payload_size + ClusterHeader::kEncodedSize, blob.size());
}

TEST(ClusterBlobTest, TrailingBytesAreIgnored) {
  const Cluster c = MakeCluster(2, 30, 4, 46);
  std::vector<uint8_t> blob = EncodeCluster(c);
  blob.resize(blob.size() + 1024, 0xCC);  // e.g. overflow area read along
  auto decoded = DecodeCluster(blob, HnswOptions{});
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().index.size(), 30u);
}

TEST(ClusterBlobTest, CorruptPayloadDetectedByCrc) {
  const Cluster c = MakeCluster(3, 40, 4, 47);
  std::vector<uint8_t> blob = EncodeCluster(c);
  blob[ClusterHeader::kEncodedSize + 10] ^= 0xFF;
  EXPECT_EQ(DecodeCluster(blob, HnswOptions{}).status().code(), StatusCode::kCorruption);
}

TEST(ClusterBlobTest, BadMagicRejected) {
  const Cluster c = MakeCluster(3, 10, 4, 48);
  std::vector<uint8_t> blob = EncodeCluster(c);
  blob[0] ^= 0x01;
  EXPECT_EQ(DecodeCluster(blob, HnswOptions{}).status().code(), StatusCode::kCorruption);
}

TEST(ClusterBlobTest, TruncatedBlobRejected) {
  const Cluster c = MakeCluster(3, 10, 4, 49);
  std::vector<uint8_t> blob = EncodeCluster(c);
  blob.resize(blob.size() / 2);
  EXPECT_FALSE(DecodeCluster(blob, HnswOptions{}).ok());
}

TEST(ClusterBlobTest, TinyBufferRejected) {
  std::vector<uint8_t> blob(10, 0);
  EXPECT_FALSE(DecodeCluster(blob, HnswOptions{}).ok());
  EXPECT_FALSE(PeekClusterHeader(blob).ok());
}

TEST(ClusterBlobTest, SingleVectorCluster) {
  const Cluster c = MakeCluster(5, 1, 16, 50);
  auto decoded = DecodeCluster(EncodeCluster(c), HnswOptions{});
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().index.size(), 1u);
  const auto top = decoded.value().index.Search(decoded.value().index.vector(0), 1, 4);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].id, 0u);
}

TEST(ClusterBlobTest, PreservesMOption) {
  Xoshiro256 rng(51);
  HnswIndex index(4, {.M = 24, .ef_construction = 40});
  std::vector<float> v(4);
  for (int i = 0; i < 20; ++i) {
    for (auto& x : v) x = rng.NextFloat();
    index.Add(v);
  }
  Cluster c(0, std::move(index), std::vector<uint32_t>(20, 0));
  for (uint32_t i = 0; i < 20; ++i) c.global_ids[i] = i;
  auto decoded = DecodeCluster(EncodeCluster(c), HnswOptions{});
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().index.options().M, 24u);
}

// --- Structural checks behind a valid CRC ----------------------------------
//
// Each mutation below re-seals every checksum, so it reaches the structural
// checks instead of stopping at a CRC mismatch. Every blob carries a PQ codes
// section, so the raw (DecodeCluster) and PQ-prefix (DecodePqCluster) decoders
// parse exactly the same bytes and must reject exactly the same graphs.

/// Test-side editor for an encoded cluster blob (layout: cluster_blob.h).
class BlobEditor {
 public:
  // Header field offsets.
  static constexpr size_t kCount = 16, kEntryPoint = 24, kMaxLevel = 28, kPayloadSize = 32,
                          kPayloadCrc = 40, kExtSize = 44;

  explicit BlobEditor(std::vector<uint8_t> bytes) : bytes_(std::move(bytes)) {}

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  uint32_t U32(size_t off) const {
    uint32_t v;
    std::memcpy(&v, bytes_.data() + off, 4);
    return v;
  }
  void SetU32(size_t off, uint32_t v) { std::memcpy(bytes_.data() + off, &v, 4); }

  uint32_t count() const { return U32(kCount); }
  size_t payload_start() const { return ClusterHeader::kEncodedSize + U32(kExtSize); }
  size_t LevelOffset(uint32_t id) const { return payload_start() + 4 * (count() + id); }
  uint32_t Level(uint32_t id) const { return U32(LevelOffset(id)); }

  /// Offset of the degree word that opens (id, layer)'s neighbor list.
  size_t AdjacencyOffset(uint32_t id, uint32_t layer) const {
    size_t off = payload_start() + 8 * count();
    for (uint32_t n = 0; n < count(); ++n) {
      for (uint32_t l = 0; l <= Level(n); ++l) {
        if (n == id && l == layer) return off;
        off += 4 + 4 * size_t{U32(off)};
      }
    }
    ADD_FAILURE() << "no adjacency for node " << id << " layer " << layer;
    return 0;
  }
  std::vector<uint32_t> Neighbors(uint32_t id, uint32_t layer) const {
    const size_t off = AdjacencyOffset(id, layer);
    std::vector<uint32_t> out(U32(off));
    for (size_t i = 0; i < out.size(); ++i) out[i] = U32(off + 4 + 4 * i);
    return out;
  }
  /// Replaces (id, layer)'s neighbor list, growing or shrinking the payload.
  void SetNeighbors(uint32_t id, uint32_t layer, const std::vector<uint32_t>& nbs) {
    const size_t off = AdjacencyOffset(id, layer);
    const size_t old_words = 1 + U32(off);
    std::vector<uint8_t> words(4 * (1 + nbs.size()));
    const uint32_t degree = static_cast<uint32_t>(nbs.size());
    std::memcpy(words.data(), &degree, 4);
    if (!nbs.empty()) std::memcpy(words.data() + 4, nbs.data(), 4 * nbs.size());
    bytes_.erase(bytes_.begin() + off, bytes_.begin() + off + 4 * old_words);
    bytes_.insert(bytes_.begin() + off, words.begin(), words.end());
    const int64_t delta = static_cast<int64_t>(words.size()) - 4 * old_words;
    SetU64(kPayloadSize, U64(kPayloadSize) + delta);
    SetU64(PqSectionBody() + 8, U64(PqSectionBody() + 8) + delta);  // vectors_offset
  }

  /// Recomputes the payload CRC, the PQ graph CRC and the section CRC.
  void Reseal() {
    const auto payload =
        std::span<const uint8_t>(bytes_).subspan(payload_start(), U64(kPayloadSize));
    SetU32(kPayloadCrc, Crc32c(payload));
    const size_t body = PqSectionBody();
    SetU32(body + 16, Crc32c(payload.first(U64(body + 8))));
    const uint32_t body_size = U32(body - 4);
    SetU32(body + body_size,
           Crc32c(std::span<const uint8_t>(bytes_).subspan(body, body_size)));
  }

 private:
  uint64_t U64(size_t off) const {
    uint64_t v;
    std::memcpy(&v, bytes_.data() + off, 8);
    return v;
  }
  void SetU64(size_t off, uint64_t v) { std::memcpy(bytes_.data() + off, &v, 8); }
  /// The codes section is the first (and only) section of these blobs.
  size_t PqSectionBody() const { return ClusterHeader::kEncodedSize + 8; }

  std::vector<uint8_t> bytes_;
};

constexpr uint32_t kM = 6;
constexpr uint32_t kNodes = 200;

BlobEditor MakePqBlob() {
  const Cluster c = MakeCluster(4, kNodes, 8, 60);
  const std::vector<uint8_t> codes(kNodes * 4, 0x5A);
  ClusterPqExtensions ext;
  ext.codes = codes;
  ext.code_m = 4;
  uint64_t head = 0;
  return BlobEditor(EncodeCluster(c, ext, &head));
}

/// Both decoders must fail kCorruption (and, via the sanitizer jobs, cleanly).
void ExpectBothReject(const BlobEditor& blob, const char* what) {
  const auto raw = DecodeCluster(blob.bytes(), HnswOptions{});
  ASSERT_FALSE(raw.ok()) << what << ": raw decoder accepted it";
  EXPECT_EQ(raw.status().code(), StatusCode::kCorruption) << what << ": " << raw.status().ToString();
  const auto pq = DecodePqCluster(blob.bytes());
  ASSERT_FALSE(pq.ok()) << what << ": PQ decoder accepted it";
  EXPECT_EQ(pq.status().code(), StatusCode::kCorruption) << what << ": " << pq.status().ToString();
}

/// First node whose level is at least `level`.
uint32_t NodeAtLevel(const BlobEditor& blob, uint32_t level) {
  for (uint32_t id = 0; id < blob.count(); ++id) {
    if (blob.Level(id) >= level) return id;
  }
  ADD_FAILURE() << "no node reaches level " << level;
  return 0;
}

TEST(ClusterBlobStructureTest, ResealedPristineBlobStillDecodesOnBothPaths) {
  BlobEditor blob = MakePqBlob();
  const std::vector<uint8_t> original = blob.bytes();
  blob.SetNeighbors(0, 0, blob.Neighbors(0, 0));  // same bytes, same size
  blob.Reseal();
  EXPECT_EQ(blob.bytes(), original);
  EXPECT_TRUE(DecodeCluster(blob.bytes(), HnswOptions{}).ok());
  EXPECT_TRUE(DecodePqCluster(blob.bytes()).ok());
}

TEST(ClusterBlobStructureTest, LevelThatWrapsTo0IsRejected) {
  // levels[id] + 1 used to wrap to 0 and size a node with no layers, which
  // the adjacency walk then indexed (SEGV).
  BlobEditor blob = MakePqBlob();
  blob.SetU32(blob.LevelOffset(3), 0xFFFFFFFFu);
  blob.Reseal();
  ExpectBothReject(blob, "level 0xFFFFFFFF");
  // Even when the header claims the same max_level, the level cannot fit.
  blob.SetU32(BlobEditor::kMaxLevel, 0xFFFFFFFFu);
  ExpectBothReject(blob, "level and max_level 0xFFFFFFFF");
}

TEST(ClusterBlobStructureTest, HugeHeaderCountIsRejectedBeforeAllocating) {
  // count is not covered by any CRC; it used to size the id and level arrays
  // (2 x 1 GiB here) before the decoder noticed the truncation.
  BlobEditor blob = MakePqBlob();
  blob.SetU32(BlobEditor::kCount, 1u << 28);
  g_largest_allocation.store(0);
  ExpectBothReject(blob, "count 2^28");
  EXPECT_LE(g_largest_allocation.load(), blob.bytes().size());
}

TEST(ClusterBlobStructureTest, MaxLevelNoNodeReachesIsRejected) {
  BlobEditor blob = MakePqBlob();
  blob.SetU32(BlobEditor::kMaxLevel, blob.U32(BlobEditor::kMaxLevel) + 1);
  ExpectBothReject(blob, "max_level above every node");
}

TEST(ClusterBlobStructureTest, EntryPointBelowTopLevelIsRejected) {
  BlobEditor blob = MakePqBlob();
  const uint32_t top = blob.U32(BlobEditor::kMaxLevel);
  ASSERT_GT(top, 0u);
  uint32_t low = 0;
  while (blob.Level(low) == top) ++low;
  blob.SetU32(BlobEditor::kEntryPoint, low);
  ExpectBothReject(blob, "entry point below the top level");
  blob.SetU32(BlobEditor::kEntryPoint, blob.count());
  ExpectBothReject(blob, "entry point out of range");
}

TEST(ClusterBlobStructureTest, NeighborIdOutOfRangeIsRejected) {
  BlobEditor blob = MakePqBlob();
  std::vector<uint32_t> nbs = blob.Neighbors(7, 0);
  ASSERT_FALSE(nbs.empty());
  nbs[0] = kNodes;
  blob.SetNeighbors(7, 0, nbs);
  blob.Reseal();
  ExpectBothReject(blob, "neighbor id == count");
}

TEST(ClusterBlobStructureTest, SelfLoopIsRejected) {
  BlobEditor blob = MakePqBlob();
  std::vector<uint32_t> nbs = blob.Neighbors(7, 0);
  ASSERT_FALSE(nbs.empty());
  nbs[0] = 7;
  blob.SetNeighbors(7, 0, nbs);
  blob.Reseal();
  ExpectBothReject(blob, "self loop");
}

TEST(ClusterBlobStructureTest, NeighborBelowLayerIsRejected) {
  BlobEditor blob = MakePqBlob();
  const uint32_t upper = NodeAtLevel(blob, 1);
  uint32_t ground = 0;
  while (blob.Level(ground) != 0) ++ground;
  std::vector<uint32_t> nbs = blob.Neighbors(upper, 1);
  ASSERT_FALSE(nbs.empty());
  nbs[0] = ground;
  blob.SetNeighbors(upper, 1, nbs);
  blob.Reseal();
  ExpectBothReject(blob, "layer-1 neighbor with level 0");
}

TEST(ClusterBlobStructureTest, DegreeCapsAre2MAtLayer0AndMAbove) {
  // Layer 0 allows exactly 2M neighbors, one more is rejected.
  BlobEditor blob = MakePqBlob();
  std::vector<uint32_t> wide;
  for (uint32_t nb = 1; wide.size() < 2 * kM; ++nb) wide.push_back(nb);
  blob.SetNeighbors(0, 0, wide);
  blob.Reseal();
  EXPECT_TRUE(DecodeCluster(blob.bytes(), HnswOptions{}).ok());
  EXPECT_TRUE(DecodePqCluster(blob.bytes()).ok());
  wide.push_back(2 * kM + 1);
  blob.SetNeighbors(0, 0, wide);
  blob.Reseal();
  ExpectBothReject(blob, "layer-0 degree 2M+1");

  // Upper layers allow M; M+1 (well under the layer-0 cap) is rejected.
  blob = MakePqBlob();
  const uint32_t upper = NodeAtLevel(blob, 1);
  std::vector<uint32_t> nbs;
  for (uint32_t id = 0; id < blob.count() && nbs.size() < kM + 1; ++id) {
    if (id != upper && blob.Level(id) >= 1) nbs.push_back(id);
  }
  ASSERT_EQ(nbs.size(), kM + 1);
  blob.SetNeighbors(upper, 1, nbs);
  blob.Reseal();
  ExpectBothReject(blob, "layer-1 degree M+1");
}

TEST(ClusterBlobStructureTest, TrailingGraphBytesAreRejected) {
  // One word more in the graph prefix than the adjacency walk consumes: grow
  // the last neighbor list, then restore its degree word.
  BlobEditor blob = MakePqBlob();
  const uint32_t last = blob.count() - 1;
  const uint32_t layer = blob.Level(last);
  std::vector<uint32_t> nbs = blob.Neighbors(last, layer);
  const uint32_t degree = static_cast<uint32_t>(nbs.size());
  nbs.push_back(0);
  blob.SetNeighbors(last, layer, nbs);
  blob.SetU32(blob.AdjacencyOffset(last, layer), degree);
  blob.Reseal();
  ExpectBothReject(blob, "word after the last neighbor list");
}

}  // namespace
}  // namespace dhnsw
