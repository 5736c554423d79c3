// Microbenchmarks for the serialization layer (the deserialize cost is a
// visible component of per-load latency — naive mode pays it per duplicate
// load, which is most of the paper's sub-HNSW column gap).
#include <benchmark/benchmark.h>

#include "common/crc32.h"
#include "common/rng.h"
#include "serialize/cluster_blob.h"
#include "serialize/overflow.h"

namespace dhnsw {
namespace {

Cluster MakeCluster(uint32_t count, uint32_t dim) {
  Xoshiro256 rng(count * 7919 + dim);
  HnswIndex index(dim, {.M = 8, .ef_construction = 60});
  std::vector<uint32_t> gids;
  std::vector<float> v(dim);
  for (uint32_t i = 0; i < count; ++i) {
    for (auto& x : v) x = rng.NextFloat();
    index.Add(v);
    gids.push_back(i);
  }
  return Cluster(0, std::move(index), std::move(gids));
}

void BM_EncodeCluster(benchmark::State& state) {
  const Cluster cluster = MakeCluster(static_cast<uint32_t>(state.range(0)), 128);
  size_t bytes = 0;
  for (auto _ : state) {
    auto blob = EncodeCluster(cluster);
    bytes = blob.size();
    benchmark::DoNotOptimize(blob);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes));
}
BENCHMARK(BM_EncodeCluster)->Arg(100)->Arg(400)->Arg(1600)->Unit(benchmark::kMicrosecond);

void BM_DecodeCluster(benchmark::State& state) {
  const Cluster cluster = MakeCluster(static_cast<uint32_t>(state.range(0)), 128);
  const std::vector<uint8_t> blob = EncodeCluster(cluster);
  for (auto _ : state) {
    auto decoded = DecodeCluster(blob, HnswOptions{});
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * blob.size()));
}
BENCHMARK(BM_DecodeCluster)->Arg(100)->Arg(400)->Arg(1600)->Unit(benchmark::kMicrosecond);

ProductQuantizer MakePq(uint32_t dim, uint32_t m) {
  Xoshiro256 rng(dim * 31 + m);
  std::vector<float> samples(4096ull * dim);
  for (auto& x : samples) x = static_cast<float>(rng.NextDouble() * 2.0 - 1.0);
  auto pq = ProductQuantizer::Train(dim, m, samples, 6, 11);
  if (!pq.ok()) std::abort();
  return std::move(pq).value();
}

void BM_PqEncode(benchmark::State& state) {
  const uint32_t dim = 128;
  const ProductQuantizer pq = MakePq(dim, 8);
  Xoshiro256 rng(5);
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  std::vector<float> rows(static_cast<size_t>(n) * dim);
  for (auto& x : rows) x = static_cast<float>(rng.NextDouble() * 2.0 - 1.0);
  std::vector<uint8_t> codes(static_cast<size_t>(n) * pq.m());
  for (auto _ : state) {
    for (uint32_t i = 0; i < n; ++i) {
      pq.Encode(std::span<const float>(rows).subspan(static_cast<size_t>(i) * dim, dim),
                std::span<uint8_t>(codes).subspan(static_cast<size_t>(i) * pq.m(), pq.m()));
    }
    benchmark::DoNotOptimize(codes.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_PqEncode)->Arg(100)->Arg(1600)->Unit(benchmark::kMicrosecond);

void BM_PqDecodeCodes(benchmark::State& state) {
  const uint32_t dim = 128;
  const ProductQuantizer pq = MakePq(dim, 8);
  Xoshiro256 rng(6);
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  std::vector<uint8_t> codes(static_cast<size_t>(n) * pq.m());
  for (auto& c : codes) c = static_cast<uint8_t>(rng.Next());
  std::vector<float> rec(dim);
  for (auto _ : state) {
    for (uint32_t i = 0; i < n; ++i) {
      pq.Decode(std::span<const uint8_t>(codes).subspan(
                    static_cast<size_t>(i) * pq.m(), pq.m()),
                rec);
      benchmark::DoNotOptimize(rec.data());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_PqDecodeCodes)->Arg(100)->Arg(1600)->Unit(benchmark::kMicrosecond);

void BM_DecodePqClusterPrefix(benchmark::State& state) {
  // The payload=pq hot decode: prefix-only blob -> PqCluster.
  const uint32_t dim = 128;
  const uint32_t count = static_cast<uint32_t>(state.range(0));
  const Cluster cluster = MakeCluster(count, dim);
  const ProductQuantizer pq = MakePq(dim, 8);
  std::vector<uint8_t> codes(static_cast<size_t>(count) * pq.m());
  for (uint32_t i = 0; i < count; ++i) {
    pq.Encode(cluster.index.vector(i),
              std::span<uint8_t>(codes).subspan(static_cast<size_t>(i) * pq.m(), pq.m()));
  }
  ClusterPqExtensions ext;
  ext.codes = codes;
  ext.code_m = pq.m();
  uint64_t head = 0;
  const std::vector<uint8_t> blob = EncodeCluster(cluster, ext, &head);
  const std::span<const uint8_t> prefix = std::span<const uint8_t>(blob).first(head);
  if (state.thread_index() == 0) {
    // One-line compressed-vs-raw answer for the bytes-on-the-wire question.
    state.counters["raw_blob_bytes"] = static_cast<double>(blob.size());
    state.counters["pq_prefix_bytes"] = static_cast<double>(head);
    state.counters["wire_ratio"] =
        static_cast<double>(blob.size()) / static_cast<double>(head);
  }
  for (auto _ : state) {
    auto decoded = DecodePqCluster(prefix);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * head);
}
BENCHMARK(BM_DecodePqClusterPrefix)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Unit(benchmark::kMicrosecond);

template <uint32_t (*Crc)(std::span<const uint8_t>, uint32_t) noexcept>
void RunCrc(benchmark::State& state) {
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)));
  Xoshiro256 rng(3);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc(data, 0));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * data.size()));
}

// The dispatched path (labelled with the implementation this CPU runs) and
// the table-driven reference side by side.
void BM_Crc32c(benchmark::State& state) {
  state.SetLabel(Crc32cImplementation());
  RunCrc<&Crc32c>(state);
}
BENCHMARK(BM_Crc32c)->Arg(4096)->Arg(1 << 20);

void BM_Crc32cPortable(benchmark::State& state) { RunCrc<&Crc32cPortable>(state); }
BENCHMARK(BM_Crc32cPortable)->Arg(4096)->Arg(1 << 20);

void BM_OverflowAreaDecode(benchmark::State& state) {
  const uint32_t dim = 128;
  const size_t rec = OverflowRecordSize(dim);
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  std::vector<uint8_t> area(rec * n);
  std::vector<float> v(dim, 1.5f);
  for (uint32_t i = 0; i < n; ++i) {
    EncodeOverflowRecord(i, v, std::span<uint8_t>(area).subspan(i * rec, rec));
  }
  for (auto _ : state) {
    auto records = DecodeOverflowArea(area, area.size(), dim);
    benchmark::DoNotOptimize(records);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_OverflowAreaDecode)->Arg(16)->Arg(256);

}  // namespace
}  // namespace dhnsw
