// Coverage for HNSW construction options (Algorithm 4's switches, metric
// variants) that the main hnsw test leaves at their defaults.
#include <gtest/gtest.h>

#include <ostream>
#include <set>

#include "common/rng.h"
#include "index/flat_index.h"
#include "index/hnsw.h"

namespace dhnsw {
namespace {

std::vector<float> RandomVector(Xoshiro256& rng, uint32_t dim, float scale = 1.0f) {
  std::vector<float> v(dim);
  for (auto& x : v) x = (rng.NextFloat() - 0.5f) * scale;
  return v;
}

double RecallVsFlat(const HnswIndex& index, const FlatIndex& flat, Xoshiro256& rng,
                    uint32_t dim, int queries, size_t k, uint32_t ef) {
  int hits = 0;
  for (int t = 0; t < queries; ++t) {
    const auto q = RandomVector(rng, dim, 5.0f);
    const auto got = index.Search(q, k, ef);
    const auto want = flat.Search(q, k);
    std::set<uint32_t> want_ids;
    for (const auto& s : want) want_ids.insert(s.id);
    for (const auto& s : got) hits += want_ids.count(s.id);
  }
  return static_cast<double>(hits) / (queries * static_cast<double>(k));
}

struct OptionCase {
  const char* name;
  bool extend_candidates;
  bool keep_pruned;
};

// Without this gtest prints the raw bytes of the case, which include the
// address of `name` and so change from build to build.
void PrintTo(const OptionCase& oc, std::ostream* os) { *os << oc.name; }

class HnswOptionSweep : public ::testing::TestWithParam<OptionCase> {};

TEST_P(HnswOptionSweep, ValidGraphAndGoodRecall) {
  const OptionCase& oc = GetParam();
  HnswOptions options;
  options.M = 8;
  options.ef_construction = 60;
  options.extend_candidates = oc.extend_candidates;
  options.keep_pruned_connections = oc.keep_pruned;

  Xoshiro256 rng(271);
  const uint32_t dim = 8;
  HnswIndex index(dim, options);
  FlatIndex flat(dim);
  for (int i = 0; i < 1200; ++i) {
    const auto v = RandomVector(rng, dim, 5.0f);
    index.Add(v);
    flat.Add(v);
  }
  ASSERT_TRUE(index.Validate().ok()) << oc.name;
  EXPECT_GT(RecallVsFlat(index, flat, rng, dim, 25, 10, 80), 0.8) << oc.name;
}

INSTANTIATE_TEST_SUITE_P(
    Switches, HnswOptionSweep,
    ::testing::Values(OptionCase{"plain", false, false},
                      OptionCase{"extend", true, false},
                      OptionCase{"keep_pruned", false, true},
                      OptionCase{"both", true, true}),
    [](const ::testing::TestParamInfo<OptionCase>& info) { return info.param.name; });

class HnswMetricSweep : public ::testing::TestWithParam<Metric> {};

TEST_P(HnswMetricSweep, MatchesFlatUnderSameMetric) {
  const Metric metric = GetParam();
  HnswOptions options;
  options.M = 12;
  options.ef_construction = 80;
  options.metric = metric;

  Xoshiro256 rng(272);
  const uint32_t dim = 12;
  HnswIndex index(dim, options);
  FlatIndex flat(dim, metric);
  for (int i = 0; i < 800; ++i) {
    // Offset away from the origin so cosine is well-conditioned.
    auto v = RandomVector(rng, dim, 4.0f);
    v[0] += 6.0f;
    index.Add(v);
    flat.Add(v);
  }
  ASSERT_TRUE(index.Validate().ok());

  int top1_hits = 0;
  const int queries = 40;
  for (int t = 0; t < queries; ++t) {
    auto q = RandomVector(rng, dim, 4.0f);
    q[0] += 6.0f;
    const auto got = index.Search(q, 1, 80);
    const auto want = flat.Search(q, 1);
    ASSERT_FALSE(got.empty());
    top1_hits += (got[0].id == want[0].id);
  }
  EXPECT_GT(top1_hits, queries * 8 / 10) << MetricName(metric);
}

INSTANTIATE_TEST_SUITE_P(Metrics, HnswMetricSweep,
                         ::testing::Values(Metric::kL2, Metric::kInnerProduct,
                                           Metric::kCosine),
                         [](const ::testing::TestParamInfo<Metric>& info) {
                           return std::string(MetricName(info.param));
                         });

TEST(HnswOptionsTest, SmallMIsClampedToTwo) {
  HnswOptions options;
  options.M = 1;
  HnswIndex index(4, options);
  EXPECT_EQ(index.options().M, 2u);
}

TEST(HnswOptionsTest, DuplicateVectorsAreHandled) {
  // Exact duplicates stress neighbor selection (zero distances everywhere).
  HnswIndex index(4, {.M = 4, .ef_construction = 20});
  const std::vector<float> v = {1.0f, 2.0f, 3.0f, 4.0f};
  for (int i = 0; i < 50; ++i) index.Add(v);
  EXPECT_TRUE(index.Validate().ok());
  const auto top = index.Search(v, 10, 20);
  EXPECT_EQ(top.size(), 10u);
  for (const auto& s : top) EXPECT_FLOAT_EQ(s.distance, 0.0f);
}

TEST(HnswOptionsTest, AddWithLevelForcesLevel) {
  HnswIndex index(4, {.M = 4, .ef_construction = 20});
  index.AddWithLevel(std::vector<float>{0, 0, 0, 0}, 3);
  EXPECT_EQ(index.level(0), 3u);
  EXPECT_EQ(index.max_level_in_graph(), 3);
  index.AddWithLevel(std::vector<float>{1, 1, 1, 1}, 5);
  EXPECT_EQ(index.level(1), 5u);
  EXPECT_EQ(index.entry_point(), 1u);  // new top level takes over
  EXPECT_TRUE(index.Validate().ok());
}

TEST(HnswOptionsTest, LevelDistributionIsGeometricIsh) {
  HnswOptions options;
  options.M = 16;
  options.seed = 273;
  HnswIndex index(4, options);
  Xoshiro256 rng(274);
  int level0 = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const uint32_t id = index.Add(RandomVector(rng, 4));
    level0 += (index.level(id) == 0);
  }
  // P(level 0) = 1 - 1/M = 93.75% for M=16; allow generous slack.
  EXPECT_GT(level0, n * 85 / 100);
  EXPECT_LT(level0, n * 99 / 100);
}

}  // namespace
}  // namespace dhnsw
