// Property tests for sharded ingestion: shard-count invariance of the
// error guarantee (Theorem 3). A stream split over 1, 2 or 8 plain
// ReqSketch shards and answered through MergeShards (the merged view a
// kSharded service metric answers from) must stay inside the rank
// confidence envelope on the standard workload distributions.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "core/req_sketch.h"
#include "sim/metrics.h"
#include "workload/distributions.h"

namespace req {
namespace {

using workload::DistKind;

using ShardParam = std::tuple<size_t /*shards*/, DistKind>;

class ShardCountInvariance : public ::testing::TestWithParam<ShardParam> {
 protected:
  static constexpr size_t kN = 40000;

  static ReqConfig BaseConfig() {
    ReqConfig config;
    config.k_base = 32;
    config.accuracy = RankAccuracy::kHighRanks;
    config.seed = 1234;
    return config;
  }

  // Item i goes into shard i % shards; shard s is seeded base.seed + s.
  // Returns the MergeShards view over the shards.
  static ReqSketch<double> ShardAndMerge(const std::vector<double>& values,
                                         size_t shards) {
    std::vector<ReqSketch<double>> parts;
    parts.reserve(shards);
    for (size_t s = 0; s < shards; ++s) {
      ReqConfig config = BaseConfig();
      config.seed += s;
      parts.emplace_back(config);
    }
    for (size_t i = 0; i < values.size(); ++i) {
      parts[i % shards].Update(values[i]);
    }
    std::vector<const ReqSketch<double>*> pointers;
    for (const auto& part : parts) pointers.push_back(&part);
    return MergeShards(BaseConfig(), pointers);
  }
};

// The merged view's estimates stay within the statistical envelope the
// analysis promises, independent of how many shards the stream was split
// over (Theorem 3: mergeability does not degrade the guarantee).
TEST_P(ShardCountInvariance, RankErrorEnvelope) {
  const auto& [shards, dist] = GetParam();
  const auto values = workload::Generate(dist, kN, /*seed=*/31337);
  const ReqSketch<double> merged = ShardAndMerge(values, shards);
  ASSERT_EQ(merged.n(), values.size());

  sim::RankOracle oracle(values);
  const auto grid = sim::GeometricRankGrid(values.size(), true);
  const auto samples = sim::EvaluateRankErrors(
      oracle, [&](double y) { return merged.GetRank(y); }, grid, true);
  EXPECT_LT(sim::Summarize(samples).max_relative_error,
            6.0 * merged.RelativeStdErr());
}

// The true rank must (almost) always lie inside the 3-standard-deviation
// confidence interval reported by GetRankLowerBound/GetRankUpperBound.
TEST_P(ShardCountInvariance, ConfidenceBoundsCoverTrueRank) {
  const auto& [shards, dist] = GetParam();
  const auto values = workload::Generate(dist, kN, /*seed=*/4711);
  const ReqSketch<double> merged = ShardAndMerge(values, shards);

  sim::RankOracle oracle(values);
  const auto grid = sim::GeometricRankGrid(values.size(), true);
  size_t covered = 0;
  for (uint64_t r : grid) {
    const double item = oracle.ItemAtRank(r);
    const uint64_t truth = oracle.RankInclusive(item);
    const uint64_t lo = merged.GetRankLowerBound(item, 3);
    const uint64_t hi = merged.GetRankUpperBound(item, 3);
    ASSERT_LE(lo, hi);
    if (lo <= truth && truth <= hi) ++covered;
  }
  // 3 standard deviations ~ 99.7% pointwise; demand >= 95% of the grid.
  EXPECT_GE(static_cast<double>(covered),
            0.95 * static_cast<double>(grid.size()))
      << "covered " << covered << " of " << grid.size();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ShardCountInvariance,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{2}, size_t{8}),
                       ::testing::Values(DistKind::kUniform,
                                         DistKind::kLognormal,
                                         DistKind::kZipf,
                                         DistKind::kSequential)),
    [](const ::testing::TestParamInfo<ShardParam>& info) {
      return "shards" + std::to_string(std::get<0>(info.param)) + "_" +
             workload::DistName(std::get<1>(info.param));
    });

}  // namespace
}  // namespace req
