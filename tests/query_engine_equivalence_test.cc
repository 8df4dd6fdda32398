// Query-engine equivalence: the overhauled query stack -- arena-backed
// contiguous level storage, weight-indexed sorted views built straight
// from the levels and repaired in place after level-0 appends, and the
// bulk-rank co-scan kernels -- must produce *bit-identical* answers to the
// seed-era scalar paths, on randomized streams, across every query
// surface (plain sketch, Section 5 chain, sharded, windowed).
//
// The reference implementation below is the seed-era algorithm verbatim:
// collect all (item, weight) pairs, std::sort them, scan cumulative
// weights, and answer each query with its own binary search. A second
// reference, FullRebuildView, is the seed-era full-rebuild path of the
// production view (collect every weighted pair, build a SortedView from
// scratch), pinning the memoized view -- repaired or rebuilt -- against it
// directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/req_chain.h"
#include "core/req_serde.h"
#include "core/req_sketch.h"
#include "core/sorted_view.h"
#include "util/random.h"
#include "window/windowed_req_sketch.h"
#include "workload/distributions.h"

namespace req {
namespace {

// Seed-era reference view: sorted weighted pairs + inclusive cumulative
// weights, one binary search per query.
class RefView {
 public:
  RefView(std::vector<std::pair<double, uint64_t>> weighted,
          uint64_t total) {
    std::sort(weighted.begin(), weighted.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    uint64_t cum = 0;
    for (auto& [item, weight] : weighted) {
      cum += weight;
      items_.push_back(item);
      cums_.push_back(cum);
    }
    EXPECT_EQ(cum, total);
  }

  uint64_t Rank(double y, Criterion criterion) const {
    size_t idx;
    if (criterion == Criterion::kInclusive) {
      idx = static_cast<size_t>(
          std::upper_bound(items_.begin(), items_.end(), y) -
          items_.begin());
    } else {
      idx = static_cast<size_t>(
          std::lower_bound(items_.begin(), items_.end(), y) -
          items_.begin());
    }
    return idx == 0 ? 0 : cums_[idx - 1];
  }

  double Quantile(double q, Criterion criterion) const {
    const uint64_t total = cums_.back();
    const double pos = q * static_cast<double>(total);
    uint64_t target;
    if (criterion == Criterion::kInclusive) {
      target = static_cast<uint64_t>(std::ceil(pos));
      if (target == 0) target = 1;
    } else {
      target = static_cast<uint64_t>(std::floor(pos)) + 1;
    }
    if (target > total) return items_.back();
    const size_t idx = static_cast<size_t>(
        std::lower_bound(cums_.begin(), cums_.end(), target) -
        cums_.begin());
    return items_[idx];
  }

 private:
  std::vector<double> items_;
  std::vector<uint64_t> cums_;
};

RefView MakeRef(const ReqSketch<double>& sketch) {
  std::vector<std::pair<double, uint64_t>> weighted;
  sketch.AppendWeightedItems(&weighted);
  return RefView(std::move(weighted), sketch.TotalWeight());
}

// Seed-era full rebuild of the sketch's sorted view: collect every
// (item, weight) pair and sort, with no per-level runs reused.
SortedView<double> FullRebuildView(const ReqSketch<double>& sketch) {
  std::vector<std::pair<double, uint64_t>> weighted;
  weighted.reserve(sketch.RetainedItems());
  sketch.AppendWeightedItems(&weighted);
  return SortedView<double>(std::move(weighted), sketch.TotalWeight());
}

std::vector<double> MakeProbes(const std::vector<double>& values,
                               util::Xoshiro256& rng, size_t count) {
  std::vector<double> probes;
  probes.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    // Mix of present values and off-grid points, unsorted on purpose.
    const double v = values[rng.NextBounded(values.size())];
    probes.push_back(i % 3 == 0 ? v + 0.25 : v);
  }
  return probes;
}

// The full surface check for one sketch state: bulk kernel (pointer and
// vector forms) vs scalar loop vs seed-era reference, both criteria, plus
// quantiles and CDF.
void CheckPlainSurface(const ReqSketch<double>& sketch,
                       const std::vector<double>& probes) {
  const RefView ref = MakeRef(sketch);
  for (Criterion criterion :
       {Criterion::kInclusive, Criterion::kExclusive}) {
    const std::vector<uint64_t> bulk = sketch.GetRanks(probes, criterion);
    std::vector<uint64_t> bulk_ptr(probes.size());
    sketch.GetRanks(probes.data(), probes.size(), bulk_ptr.data(),
                    criterion);
    ASSERT_EQ(bulk, bulk_ptr);
    for (size_t i = 0; i < probes.size(); ++i) {
      ASSERT_EQ(bulk[i], sketch.GetRank(probes[i], criterion))
          << "probe " << i;
      ASSERT_EQ(bulk[i], ref.Rank(probes[i], criterion)) << "probe " << i;
    }
  }
  for (double q : {0.01, 0.1, 0.25, 0.5, 0.77, 0.9, 0.99, 0.999}) {
    ASSERT_EQ(sketch.GetQuantile(q), ref.Quantile(q, Criterion::kInclusive))
        << "q=" << q;
    ASSERT_EQ(sketch.GetQuantile(q, Criterion::kExclusive),
              ref.Quantile(q, Criterion::kExclusive))
        << "q=" << q;
  }
  // CDF at sorted distinct splits == per-split normalized ranks.
  std::vector<double> splits = probes;
  std::sort(splits.begin(), splits.end());
  splits.erase(std::unique(splits.begin(), splits.end()), splits.end());
  const std::vector<double> cdf = sketch.GetCDF(splits);
  ASSERT_EQ(cdf.size(), splits.size() + 1);
  for (size_t i = 0; i < splits.size(); ++i) {
    const double expected =
        static_cast<double>(ref.Rank(splits[i], Criterion::kInclusive)) /
        static_cast<double>(sketch.n());
    ASSERT_EQ(cdf[i], expected) << "split " << i;
  }
  ASSERT_EQ(cdf.back(), 1.0);
}

TEST(QueryEngineEquivalenceTest, PlainSketchRandomizedInterleaving) {
  for (uint32_t k : {16u, 64u}) {
    ReqConfig config;
    config.k_base = k;
    config.seed = 1234 + k;
    ReqSketch<double> sketch(config);
    util::Xoshiro256 rng(99 + k);
    const auto values = workload::GenerateLognormal(60000, 7 + k);

    size_t consumed = 0;
    for (size_t round = 0; round < 12; ++round) {
      // Alternate single-item updates (point-update repair path) with
      // batches (cascade-heavy path) between query checkpoints.
      const size_t chunk = 1 + rng.NextBounded(9000);
      const size_t end = std::min(values.size(), consumed + chunk);
      if (round % 2 == 0) {
        for (size_t i = consumed; i < end; ++i) sketch.Update(values[i]);
      } else {
        sketch.Update(values.data() + consumed, end - consumed);
      }
      consumed = end;
      const auto probes = MakeProbes(values, rng, 200);
      CheckPlainSurface(sketch, probes);
      // A point update right before querying exercises the level-0
      // append repair specifically.
      sketch.Update(values[rng.NextBounded(consumed)]);
      CheckPlainSurface(sketch, probes);
    }
  }
}

TEST(QueryEngineEquivalenceTest, IncrementalRepairMatchesFullRebuild) {
  ReqConfig config;
  config.k_base = 32;
  config.seed = 5;
  ReqSketch<double> incremental(config);

  util::Xoshiro256 rng(17);
  const auto values = workload::GenerateUniform(40000, 23);
  size_t consumed = 0;
  while (consumed < values.size()) {
    const size_t end =
        std::min(values.size(), consumed + 1 + rng.NextBounded(3000));
    incremental.Update(values.data() + consumed, end - consumed);
    consumed = end;
    const SortedView<double> full = FullRebuildView(incremental);
    ASSERT_EQ(incremental.CachedSortedView().items(), full.items());
    ASSERT_EQ(incremental.CachedSortedView().cum_weights(), full.cum_weights());
    const auto probes = MakeProbes(values, rng, 100);
    std::vector<uint64_t> full_ranks(probes.size());
    full.GetRanks(probes.data(), probes.size(), full_ranks.data(),
                  Criterion::kInclusive);
    ASSERT_EQ(incremental.GetRanks(probes), full_ranks);
    for (double q : {0.001, 0.3, 0.5, 0.9, 0.995}) {
      ASSERT_EQ(incremental.GetQuantile(q),
                full.GetQuantile(q, Criterion::kInclusive));
    }
    std::vector<double> splits = probes;
    std::sort(splits.begin(), splits.end());
    splits.erase(std::unique(splits.begin(), splits.end()), splits.end());
    ASSERT_EQ(incremental.GetCDF(splits),
              full.GetCDF(splits, Criterion::kInclusive));
  }
}

// The seed of the randomized view tests: REQ_TEST_SEED when set, else a
// fresh one. Printed either way, so a failing run replays with
// REQ_TEST_SEED=<seed>.
uint64_t TestSeed() {
  const char* env = std::getenv("REQ_TEST_SEED");
  const uint64_t seed = env != nullptr
                            ? std::strtoull(env, nullptr, 10)
                            : (uint64_t{std::random_device{}()} << 32) |
                                  std::random_device{}();
  std::printf("REQ_TEST_SEED=%llu\n", static_cast<unsigned long long>(seed));
  return seed;
}

// The items' bit patterns, so that -0.0 and +0.0 compare unequal.
std::vector<uint64_t> ItemBits(const std::vector<double>& items) {
  std::vector<uint64_t> bits(items.size());
  std::memcpy(bits.data(), items.data(), items.size() * sizeof(double));
  return bits;
}

void ExpectSameView(const SortedView<double>& actual,
                    const SortedView<double>& expected) {
  ASSERT_EQ(ItemBits(actual.items()), ItemBits(expected.items()));
  ASSERT_EQ(actual.cum_weights(), expected.cum_weights());
  ASSERT_EQ(actual.total_weight(), expected.total_weight());
}

// The facts that decide whether the next view may be an append repair.
struct LevelStamp {
  size_t num_levels = 0;
  uint64_t upper_versions = 0;
  size_t level0_size = 0;
  uint64_t level0_compactions = 0;
};

LevelStamp Stamp(const ReqSketch<double>& sketch) {
  LevelStamp stamp;
  stamp.num_levels = sketch.num_levels();
  for (size_t h = 1; h < sketch.num_levels(); ++h) {
    stamp.upper_versions += sketch.levels()[h].version();
  }
  stamp.level0_size = sketch.levels()[0].size();
  stamp.level0_compactions = sketch.levels()[0].num_compactions();
  return stamp;
}

bool OnlyLevel0Grew(const LevelStamp& before, const LevelStamp& after) {
  return before.num_levels == after.num_levels &&
         before.upper_versions == after.upper_versions &&
         before.level0_compactions == after.level0_compactions &&
         before.level0_size < after.level0_size;
}

// Point updates, small appends that fit in level 0, batches that compact
// and merges, in random order; after every step the memoized view must
// equal a from-scratch build bit for bit. Continuous data, so the
// reference's unstable sort has no ties to order.
TEST(QueryEngineEquivalenceTest, ViewMatchesFullRebuildUnderRandomMutations) {
  const uint64_t seed = TestSeed();
  SCOPED_TRACE("REQ_TEST_SEED=" + std::to_string(seed));
  for (RankAccuracy accuracy :
       {RankAccuracy::kHighRanks, RankAccuracy::kLowRanks}) {
    for (uint32_t k : {16u, 32u, 256u}) {
      SCOPED_TRACE("k_base " + std::to_string(k) +
                   (accuracy == RankAccuracy::kHighRanks ? " HRA" : " LRA"));
      ReqConfig config;
      config.k_base = k;
      config.accuracy = accuracy;
      config.seed = seed + k;
      ReqSketch<double> sketch(config);
      util::Xoshiro256 rng(seed ^ (k * 0x9e3779b97f4a7c15ULL) ^
                           static_cast<uint64_t>(accuracy));
      std::vector<double> chunk;
      const auto draw = [&](size_t m) -> const std::vector<double>& {
        chunk.resize(m);
        for (double& v : chunk) v = std::exp(4.0 * rng.NextDouble()) - 1.0;
        return chunk;
      };
      size_t repairs = 0;
      size_t merges = 0;
      for (int step = 0; step < 240; ++step) {
        const LevelStamp before = Stamp(sketch);
        const size_t capacity = sketch.levels()[0].capacity();
        const size_t size = sketch.levels()[0].size();
        const size_t room = capacity > size ? capacity - size : 0;
        const uint64_t action = rng.NextBounded(10);
        if (action < 3 || room < 2) {
          sketch.Update(draw(1)[0]);
        } else if (action < 6) {
          // Stays below level 0's capacity, so nothing compacts.
          const size_t m = 1 + rng.NextBounded(std::min<size_t>(room - 1, 64));
          sketch.Update(draw(m));
        } else if (action < 9) {
          const size_t m = 1 + rng.NextBounded(4 * sketch.level_capacity());
          sketch.Update(draw(m));
        } else {
          ReqConfig side_config = config;
          side_config.seed = rng.Next();
          ReqSketch<double> side(side_config);
          side.Update(draw(1 + rng.NextBounded(20000)));
          sketch.Merge(side);
          ++merges;
        }
        if (OnlyLevel0Grew(before, Stamp(sketch))) ++repairs;
        ExpectSameView(sketch.CachedSortedView(), FullRebuildView(sketch));
      }
      // Both paths ran: repairs after level-0 appends, full builds after
      // compactions and merges.
      EXPECT_GT(repairs, 40u);
      EXPECT_GT(merges, 5u);
      EXPECT_GT(sketch.num_levels(), 2u);
    }
  }
}

// Two sketches fed the same stream -- duplicates and both signed zeros
// included -- end with the same view whether one was queried after every
// append and the other only at the end: the view depends on the level
// contents alone, not on which repairs and builds produced it.
TEST(QueryEngineEquivalenceTest, ViewDoesNotDependOnQueryHistory) {
  const uint64_t seed = TestSeed();
  SCOPED_TRACE("REQ_TEST_SEED=" + std::to_string(seed));
  const double kTies[] = {-0.0, 0.0, -1.0, 1.0, 2.5, 1e3};
  for (RankAccuracy accuracy :
       {RankAccuracy::kHighRanks, RankAccuracy::kLowRanks}) {
    for (uint32_t k : {16u, 64u}) {
      SCOPED_TRACE("k_base " + std::to_string(k) +
                   (accuracy == RankAccuracy::kHighRanks ? " HRA" : " LRA"));
      ReqConfig config;
      config.k_base = k;
      config.accuracy = accuracy;
      config.seed = seed + k;
      ReqSketch<double> queried(config);
      ReqSketch<double> quiet(config);
      util::Xoshiro256 rng(seed ^ k ^ static_cast<uint64_t>(accuracy));
      std::vector<double> chunk;
      for (int step = 0; step < 1500; ++step) {
        const size_t m = rng.NextBounded(8) == 0 ? 1 + rng.NextBounded(300)
                                                 : 1 + rng.NextBounded(6);
        chunk.resize(m);
        for (double& v : chunk) {
          v = rng.NextBit() ? kTies[rng.NextBounded(6)]
                            : 10.0 * rng.NextDouble() - 5.0;
        }
        queried.Update(chunk);
        quiet.Update(chunk);
        (void)queried.GetQuantile(0.5);
      }
      ExpectSameView(queried.CachedSortedView(), quiet.CachedSortedView());
      EXPECT_EQ(queried.GetQuantiles({0.1, 0.5, 0.9, 0.99}),
                quiet.GetQuantiles({0.1, 0.5, 0.9, 0.99}));
    }
  }
}

TEST(QueryEngineEquivalenceTest, MergeDirtiesUpperLevelsConsistently) {
  // Merging dirties many levels at once; the repaired view must still
  // match the reference exactly.
  ReqConfig config;
  config.k_base = 16;
  config.seed = 3;
  ReqSketch<double> sketch(config);
  util::Xoshiro256 rng(31);
  const auto values = workload::GenerateUniform(30000, 41);
  sketch.Update(values.data(), 10000);
  CheckPlainSurface(sketch, MakeProbes(values, rng, 100));

  ReqConfig side_config = config;
  side_config.seed = 77;
  ReqSketch<double> side(side_config);
  side.Update(values.data() + 10000, 20000);
  sketch.Merge(side);
  CheckPlainSurface(sketch, MakeProbes(values, rng, 150));
  // Point update after the merge: level-0 append repair on top of the
  // view the merge rebuilt.
  sketch.Update(values[5]);
  CheckPlainSurface(sketch, MakeProbes(values, rng, 150));
}

TEST(QueryEngineEquivalenceTest, QueriesDoNotPerturbSerializedState) {
  // The view builder reads the levels in place and sorts copies of their
  // tails: running the whole query surface must not change the sketch's
  // serialized bytes (storage order included).
  ReqConfig config;
  config.k_base = 32;
  config.seed = 11;
  ReqSketch<double> sketch(config);
  const auto values = workload::GenerateLognormal(50000, 13);
  sketch.Update(values);
  const auto before = SerializeSketch(sketch);
  util::Xoshiro256 rng(7);
  const auto probes = MakeProbes(values, rng, 300);
  (void)sketch.GetRanks(probes);
  (void)sketch.GetQuantile(0.5);
  std::vector<double> splits = probes;
  std::sort(splits.begin(), splits.end());
  splits.erase(std::unique(splits.begin(), splits.end()), splits.end());
  (void)sketch.GetCDF(splits);
  EXPECT_EQ(SerializeSketch(sketch), before);
}

TEST(QueryEngineEquivalenceTest, ChainBulkMatchesScalarLoop) {
  ReqConfig config;
  config.k_base = 16;
  config.seed = 9;
  ReqChain<double> chain(config);
  util::Xoshiro256 rng(53);
  // Long enough to force several close-outs.
  const auto values = workload::GenerateUniform(120000, 61);
  size_t consumed = 0;
  while (consumed < values.size()) {
    const size_t end =
        std::min(values.size(), consumed + 1 + rng.NextBounded(30000));
    chain.Update(values.data() + consumed, end - consumed);
    consumed = end;
    const auto probes = MakeProbes(values, rng, 120);
    const auto bulk = chain.GetRanks(probes);
    std::vector<uint64_t> bulk_ptr(probes.size());
    chain.GetRanks(probes.data(), probes.size(), bulk_ptr.data(),
                   Criterion::kInclusive);
    ASSERT_EQ(bulk, bulk_ptr);
    for (size_t i = 0; i < probes.size(); ++i) {
      ASSERT_EQ(bulk[i], chain.GetRank(probes[i])) << "probe " << i;
    }
    std::vector<double> splits = probes;
    std::sort(splits.begin(), splits.end());
    splits.erase(std::unique(splits.begin(), splits.end()), splits.end());
    const auto cdf = chain.GetCDF(splits);
    for (size_t i = 0; i < splits.size(); ++i) {
      ASSERT_EQ(cdf[i],
                static_cast<double>(chain.GetRank(splits[i])) /
                    static_cast<double>(chain.n()));
    }
    const auto quantiles = chain.GetQuantiles({0.1, 0.5, 0.9});
    ASSERT_EQ(quantiles[1], chain.GetQuantile(0.5));
  }
  EXPECT_GT(chain.num_summaries(), 1u);
}

// The sharded metric's query path: per-shard sketches (shard i seeded
// base.seed + i, item i into shard i % 4) answered through MergeShards.
TEST(QueryEngineEquivalenceTest, ShardedBulkMatchesScalarLoop) {
  constexpr size_t kShards = 4;
  ReqConfig base;
  base.k_base = 32;
  base.seed = 21;
  std::vector<ReqSketch<double>> shards;
  for (size_t i = 0; i < kShards; ++i) {
    ReqConfig config = base;
    config.seed = base.seed + i;
    shards.emplace_back(config);
  }
  std::vector<const ReqSketch<double>*> pointers;
  for (const auto& shard : shards) pointers.push_back(&shard);
  util::Xoshiro256 rng(71);
  const auto values = workload::GenerateLognormal(40000, 83);
  for (size_t i = 0; i < values.size(); ++i) {
    shards[i % kShards].Update(values[i]);
  }

  const auto probes = MakeProbes(values, rng, 200);
  const auto merged = MergeShards(base, pointers);
  const auto bulk = merged.GetRanks(probes);
  std::vector<uint64_t> bulk_ptr(probes.size());
  merged.GetRanks(probes.data(), probes.size(), bulk_ptr.data(),
                  Criterion::kInclusive);
  ASSERT_EQ(bulk, bulk_ptr);
  const RefView ref = MakeRef(merged);
  for (size_t i = 0; i < probes.size(); ++i) {
    ASSERT_EQ(bulk[i], merged.GetRank(probes[i])) << "probe " << i;
    ASSERT_EQ(bulk[i], ref.Rank(probes[i], Criterion::kInclusive))
        << "probe " << i;
  }
  // One more item into a single shard between query rounds: the
  // re-merged view's answers must track it exactly.
  shards[0].Update(values[0]);
  const auto merged2 = MergeShards(base, pointers);
  const auto bulk2 = merged2.GetRanks(probes);
  for (size_t i = 0; i < probes.size(); ++i) {
    ASSERT_EQ(bulk2[i], merged2.GetRank(probes[i])) << "probe " << i;
  }
}

TEST(QueryEngineEquivalenceTest, WindowedBulkMatchesScalarLoop) {
  window::WindowedReqConfig config;
  config.num_buckets = 4;
  config.bucket_items = 5000;
  config.base.k_base = 32;
  config.base.seed = 29;
  window::WindowedReqSketch<double> windowed(config);
  util::Xoshiro256 rng(91);
  const auto values = workload::GenerateUniform(36000, 97);
  size_t consumed = 0;
  while (consumed < values.size()) {
    const size_t end =
        std::min(values.size(), consumed + 1 + rng.NextBounded(7000));
    windowed.Update(values.data() + consumed, end - consumed);
    consumed = end;
    const auto probes = MakeProbes(values, rng, 120);
    const auto bulk = windowed.GetRanks(probes);
    std::vector<uint64_t> bulk_ptr(probes.size());
    windowed.GetRanks(probes.data(), probes.size(), bulk_ptr.data(),
                      Criterion::kInclusive);
    ASSERT_EQ(bulk, bulk_ptr);
    const auto snapshot = windowed.MergedSnapshot();
    for (size_t i = 0; i < probes.size(); ++i) {
      ASSERT_EQ(bulk[i], windowed.GetRank(probes[i])) << "probe " << i;
      ASSERT_EQ(bulk[i], snapshot.GetRank(probes[i])) << "probe " << i;
    }
  }
  EXPECT_GT(windowed.rotations(), 0u);
}

TEST(QueryEngineEquivalenceTest, ArenaSerdeRoundTripIsByteStable) {
  // Arena-backed storage must serialize exactly like the level layout it
  // replaced: round-tripping is byte-stable and query-equivalent.
  ReqConfig config;
  config.k_base = 64;
  config.seed = 47;
  ReqSketch<double> sketch(config);
  const auto values = workload::GenerateLognormal(80000, 51);
  sketch.Update(values);
  const auto bytes = SerializeSketch(sketch);
  auto restored = DeserializeSketch<double>(bytes);
  EXPECT_EQ(SerializeSketch(restored), bytes);
  util::Xoshiro256 rng(3);
  const auto probes = MakeProbes(values, rng, 150);
  EXPECT_EQ(restored.GetRanks(probes), sketch.GetRanks(probes));
  EXPECT_EQ(restored.GetQuantile(0.99), sketch.GetQuantile(0.99));
}

}  // namespace
}  // namespace req
