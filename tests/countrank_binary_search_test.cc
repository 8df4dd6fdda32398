// The binary-search CountRank (sorted prefix + linear tail) must agree
// exactly with a brute-force linear scan, for every buffer state the
// compactor can reach: pure insert tails, fully sorted post-compaction
// buffers, and mixtures of both -- under both criteria, both orientations,
// and a non-default comparator.
#include "core/relative_compactor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "core/req_common.h"
#include "util/random.h"

namespace req {
namespace {

// Reference implementation: the pre-optimization linear scan.
template <typename T, typename Compare>
uint64_t BruteForceCountRank(ItemSpan<T> items, const T& y,
                             Criterion criterion, const Compare& comp) {
  uint64_t count = 0;
  if (criterion == Criterion::kInclusive) {
    for (const T& x : items) {
      if (!comp(y, x)) ++count;  // x <= y
    }
  } else {
    for (const T& x : items) {
      if (comp(x, y)) ++count;  // x < y
    }
  }
  return count;
}

template <typename Compare>
void CheckAllProbes(const RelativeCompactor<double, Compare>& c,
                    const std::vector<double>& probes, const Compare& comp) {
  for (double y : probes) {
    for (Criterion criterion :
         {Criterion::kInclusive, Criterion::kExclusive}) {
      ASSERT_EQ(c.CountRank(y, criterion),
                BruteForceCountRank(c.items(), y, criterion, comp))
          << "y=" << y << " inclusive="
          << (criterion == Criterion::kInclusive)
          << " size=" << c.size() << " prefix=" << c.sorted_prefix();
    }
  }
}

// Drives a compactor through many insert/compact cycles with duplicate-rich
// random input and cross-checks CountRank against the brute force at every
// step. The small integer value grid forces ties, which is where
// upper/lower_bound semantics can silently diverge from a scan.
template <typename Compare = std::less<double>>
void RunRandomizedCheck(RankAccuracy acc, uint64_t seed,
                        Compare comp = Compare()) {
  RelativeCompactor<double, Compare> c(4, 4, acc,
                                       SchedulePolicy::kExponential,
                                       CoinMode::kRandom, comp);
  util::Xoshiro256 rng(seed);
  std::vector<double> probes;
  for (int g = -1; g <= 20; ++g) {
    probes.push_back(static_cast<double>(g));
    probes.push_back(static_cast<double>(g) + 0.5);
  }
  for (int round = 0; round < 400; ++round) {
    c.Insert(static_cast<double>(rng.Next() % 20));
    if (c.IsFull()) {
      // Query the full buffer (sorted prefix + full tail) before the
      // compaction consumes it...
      CheckAllProbes(c, probes, comp);
      c.Compact(rng);
      // ...and the fully sorted survivor buffer right after.
      ASSERT_TRUE(std::is_sorted(c.items().begin(), c.items().end(), comp));
      ASSERT_EQ(c.sorted_prefix(), c.size());
    }
    CheckAllProbes(c, probes, comp);
  }
}

TEST(CountRankBinarySearchTest, MatchesBruteForceHra) {
  RunRandomizedCheck(RankAccuracy::kHighRanks, 21);
}

TEST(CountRankBinarySearchTest, MatchesBruteForceLra) {
  RunRandomizedCheck(RankAccuracy::kLowRanks, 22);
}

TEST(CountRankBinarySearchTest, MatchesBruteForceReversedComparator) {
  RunRandomizedCheck<std::greater<double>>(RankAccuracy::kHighRanks, 23,
                                           std::greater<double>());
  RunRandomizedCheck<std::greater<double>>(RankAccuracy::kLowRanks, 24,
                                           std::greater<double>());
}

// The sorted-prefix invariant itself: the prefix range is always sorted,
// appending an ascending run to a sorted buffer extends the prefix
// (keeping sorted streams cheap) while a disordered append freezes it, and
// a compaction leaves the survivors fully sorted.
TEST(CountRankBinarySearchTest, SortedPrefixInvariant) {
  RelativeCompactor<double> c(4, 4, RankAccuracy::kHighRanks,
                              SchedulePolicy::kExponential,
                              CoinMode::kRandom);
  for (double v : {1.0, 2.0, 3.0}) c.Insert(v);
  EXPECT_EQ(c.sorted_prefix(), 3u);  // ascending inserts extend the prefix
  c.Insert(0.5);                     // out of order: prefix freezes
  EXPECT_EQ(c.sorted_prefix(), 3u);
  c.Insert(7.0);  // still frozen: the tail is unsorted territory
  EXPECT_EQ(c.sorted_prefix(), 3u);
  for (double v : {5.0, 4.0, 6.0}) c.Insert(v);
  EXPECT_EQ(c.sorted_prefix(), 3u);
  const auto items = c.items();
  EXPECT_TRUE(std::is_sorted(items.begin(),
                             items.begin() + static_cast<ptrdiff_t>(
                                 c.sorted_prefix())));
  util::Xoshiro256 rng(1);
  c.Compact(rng);  // one section: the four smallest, 0.5 1 2 3
  const auto survivors = c.items();
  EXPECT_EQ(c.sorted_prefix(), c.size());
  EXPECT_EQ(std::vector<double>(survivors.begin(), survivors.end()),
            (std::vector<double>{4.0, 5.0, 6.0, 7.0}));
  EXPECT_EQ(c.CountRank(5.0, Criterion::kInclusive), 2u);
  EXPECT_EQ(c.CountRank(5.0, Criterion::kExclusive), 1u);
}

// Restore (deserialization) recomputes the prefix from the data: a fully
// sorted payload is recognized as such, a partially sorted one keeps only
// the leading run.
TEST(CountRankBinarySearchTest, RestoreRecomputesPrefix) {
  RelativeCompactor<double> c(4, 4, RankAccuracy::kHighRanks,
                              SchedulePolicy::kExponential,
                              CoinMode::kRandom);
  c.Restore({1.0, 2.0, 3.0, 4.0}, 0, 0);
  EXPECT_EQ(c.sorted_prefix(), 4u);
  EXPECT_TRUE(c.sorted());
  c.Restore({3.0, 1.0, 2.0}, 5, 2);
  EXPECT_EQ(c.sorted_prefix(), 1u);
  EXPECT_FALSE(c.sorted());
  EXPECT_EQ(c.CountRank(2.0, Criterion::kInclusive), 2u);
}

}  // namespace
}  // namespace req
