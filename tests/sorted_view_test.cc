#include "core/sorted_view.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace req {
namespace {

SortedView<double> MakeView(std::vector<std::pair<double, uint64_t>> items) {
  uint64_t total = 0;
  for (const auto& [v, w] : items) total += w;
  return SortedView<double>(std::move(items), total);
}

TEST(SortedViewTest, RejectsEmpty) {
  EXPECT_THROW(SortedView<double>({}, 0), std::invalid_argument);
}

TEST(SortedViewTest, RejectsWeightMismatch) {
  EXPECT_THROW(SortedView<double>({{1.0, 2}}, 3), std::logic_error);
}

TEST(SortedViewTest, SortsAndAccumulates) {
  auto view = MakeView({{3.0, 1}, {1.0, 2}, {2.0, 4}});
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view.total_weight(), 7u);
  EXPECT_EQ(view.ItemAt(0), 1.0);
  EXPECT_EQ(view.CumWeightAt(0), 2u);
  EXPECT_EQ(view.ItemAt(1), 2.0);
  EXPECT_EQ(view.CumWeightAt(1), 6u);
  EXPECT_EQ(view.CumWeightAt(2), 7u);
}

TEST(SortedViewTest, RankInclusiveExclusive) {
  auto view = MakeView({{1.0, 2}, {2.0, 4}, {3.0, 1}});
  EXPECT_EQ(view.GetRank(0.5, Criterion::kInclusive), 0u);
  EXPECT_EQ(view.GetRank(1.0, Criterion::kInclusive), 2u);
  EXPECT_EQ(view.GetRank(1.0, Criterion::kExclusive), 0u);
  EXPECT_EQ(view.GetRank(2.0, Criterion::kInclusive), 6u);
  EXPECT_EQ(view.GetRank(2.0, Criterion::kExclusive), 2u);
  EXPECT_EQ(view.GetRank(2.5, Criterion::kInclusive), 6u);
  EXPECT_EQ(view.GetRank(99.0, Criterion::kInclusive), 7u);
}

TEST(SortedViewTest, NormalizedRank) {
  auto view = MakeView({{1.0, 5}, {2.0, 5}});
  EXPECT_DOUBLE_EQ(view.GetNormalizedRank(1.0, Criterion::kInclusive), 0.5);
  EXPECT_DOUBLE_EQ(view.GetNormalizedRank(2.0, Criterion::kInclusive), 1.0);
}

TEST(SortedViewTest, QuantileInclusive) {
  // Weights: 1.0 x2, 2.0 x4, 3.0 x1 (total 7).
  auto view = MakeView({{1.0, 2}, {2.0, 4}, {3.0, 1}});
  EXPECT_EQ(view.GetQuantile(0.0, Criterion::kInclusive), 1.0);
  EXPECT_EQ(view.GetQuantile(0.2, Criterion::kInclusive), 1.0);  // ceil(1.4)=2
  EXPECT_EQ(view.GetQuantile(0.5, Criterion::kInclusive), 2.0);
  EXPECT_EQ(view.GetQuantile(6.0 / 7.0, Criterion::kInclusive), 2.0);
  EXPECT_EQ(view.GetQuantile(1.0, Criterion::kInclusive), 3.0);
}

TEST(SortedViewTest, QuantileExclusive) {
  auto view = MakeView({{1.0, 2}, {2.0, 4}, {3.0, 1}});
  // Exclusive: smallest item whose cum weight exceeds floor(q*n).
  EXPECT_EQ(view.GetQuantile(0.0, Criterion::kExclusive), 1.0);
  EXPECT_EQ(view.GetQuantile(2.0 / 7.0, Criterion::kExclusive), 2.0);
  EXPECT_EQ(view.GetQuantile(1.0, Criterion::kExclusive), 3.0);
}

TEST(SortedViewTest, QuantileRejectsOutOfRange) {
  auto view = MakeView({{1.0, 1}});
  EXPECT_THROW(view.GetQuantile(-0.01, Criterion::kInclusive),
               std::invalid_argument);
  EXPECT_THROW(view.GetQuantile(1.01, Criterion::kInclusive),
               std::invalid_argument);
}

TEST(SortedViewTest, QuantileRankInverse) {
  // For every entry boundary, quantile(rank) should return that entry.
  auto view = MakeView({{10.0, 3}, {20.0, 2}, {30.0, 5}});
  const double n = 10.0;
  EXPECT_EQ(view.GetQuantile(3.0 / n, Criterion::kInclusive), 10.0);
  EXPECT_EQ(view.GetQuantile(3.5 / n, Criterion::kInclusive), 20.0);
  EXPECT_EQ(view.GetQuantile(5.0 / n, Criterion::kInclusive), 20.0);
  EXPECT_EQ(view.GetQuantile(5.1 / n, Criterion::kInclusive), 30.0);
}

TEST(SortedViewTest, DuplicateItemsAggregate) {
  auto view = MakeView({{5.0, 1}, {5.0, 2}, {5.0, 4}});
  EXPECT_EQ(view.GetRank(5.0, Criterion::kInclusive), 7u);
  EXPECT_EQ(view.GetRank(5.0, Criterion::kExclusive), 0u);
  EXPECT_EQ(view.GetQuantile(0.5, Criterion::kInclusive), 5.0);
}

TEST(SortedViewTest, CustomComparator) {
  std::vector<std::pair<std::string, uint64_t>> items = {
      {"banana", 1}, {"apple", 1}, {"cherry", 1}};
  SortedView<std::string> view(std::move(items), 3);
  EXPECT_EQ(view.ItemAt(0), "apple");
  EXPECT_EQ(view.GetRank("b", Criterion::kInclusive), 1u);
  EXPECT_EQ(view.GetQuantile(1.0, Criterion::kInclusive), "cherry");
}

// The k-way merge: entries carry their run's weight, ties go to the
// earlier run, and empty runs are skipped.
TEST(SortedViewTest, AssignRunsMergesWeightedRuns) {
  const std::vector<double> a = {1.0, 3.0, 5.0};
  const std::vector<double> b = {};
  const std::vector<double> c = {2.0, 3.0};
  const std::vector<double> d = {0.5, 3.0, 9.0};
  const std::vector<UniformRun<double>> runs = {
      {a.data(), a.size(), 4},
      {b.data(), b.size(), 8},
      {c.data(), c.size(), 2},
      {d.data(), d.size(), 1}};
  SortedView<double> view;
  view.AssignRuns(runs.data(), runs.size(), 3 * 4 + 2 * 2 + 3 * 1);
  EXPECT_EQ(view.items(), (std::vector<double>{0.5, 1.0, 2.0, 3.0, 3.0, 3.0,
                                               5.0, 9.0}));
  // The three 3.0s: run a's (4), then c's (2), then d's (1).
  EXPECT_EQ(view.cum_weights(),
            (std::vector<uint64_t>{1, 5, 7, 11, 13, 14, 18, 19}));
  EXPECT_THROW(view.AssignRuns(runs.data(), runs.size(), 20),
               std::logic_error);
}

// The in-place repair lands each new item after the entries equal to it
// and shifts the cumulative weights it passes.
TEST(SortedViewTest, InsertSortedMatchesRebuild) {
  const std::vector<double> a = {1.0, 3.0, 5.0};
  const std::vector<UniformRun<double>> runs = {{a.data(), a.size(), 4}};
  SortedView<double> view;
  view.AssignRuns(runs.data(), runs.size(), 12);
  const std::vector<double> added = {0.0, 3.0, 3.0, 6.0};
  view.InsertSorted(added.data(), added.size(), 1);
  EXPECT_EQ(view.items(),
            (std::vector<double>{0.0, 1.0, 3.0, 3.0, 3.0, 5.0, 6.0}));
  EXPECT_EQ(view.cum_weights(),
            (std::vector<uint64_t>{1, 5, 9, 10, 11, 15, 16}));
  EXPECT_EQ(view.total_weight(), 16u);
  EXPECT_EQ(view.GetRank(3.0, Criterion::kInclusive), 11u);
  EXPECT_EQ(view.GetQuantile(1.0, Criterion::kInclusive), 6.0);
}

}  // namespace
}  // namespace req
