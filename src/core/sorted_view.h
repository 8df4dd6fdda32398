// A materialized, weight-indexed sorted view of a quantiles sketch.
//
// The REQ sketch answers rank queries directly from its buffers, but
// quantile / CDF / PMF queries need the items in sorted order with
// cumulative weights. The view stores structure-of-arrays: one contiguous
// item array plus a parallel *weight-prefix index* (inclusive cumulative
// weights), so a rank binary search touches one cache-dense array and a
// quantile binary search touches only the uint64 prefix array
// (Estimate-Rank in Algorithm 2 is the rank direction; this is its
// inverse).
//
// Construction paths:
//   * from unsorted (item, weight) pairs -- O(S log S) sort; the original
//     path, kept for aggregators and as the seed-era reference.
//   * AssignRuns: in-place rebuild by one k-way merge of sorted runs that
//     each carry a single weight -- ReqSketch's full build, whose runs are
//     the levels' sorted prefixes (read in place) and sorted insert tails.
//   * InsertSorted: in-place repair that merges a few sorted items into
//     the view from the back -- ReqSketch's repair after items were only
//     appended to level 0.
//   * AssignMergedWeighted: in-place rebuild from two sorted runs with
//     per-entry weights -- the Section 5 chain's combined view.
// The in-place paths reuse the arrays' capacity.
//
// Query kernels:
//   * GetRank / GetQuantile: one binary search each.
//   * GetRanks(const T*, size_t, uint64_t*): bulk kernel -- sorts the
//     query points once and answers all of them in a single forward
//     co-scan of the view with galloping advances,
//     O((Q + R') + Q log Q) for Q queries against R entries (R' = span of
//     entries actually crossed) instead of Q * O(log R).
//   * GetCDF: the split points are required ascending, so the same
//     co-scan runs without the sort.
#ifndef REQSKETCH_CORE_SORTED_VIEW_H_
#define REQSKETCH_CORE_SORTED_VIEW_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <numeric>
#include <utility>
#include <vector>

#include "core/req_common.h"
#include "util/validation.h"

namespace req {

// Merges two sorted weighted runs into out_items/out_weights (cleared
// first; ties go to run A). Used by the chain's closed-run folding;
// SortedView::AssignMergedWeighted fuses the same loop with the
// cumulative-weight pass for the published view.
template <typename T, typename Compare>
void MergeWeightedRuns(const T* a_items, const uint64_t* a_weights,
                       size_t a_n, const T* b_items,
                       const uint64_t* b_weights, size_t b_n,
                       std::vector<T>* out_items,
                       std::vector<uint64_t>* out_weights,
                       const Compare& comp) {
  out_items->clear();
  out_weights->clear();
  out_items->reserve(a_n + b_n);
  out_weights->reserve(a_n + b_n);
  size_t i = 0, j = 0;
  while (i < a_n && j < b_n) {
    if (comp(b_items[j], a_items[i])) {
      out_items->push_back(b_items[j]);
      out_weights->push_back(b_weights[j]);
      ++j;
    } else {
      out_items->push_back(a_items[i]);
      out_weights->push_back(a_weights[i]);
      ++i;
    }
  }
  for (; i < a_n; ++i) {
    out_items->push_back(a_items[i]);
    out_weights->push_back(a_weights[i]);
  }
  for (; j < b_n; ++j) {
    out_items->push_back(b_items[j]);
    out_weights->push_back(b_weights[j]);
  }
}

// A sorted run whose entries all carry `weight`: the unit
// SortedView::AssignRuns merges.
template <typename T>
struct UniformRun {
  const T* items = nullptr;
  size_t size = 0;
  uint64_t weight = 0;
};

template <typename T, typename Compare = std::less<T>>
class SortedView {
 public:
  // Builds from (item, weight) pairs; total_weight must equal the stream
  // length n represented by the sketch.
  SortedView(std::vector<std::pair<T, uint64_t>> weighted_items,
             uint64_t total_weight, Compare comp = Compare())
      : comp_(std::move(comp)), total_weight_(total_weight) {
    util::CheckArg(!weighted_items.empty(),
                   "SortedView requires a non-empty sketch");
    std::sort(weighted_items.begin(), weighted_items.end(),
              [this](const auto& a, const auto& b) {
                return comp_(a.first, b.first);
              });
    items_.reserve(weighted_items.size());
    cum_weights_.reserve(weighted_items.size());
    uint64_t cum = 0;
    for (auto& [item, weight] : weighted_items) {
      cum += weight;
      items_.push_back(std::move(item));
      cum_weights_.push_back(cum);
    }
    util::CheckState(cum == total_weight_,
                     "sorted view weight mismatch: sketch corrupted");
  }

  // Empty shell for the in-place builds below; queries are only legal
  // after a successful assignment. Used by the memoized view caches so
  // repeated builds reuse the arrays' heap capacity.
  explicit SortedView(Compare comp = Compare())
      : comp_(std::move(comp)), total_weight_(0) {}

  // In-place rebuild by one k-way merge of the sorted runs[0, num_runs):
  // every entry of runs[r] weighs runs[r].weight, and on ties the earlier
  // run goes first. Empty runs are allowed, but not all of them. Writes
  // items and inclusive cumulative weights by index into the arrays;
  // O(R log k) for R entries in k non-empty runs, with a loser tree.
  void AssignRuns(const UniformRun<T>* runs, size_t num_runs,
                  uint64_t total_weight) {
    // The non-empty runs in order, as [cur, end) cursors.
    std::vector<const T*> cur;
    std::vector<const T*> end;
    std::vector<uint64_t> weight;
    size_t n = 0;
    for (size_t r = 0; r < num_runs; ++r) {
      if (runs[r].size == 0) continue;
      cur.push_back(runs[r].items);
      end.push_back(runs[r].items + runs[r].size);
      weight.push_back(runs[r].weight);
      n += runs[r].size;
    }
    util::CheckArg(n > 0, "SortedView requires a non-empty sketch");
    items_.resize(n);
    cum_weights_.resize(n);
    const size_t k = cur.size();
    // Run a goes before run b when its next item is smaller, or equal and
    // a is the earlier run; an exhausted run goes after every other.
    const auto before = [&](size_t a, size_t b) {
      if (cur[a] == end[a]) return false;
      if (cur[b] == end[b]) return true;
      if (comp_(*cur[a], *cur[b])) return true;
      return a < b && !comp_(*cur[b], *cur[a]);
    };
    // Heap-indexed tree: leaf r is node k + r, node j < k has children 2j
    // and 2j + 1 and keeps the loser of the match played there; the
    // overall winner is kept apart.
    std::vector<size_t> loser(2 * k);
    for (size_t r = 0; r < k; ++r) loser[k + r] = r;
    std::vector<size_t> winner(loser);
    for (size_t j = k; j-- > 1;) {
      const size_t a = winner[2 * j];
      const size_t b = winner[2 * j + 1];
      const bool a_wins = before(a, b);
      winner[j] = a_wins ? a : b;
      loser[j] = a_wins ? b : a;
    }
    size_t top = k == 1 ? 0 : winner[1];
    T* out_items = items_.data();
    uint64_t* out_cum = cum_weights_.data();
    uint64_t cum = 0;
    for (size_t i = 0; i < n; ++i) {
      out_items[i] = *cur[top]++;
      cum += weight[top];
      out_cum[i] = cum;
      // Replay the winner's path to the root.
      for (size_t j = (k + top) / 2; j >= 1; j /= 2) {
        if (before(loser[j], top)) std::swap(loser[j], top);
      }
    }
    total_weight_ = total_weight;
    util::CheckState(cum == total_weight_,
                     "sorted view weight mismatch: sketch corrupted");
  }

  // In-place repair: merges the sorted items[0, count), each of weight
  // `weight`, into the view. Each new item lands after every entry equal
  // to it; an entry it passes moves up by the number of new items placed
  // before it, and its cumulative weight grows by that many weights.
  // O(count log R) searches plus one move of the entries past the
  // smallest new item.
  void InsertSorted(const T* items, size_t count, uint64_t weight) {
    if (count == 0) return;
    size_t end = items_.size();  // entries [0, end) have not moved
    items_.resize(end + count);
    cum_weights_.resize(end + count);
    T* view_items = items_.data();
    uint64_t* cum = cum_weights_.data();
    for (size_t j = count; j > 0; --j) {
      const T& item = items[j - 1];
      const size_t pos = static_cast<size_t>(
          std::upper_bound(view_items, view_items + end, item, comp_) -
          view_items);
      const uint64_t shift = j * weight;
      std::move_backward(view_items + pos, view_items + end,
                         view_items + end + j);
      for (size_t i = end; i-- > pos;) cum[i + j] = cum[i] + shift;
      view_items[pos + j - 1] = item;
      cum[pos + j - 1] = (pos == 0 ? 0 : cum[pos - 1]) + shift;
      end = pos;
    }
    total_weight_ += count * weight;
  }

  // In-place rebuild by merging two sorted runs with per-entry weights
  // (ties go to run A; either run may be empty, but not both). Used by
  // the Section 5 chain to merge the closed-summaries run with the active
  // summary's view; O(|A| + |B|).
  void AssignMergedWeighted(const T* a_items, const uint64_t* a_weights,
                            size_t a_n, const T* b_items,
                            const uint64_t* b_weights, size_t b_n,
                            uint64_t total_weight) {
    util::CheckArg(a_n + b_n > 0, "SortedView requires a non-empty sketch");
    items_.clear();
    cum_weights_.clear();
    items_.reserve(a_n + b_n);
    cum_weights_.reserve(a_n + b_n);
    uint64_t cum = 0;
    size_t i = 0, j = 0;
    while (i < a_n && j < b_n) {
      if (comp_(b_items[j], a_items[i])) {
        cum += b_weights[j];
        items_.push_back(b_items[j++]);
      } else {
        cum += a_weights[i];
        items_.push_back(a_items[i++]);
      }
      cum_weights_.push_back(cum);
    }
    for (; i < a_n; ++i) {
      cum += a_weights[i];
      items_.push_back(a_items[i]);
      cum_weights_.push_back(cum);
    }
    for (; j < b_n; ++j) {
      cum += b_weights[j];
      items_.push_back(b_items[j]);
      cum_weights_.push_back(cum);
    }
    total_weight_ = total_weight;
    util::CheckState(cum == total_weight_,
                     "sorted view weight mismatch: sketch corrupted");
  }

  size_t size() const { return items_.size(); }
  uint64_t total_weight() const { return total_weight_; }

  // Structure-of-arrays accessors (the weight-prefix index is
  // cum_weights(): inclusive cumulative weight up to each entry).
  const std::vector<T>& items() const { return items_; }
  const std::vector<uint64_t>& cum_weights() const { return cum_weights_; }
  const T& ItemAt(size_t i) const { return items_[i]; }
  uint64_t CumWeightAt(size_t i) const { return cum_weights_[i]; }
  // Per-entry weight, recovered from the prefix index.
  uint64_t WeightAt(size_t i) const {
    return i == 0 ? cum_weights_[0] : cum_weights_[i] - cum_weights_[i - 1];
  }

  // Estimated absolute rank of y: total weight of stored items <= y
  // (inclusive) or < y (exclusive).
  uint64_t GetRank(const T& y, Criterion criterion) const {
    const size_t idx = UpperIndex(0, y, criterion);
    return idx == 0 ? 0 : cum_weights_[idx - 1];
  }

  // Normalized rank in [0, 1].
  double GetNormalizedRank(const T& y, Criterion criterion) const {
    return static_cast<double>(GetRank(y, criterion)) /
           static_cast<double>(total_weight_);
  }

  // Bulk rank kernel: fills out[i] with GetRank(ys[i], criterion) for all
  // `count` query points. Sorts the query points once (by index, so the
  // output order is the caller's), then answers everything in one forward
  // co-scan with galloping advances. Exactly equal to calling GetRank in
  // a loop.
  void GetRanks(const T* ys, size_t count, uint64_t* out,
                Criterion criterion) const {
    if (count == 0) return;
    // Local order buffer: any number of threads may run bulk queries
    // concurrently on one shared (memoized) view.
    std::vector<size_t> order(count);
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return comp_(ys[a], ys[b]); });
    size_t pos = 0;
    for (size_t q : order) {
      pos = UpperIndex(pos, ys[q], criterion);
      out[q] = pos == 0 ? 0 : cum_weights_[pos - 1];
    }
  }

  // CDF at the given (pre-validated, ascending) split points: result[i] is
  // the normalized rank of split[i]; a final entry of 1.0 is appended.
  // Ascending inputs make this the sort-free case of the bulk kernel: one
  // co-scan, no per-split binary search over the full view. Shared by the
  // sketch and the Section 5 chain.
  std::vector<double> GetCDF(const std::vector<T>& splits,
                             Criterion criterion) const {
    std::vector<double> cdf;
    cdf.reserve(splits.size() + 1);
    const double denom = static_cast<double>(total_weight_);
    size_t pos = 0;
    for (const T& split : splits) {
      pos = UpperIndex(pos, split, criterion);
      const uint64_t rank = pos == 0 ? 0 : cum_weights_[pos - 1];
      cdf.push_back(static_cast<double>(rank) / denom);
    }
    cdf.push_back(1.0);
    return cdf;
  }

  // Quantile for normalized rank q in [0, 1]: the smallest stored item whose
  // cumulative weight reaches q * n (inclusive), or the smallest item whose
  // cumulative weight exceeds q * n (exclusive). q = 0 returns the smallest
  // stored item, q = 1 the largest. One binary search over the weight-prefix
  // index only (no item comparisons).
  const T& GetQuantile(double q, Criterion criterion) const {
    util::CheckArg(q >= 0.0 && q <= 1.0,
                   "normalized rank must be in [0, 1]");
    const double pos = q * static_cast<double>(total_weight_);
    uint64_t target;
    if (criterion == Criterion::kInclusive) {
      target = static_cast<uint64_t>(std::ceil(pos));
      if (target == 0) target = 1;
    } else {
      target = static_cast<uint64_t>(std::floor(pos)) + 1;
    }
    if (target > total_weight_) return items_.back();
    // First entry with cum_weight >= target.
    const size_t idx = static_cast<size_t>(
        std::lower_bound(cum_weights_.begin(), cum_weights_.end(), target) -
        cum_weights_.begin());
    return items_[idx];
  }

 private:
  // First index in [lo, size) whose item is past y: > y under inclusive
  // semantics, >= y under exclusive. Galloping (exponential) probe from
  // `lo` followed by a binary search inside the located range, so a
  // forward co-scan pays O(log gap) per query rather than O(log R).
  size_t UpperIndex(size_t lo, const T& y, Criterion criterion) const {
    const size_t n = items_.size();
    const auto past = [&](const T& item) {
      return criterion == Criterion::kInclusive ? comp_(y, item)
                                                : !comp_(item, y);
    };
    if (lo >= n || past(items_[lo])) return lo;
    // items_[lo] is not past y; gallop until one is (or the end).
    size_t step = 1;
    size_t prev = lo;  // highest index known not past y
    while (prev + step < n && !past(items_[prev + step])) {
      prev += step;
      step <<= 1;
    }
    const size_t hi = std::min(n, prev + step);
    // Invariant: items_[prev] not past, items_[hi] past (or hi == n).
    size_t first = prev + 1;
    size_t len = hi - first;
    while (len > 0) {
      const size_t half = len / 2;
      if (!past(items_[first + half])) {
        first += half + 1;
        len -= half + 1;
      } else {
        len = half;
      }
    }
    return first;
  }

  Compare comp_;
  std::vector<T> items_;
  std::vector<uint64_t> cum_weights_;
  uint64_t total_weight_;
};

}  // namespace req

#endif  // REQSKETCH_CORE_SORTED_VIEW_H_
