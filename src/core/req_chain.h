// The "simple" unknown-stream-length scheme of Section 5.
//
// Instead of regrowing parameters in place (which ReqSketch does, following
// footnote 9 and the Appendix D analysis), this scheme starts with an
// estimate N_0, and when the stream outgrows the current estimate N_i it
// "closes out" the current summary -- keeping it read-only -- and opens a
// fresh summary built for N_{i+1} = N_i^2. At most log2 log2(eps n)
// summaries ever exist, their sizes are geometrically dominated by the last
// one, and the rank estimate for y is the sum of the per-summary estimates
// (each sub-stream achieving relative error eps implies the total does).
//
// This class exists so the E8 bench can compare both schemes against the
// known-n baseline; for general use prefer ReqSketch, which additionally
// supports merging.
#ifndef REQSKETCH_CORE_REQ_CHAIN_H_
#define REQSKETCH_CORE_REQ_CHAIN_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/req_common.h"
#include "core/req_sketch.h"
#include "core/sorted_view.h"
#include "util/validation.h"

namespace req {

template <typename T, typename Compare = std::less<T>>
class ReqChain {
 public:
  explicit ReqChain(const ReqConfig& config = ReqConfig(),
                    Compare comp = Compare())
      : config_(config), comp_(comp), view_(comp_) {
    params::ValidateConfig(config_);
    current_bound_ = params::InitialN(config_.k_base);
    OpenSummary();
  }

  bool is_empty() const { return n_ == 0; }
  uint64_t n() const { return n_; }

  // Number of summaries (closed + active); bounded by log2 log2 of the
  // stream length over N0.
  size_t num_summaries() const { return summaries_.size(); }

  size_t RetainedItems() const {
    size_t total = 0;
    for (const auto& s : summaries_) total += s->RetainedItems();
    return total;
  }

  void Update(const T& item) {
    // Section 5: when the *total* stream length reaches the current
    // estimate N_i, close out and open the next summary for N_{i+1}.
    if (n_ >= current_bound_) CloseOutAndGrow();
    summaries_.back()->Update(item);
    ++n_;
    InvalidateView();
  }

  // Batch update: forwards run-length chunks to the active summary's batch
  // path, breaking exactly at every close-out boundary, so the resulting
  // chain is identical to the one built by single-item updates.
  void Update(const T* data, size_t count) {
    size_t i = 0;
    while (i < count) {
      if (n_ >= current_bound_) CloseOutAndGrow();
      const size_t chunk = static_cast<size_t>(
          std::min<uint64_t>(count - i, current_bound_ - n_));
      summaries_.back()->Update(data + i, chunk);
      n_ += chunk;
      i += chunk;
    }
    if (count > 0) InvalidateView();
  }

  void Update(const std::vector<T>& items) {
    Update(items.data(), items.size());
  }

  // Rank estimate: sum of the per-summary estimates (Section 5).
  uint64_t GetRank(const T& y,
                   Criterion criterion = Criterion::kInclusive) const {
    util::CheckState(n_ > 0, "GetRank() on an empty chain");
    uint64_t rank = 0;
    for (const auto& s : summaries_) {
      if (!s->is_empty()) rank += s->GetRank(y, criterion);
    }
    return rank;
  }

  double GetNormalizedRank(
      const T& y, Criterion criterion = Criterion::kInclusive) const {
    return static_cast<double>(GetRank(y, criterion)) /
           static_cast<double>(n_);
  }

  // Bulk rank kernel over the memoized combined view: answers exactly
  // equal the scalar GetRank loop (an item's combined-view rank is the
  // total weight of stored items <= it, i.e. the sum of the per-summary
  // estimates). NaN query points are rejected up front (the kernel
  // sorts the points, and NaN breaks std::sort's ordering contract).
  void GetRanks(const T* ys, size_t count, uint64_t* out,
                Criterion criterion = Criterion::kInclusive) const {
    util::CheckState(n_ > 0, "GetRanks() on an empty chain");
    if (count == 0) return;
    detail::CheckBulkQueryPoints(ys, count);
    CombinedView().GetRanks(ys, count, out, criterion);
  }

  std::vector<uint64_t> GetRanks(
      const std::vector<T>& ys,
      Criterion criterion = Criterion::kInclusive) const {
    util::CheckState(n_ > 0, "GetRanks() on an empty chain");
    std::vector<uint64_t> out(ys.size());
    if (!ys.empty()) {
      detail::CheckBulkQueryPoints(ys.data(), ys.size());
      CombinedView().GetRanks(ys.data(), ys.size(), out.data(), criterion);
    }
    return out;
  }

  T GetQuantile(double q, Criterion criterion = Criterion::kInclusive) const {
    util::CheckState(n_ > 0, "GetQuantile() on an empty chain");
    // NaN-rejecting: validate before materializing the combined view.
    util::CheckArg(q >= 0.0 && q <= 1.0, "normalized rank must be in [0, 1]");
    return CombinedView().GetQuantile(q, criterion);
  }

  std::vector<T> GetQuantiles(
      const std::vector<double>& qs,
      Criterion criterion = Criterion::kInclusive) const {
    util::CheckState(n_ > 0, "GetQuantiles() on an empty chain");
    for (double q : qs) {
      util::CheckArg(q >= 0.0 && q <= 1.0,
                     "normalized rank must be in [0, 1]");
    }
    const SortedView<T, Compare>& view = CombinedView();
    std::vector<T> out;
    out.reserve(qs.size());
    for (double q : qs) out.push_back(view.GetQuantile(q, criterion));
    return out;
  }

  // CDF at the given (ascending) split points; shares the combined view's
  // co-scan kernel with the sketch surface.
  std::vector<double> GetCDF(
      const std::vector<T>& splits,
      Criterion criterion = Criterion::kInclusive) const {
    util::CheckState(n_ > 0, "GetCDF() on an empty chain");
    util::CheckArg(!splits.empty(), "split points must be non-empty");
    for (size_t i = 0; i + 1 < splits.size(); ++i) {
      util::CheckArg(comp_(splits[i], splits[i + 1]),
                     "split points must be strictly ascending");
    }
    return CombinedView().GetCDF(splits, criterion);
  }

 private:
  // Drops the memoized combined view (mutators run with exclusive
  // access, so a plain store suffices; the cached closed run survives --
  // it only ever grows at close-outs).
  void InvalidateView() {
    view_ready_.value.store(false, std::memory_order_release);
  }

  // The memoized combined view over every summary. Closed summaries are
  // read-only forever (Section 5), so their sorted weighted runs are
  // folded into one closed run exactly once (at collection); a rebuild
  // after an update takes the active summary's own memoized (and
  // incrementally repaired) sorted view and merges the two runs -- an
  // O(R) merge, no re-sort.
  //
  // Same concurrency contract as ReqSketch's sorted-view cache (and the
  // same double-checked fill): any number of threads may run const
  // queries concurrently on a shared chain; Update requires exclusive
  // access.
  const SortedView<T, Compare>& CombinedView() const {
    if (!view_ready_.value.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(view_mutex_.mutex);
      if (!view_ready_.value.load(std::memory_order_relaxed)) {
        RebuildViewLocked();
        view_ready_.value.store(true, std::memory_order_release);
      }
    }
    return view_;
  }

  void RebuildViewLocked() const {
    // Fold newly closed summaries into the sorted closed run (each
    // summary exactly once, at its close-out). The fold builds a
    // TRANSIENT sorted run instead of touching the closed summary's
    // memoized view: that cache is permanent once filled, and a
    // fold-and-forget consumer would otherwise pin a ~3x copy of every
    // closed summary for the chain's lifetime.
    while (closed_cached_ + 1 < summaries_.size()) {
      const auto& closed = *summaries_[closed_cached_];
      if (!closed.is_empty()) {
        std::vector<std::pair<T, uint64_t>> weighted;
        weighted.reserve(closed.RetainedItems());
        closed.AppendWeightedItems(&weighted);
        std::sort(weighted.begin(), weighted.end(),
                  [this](const auto& a, const auto& b) {
                    return comp_(a.first, b.first);
                  });
        std::vector<T> run_items;
        std::vector<uint64_t> run_weights;
        run_items.reserve(weighted.size());
        run_weights.reserve(weighted.size());
        for (auto& [item, weight] : weighted) {
          run_items.push_back(std::move(item));
          run_weights.push_back(weight);
        }
        MergeWeightedRuns(closed_items_.data(), closed_weights_.data(),
                          closed_items_.size(), run_items.data(),
                          run_weights.data(), run_items.size(),
                          &scratch_items_, &scratch_weights_, comp_);
        std::swap(closed_items_, scratch_items_);
        std::swap(closed_weights_, scratch_weights_);
      }
      ++closed_cached_;
    }
    const auto& active = *summaries_.back();
    if (active.is_empty()) {
      view_.AssignMergedWeighted(closed_items_.data(),
                                 closed_weights_.data(),
                                 closed_items_.size(), nullptr, nullptr, 0,
                                 n_);
      return;
    }
    const SortedView<T, Compare>& av = active.CachedSortedView();
    active_weights_.resize(av.size());
    for (size_t i = 0; i < av.size(); ++i) {
      active_weights_[i] = av.WeightAt(i);
    }
    view_.AssignMergedWeighted(closed_items_.data(), closed_weights_.data(),
                               closed_items_.size(), av.items().data(),
                               active_weights_.data(), av.size(), n_);
  }
  // Closes out the active summary (it stays read-only) and opens the next
  // one with the squared estimate.
  void CloseOutAndGrow() {
    current_bound_ = (current_bound_ >= (uint64_t{1} << 31))
                         ? params::kMaxN
                         : current_bound_ * current_bound_;
    OpenSummary();
  }

  void OpenSummary() {
    ReqConfig sub_config = config_;
    sub_config.n_hint = current_bound_;  // fixed-N summary (Theorem 14)
    // Derive a distinct deterministic seed per summary.
    sub_config.seed = config_.seed + 0x9e3779b97f4a7c15ULL *
                                         (summaries_.size() + 1);
    summaries_.push_back(
        std::make_unique<ReqSketch<T, Compare>>(sub_config, comp_));
  }

  ReqConfig config_;
  Compare comp_;
  std::vector<std::unique_ptr<ReqSketch<T, Compare>>> summaries_;
  uint64_t current_bound_ = 0;
  uint64_t n_ = 0;
  // Combined-view memoization (see CombinedView): the sorted weighted
  // run of every closed summary, merge scratch, the active/closed
  // summaries' per-entry weight scratch, and the published view
  // (rebuilt in place). Guarded by view_mutex_ behind the view_ready_
  // publication flag, exactly like ReqSketch's sorted-view cache.
  mutable std::vector<T> closed_items_;
  mutable std::vector<uint64_t> closed_weights_;
  mutable std::vector<T> scratch_items_;
  mutable std::vector<uint64_t> scratch_weights_;
  mutable std::vector<uint64_t> active_weights_;
  mutable size_t closed_cached_ = 0;
  mutable SortedView<T, Compare> view_;
  mutable detail::CopyableAtomicBool view_ready_;
  mutable detail::CopyableMutex view_mutex_;
};

}  // namespace req

#endif  // REQSKETCH_CORE_REQ_CHAIN_H_
