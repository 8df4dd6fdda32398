// ReqSketch: the full Relative Error Quantiles sketch (Algorithm 2 of the
// paper), a stack of relative-compactors where the output stream of level h
// feeds level h+1 and items at level h carry weight 2^h.
//
// Capabilities:
//   * One-pass streaming updates with no advance knowledge of the stream
//     length: the input-size bound N starts at N0 = 8 * k_base and squares
//     whenever exceeded, with per-level parameter recomputation and special
//     compactions (Section 5 / Appendix D, footnote-9 variant). The simpler
//     close-out scheme of Section 5 is implemented separately in
//     req_chain.h.
//   * Batch updates: Update(const T*, size_t) appends run-length chunks
//     directly into level 0 and runs the compaction cascade once per fill
//     instead of once per item. Produces a sketch bit-identical to the
//     equivalent sequence of single-item updates (same seeds, same
//     compaction schedule, same coin flips).
//   * Full mergeability (Theorem 3, Algorithm 3): Merge() combines two
//     sketches built from arbitrary merge trees; compaction-schedule states
//     combine by bitwise OR, parameters regrow as needed, and each level is
//     compacted at most once per merge.
//   * Rank, quantile, CDF and PMF queries with inclusive or exclusive
//     semantics; HRA (accurate near the max; default) or LRA orientation.
//     Bulk queries: GetRanks(const T*, size_t, uint64_t*) answers a whole
//     batch in one co-scan of the sorted view, and GetCDF shares the same
//     kernel.
//
// Storage: every level lives in ONE shared LevelArena (core/level_arena.h),
// so the whole retained set is a single contiguous allocation -- queries,
// merges and serde walk flat memory instead of a vector-of-vectors.
// Update/compaction semantics are independent of the storage layout and
// bit-identical to the per-level-vector layout this replaced. The item
// type T must be default-constructible and copy/move-assignable (see the
// requirements note in core/level_arena.h).
//
// Query engine: order-based queries go through a memoized sorted view,
// built straight from the levels and kept beside nothing but the view's
// own arrays:
//   * Full build: each level's sorted prefix is read in place and its
//     insert tail is copied to a per-thread buffer and sorted; one k-way
//     merge over these runs (levels 1..H-1, then level 0; the earlier run
//     wins ties, a level's prefix before its tail) writes the items and
//     cumulative weights into the view. O(R log H) for R retained items.
//   * Level-0 append repair: when the only change since the last build is
//     items appended to level 0 -- no compaction, same level count, upper
//     levels at the same versions -- just the new items are sorted and
//     merged into the view from the back, after equal entries. This is
//     the monitoring loop {append a few items; query}.
// Both give the same view for the same level contents, whatever the query
// history (the repair falls back to a full build whenever a tie could land
// differently; see RepairAppendLocked). The seed-era full path (collect +
// sort all weighted pairs via AppendWeightedItems) lives on in the
// equivalence test and the E16 bench as the reference baseline.
//
// Thread safety: any number of threads may run const query methods
// concurrently on a shared sketch (the lazily memoized sorted view is
// filled under an internal lock with a double-checked atomic flag), but
// mutations (Update / Merge) still require exclusive access: no query or
// other mutation may run concurrently with them. This is exactly the
// contract the registry engine (service/sketch_registry.h) relies on: it
// mutates its state under an exclusive lock while queries on the state --
// a sketch, or the merged view of a sharded metric's shards -- run under
// the shared one from many threads.
//
// Error guarantee (Theorem 1): for a fixed item y, with probability 1-delta,
//   |RankEstimate(y) - R(y)| <= eps * R(y)          (LRA)
//   |RankEstimate(y) - R(y)| <= eps * (n - R(y))    (HRA, mirrored)
// where eps ~ c / k_base. The sketch stores
// O(k_base * log^{1.5}(n / k_base)) items (Theorems 14/36).
#ifndef REQSKETCH_CORE_REQ_SKETCH_H_
#define REQSKETCH_CORE_REQ_SKETCH_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/level_arena.h"
#include "core/relative_compactor.h"
#include "core/req_common.h"
#include "core/sorted_view.h"
#include "core/tail_sort.h"
#include "util/random.h"
#include "util/validation.h"

namespace req {

namespace detail {

// std::atomic<bool> with value-copy semantics so the sketch stays copyable.
// Copies transfer the value, not any synchronization relationship: they are
// only made while the source sketch is externally quiescent.
struct CopyableAtomicBool {
  std::atomic<bool> value{false};
  CopyableAtomicBool() = default;
  CopyableAtomicBool(const CopyableAtomicBool& other)
      : value(other.value.load(std::memory_order_acquire)) {}
  CopyableAtomicBool& operator=(const CopyableAtomicBool& other) {
    value.store(other.value.load(std::memory_order_acquire),
                std::memory_order_release);
    return *this;
  }
};

// A mutex that copy/move-constructs to a fresh, unlocked mutex: the lock
// protects per-object lazy initialization, so it never travels with the
// data it guards.
struct CopyableMutex {
  std::mutex mutex;
  CopyableMutex() = default;
  CopyableMutex(const CopyableMutex&) {}
  CopyableMutex& operator=(const CopyableMutex&) { return *this; }
};

// True when items that compare equal under Compare are identical, so the
// place a tie takes in the sorted view cannot change the view: arithmetic
// items under std::less or std::greater, apart from the floating-point
// zeros -0.0 and +0.0, which the view repair checks for itself.
template <typename T, typename Compare>
constexpr bool kEqualItemsAreIdentical =
    std::is_arithmetic<T>::value &&
    (std::is_same<Compare, std::less<T>>::value ||
     std::is_same<Compare, std::greater<T>>::value);

}  // namespace detail

template <typename T, typename Compare>
struct ReqSerde;  // defined in core/req_serde.h; needs internal access

template <typename T, typename Compare = std::less<T>>
class ReqSketch {
 public:
  using value_type = T;
  using Level = RelativeCompactor<T, Compare>;

  explicit ReqSketch(const ReqConfig& config = ReqConfig(),
                     Compare comp = Compare())
      : config_(config), comp_(std::move(comp)), rng_(config.seed) {
    params::ValidateConfig(config_);
    if (config_.n_hint > 0) {
      n_bound_ = std::max(config_.n_hint, params::InitialN(config_.k_base));
      fixed_n_ = true;
    } else {
      n_bound_ = params::InitialN(config_.k_base);
    }
    RecomputeGeometry();
    levels_.emplace_back(MakeLevel());
    view_cache_.view = SortedView<T, Compare>(comp_);
  }

  // Copies re-point every level at the copied arena; the view cache is
  // value data and travels as-is. Only made while the source is quiescent
  // (same contract as the atomics in the cache machinery).
  ReqSketch(const ReqSketch& other)
      : config_(other.config_),
        comp_(other.comp_),
        rng_(other.rng_),
        arena_(other.arena_),
        levels_(other.levels_),
        n_(other.n_),
        n_bound_(other.n_bound_),
        section_size_(other.section_size_),
        num_sections_(other.num_sections_),
        fixed_n_(other.fixed_n_),
        min_item_(other.min_item_),
        max_item_(other.max_item_),
        view_cache_(other.view_cache_),
        view_ready_(other.view_ready_) {
    RebindLevels();
  }

  ReqSketch(ReqSketch&& other) noexcept
      : config_(std::move(other.config_)),
        comp_(std::move(other.comp_)),
        rng_(other.rng_),
        arena_(std::move(other.arena_)),
        levels_(std::move(other.levels_)),
        n_(other.n_),
        n_bound_(other.n_bound_),
        section_size_(other.section_size_),
        num_sections_(other.num_sections_),
        fixed_n_(other.fixed_n_),
        min_item_(std::move(other.min_item_)),
        max_item_(std::move(other.max_item_)),
        view_cache_(std::move(other.view_cache_)),
        view_ready_(other.view_ready_) {
    RebindLevels();
  }

  ReqSketch& operator=(const ReqSketch& other) {
    if (this == &other) return *this;
    ReqSketch copy(other);
    *this = std::move(copy);
    return *this;
  }

  ReqSketch& operator=(ReqSketch&& other) noexcept {
    if (this == &other) return *this;
    config_ = std::move(other.config_);
    comp_ = std::move(other.comp_);
    rng_ = other.rng_;
    arena_ = std::move(other.arena_);
    levels_ = std::move(other.levels_);
    n_ = other.n_;
    n_bound_ = other.n_bound_;
    section_size_ = other.section_size_;
    num_sections_ = other.num_sections_;
    fixed_n_ = other.fixed_n_;
    min_item_ = std::move(other.min_item_);
    max_item_ = std::move(other.max_item_);
    promote_scratch_.clear();
    view_cache_ = std::move(other.view_cache_);
    view_ready_ = other.view_ready_;
    RebindLevels();
    return *this;
  }

  // --- basic accessors -----------------------------------------------------

  const ReqConfig& config() const { return config_; }
  bool is_empty() const { return n_ == 0; }
  // Exact number of items the sketch represents.
  uint64_t n() const { return n_; }
  // Current input-size upper bound N (squares as the stream grows).
  uint64_t n_bound() const { return n_bound_; }
  size_t num_levels() const { return levels_.size(); }
  uint32_t section_size() const { return section_size_; }
  uint32_t num_sections() const { return num_sections_; }
  uint32_t level_capacity() const {
    return params::Capacity(section_size_, num_sections_);
  }
  const std::vector<Level>& levels() const { return levels_; }

  // Number of items currently stored across all levels (the paper's space
  // measure, "number of universe items stored"). One arena pass.
  size_t RetainedItems() const { return arena_.TotalSize(); }

  // Total weight represented by stored items; equals n() at all times
  // (compactions always promote exactly half of an even-sized range).
  uint64_t TotalWeight() const {
    uint64_t total = 0;
    for (size_t h = 0; h < levels_.size(); ++h) {
      total += levels_[h].size() << h;
    }
    return total;
  }

  uint64_t NumCompactions() const {
    uint64_t total = 0;
    for (const Level& level : levels_) total += level.num_compactions();
    return total;
  }

  // O(1) upper bound on RetainedItems(): a quiescent level never stores
  // more than its capacity B. Useful where an exact count per call would
  // be wasteful -- e.g. the sliding-window wrapper sizing its merge
  // scratch or reporting window memory without walking every bucket level.
  size_t EstimateRetainedItems() const {
    return levels_.size() * static_cast<size_t>(level_capacity());
  }

  // Resident heap footprint of the sketch in bytes: object header, arena
  // storage at capacity, level table, promotion scratch, and the memoized
  // view's two arrays (the view build keeps nothing else per sketch; its
  // tail buffer is per thread). This is the figure quota accounting
  // charges per metric, so it counts what the allocator holds, not just
  // live items. Takes the view lock briefly so a concurrent view build
  // cannot race the read.
  size_t MemoryBytes() const {
    size_t bytes = sizeof(*this) + arena_.AllocatedBytes() +
                   levels_.capacity() * sizeof(Level) +
                   promote_scratch_.capacity() * sizeof(T);
    std::lock_guard<std::mutex> lock(view_mutex_.mutex);
    const SortedView<T, Compare>& view = view_cache_.view;
    bytes += view.items().capacity() * sizeof(T);
    bytes += view.cum_weights().capacity() * sizeof(uint64_t);
    return bytes;
  }

  // Releases everything except the sketch payload itself: drops the
  // memoized view cache, frees the promotion scratch, and compacts the
  // arena's slack capacity. Accuracy and query answers are unaffected --
  // the next order-based query simply rebuilds its view, and levels regrow
  // their slots on demand. Requires exclusive access, like any mutator;
  // the idle-metric steady state after a trim is the paper's O(k log n)
  // payload plus fixed object headers.
  void TrimMemory() {
    {
      std::lock_guard<std::mutex> lock(view_mutex_.mutex);
      ResetViewCache();
    }
    promote_scratch_.clear();
    promote_scratch_.shrink_to_fit();
    arena_.ShrinkToFit();
  }

  // Exact stream minimum / maximum (tracked outside the buffers).
  const T& MinItem() const {
    util::CheckState(n_ > 0, "MinItem() on an empty sketch");
    return *min_item_;
  }
  const T& MaxItem() const {
    util::CheckState(n_ > 0, "MaxItem() on an empty sketch");
    return *max_item_;
  }

  // --- updates -------------------------------------------------------------

  void Update(const T& item) {
    CheckUpdatable(item);
    GrowIfNeeded(n_ + 1);
    TrackMinMax(item);
    levels_[0].Insert(item);
    ++n_;
    if (levels_[0].IsFull()) CompactCascade(0);
    InvalidateView();
  }

  // Batch update: summarizes `count` items as if each had been passed to
  // the single-item Update, but with the per-item overhead (growth check,
  // min/max tracking, fullness test) amortized over level-0 fills. With
  // identical configuration and seed, the resulting sketch is bit-identical
  // to the one produced by single-item updates: the chunking below breaks
  // exactly at every level-0 fill and every N-regrowth boundary, so the
  // compaction schedule and the coin-flip sequence are the same.
  //
  // Unlike a sequence of single-item updates, the batch validates every
  // item up front: if any item is NaN the call throws without applying
  // anything (strong guarantee).
  void Update(const T* data, size_t count) {
    if (count == 0) return;
    for (size_t i = 0; i < count; ++i) CheckUpdatable(data[i]);

    size_t i = 0;
    while (i < count) {
      GrowIfNeeded(n_ + 1);
      Level& level0 = levels_[0];
      const size_t room = level0.capacity() > level0.size()
                              ? level0.capacity() - level0.size()
                              : 0;
      if (room == 0) {
        // Defensive: cannot normally happen (the cascade below always
        // leaves level 0 under capacity).
        CompactCascade(0);
        continue;
      }
      size_t chunk = std::min(count - i, room);
      if (!fixed_n_) {
        // Never cross an N-regrowth boundary inside a chunk; the next loop
        // iteration regrows first, exactly as single-item updates would.
        chunk = static_cast<size_t>(std::min<uint64_t>(chunk, n_bound_ - n_));
      }
      // Min/max pass fused into the chunk loop: the chunk is still hot in
      // cache when it is appended below.
      const T* mn = data + i;
      const T* mx = data + i;
      for (size_t j = i + 1; j < i + chunk; ++j) {
        if (comp_(data[j], *mn)) mn = data + j;
        if (comp_(*mx, data[j])) mx = data + j;
      }
      TrackMinMax(*mn);
      TrackMinMax(*mx);
      level0.Insert(data + i, chunk);
      n_ += chunk;
      i += chunk;
      if (levels_[0].IsFull()) CompactCascade(0);
    }
    InvalidateView();
  }

  void Update(const std::vector<T>& items) {
    Update(items.data(), items.size());
  }

  // Returns the sketch to its freshly constructed state (same config, same
  // comparator) while keeping the level-0 buffer allocation: the cheap
  // bucket-retirement primitive for the sliding-window subsystem
  // (window/windowed_req_sketch.h). Equivalent to assigning a
  // newly-constructed ReqSketch(config()) but without revalidating the
  // config or reallocating the hot level; with the same seed and input, a
  // Reset() sketch serializes byte-identically to a fresh one.
  void Reset() { Reset(config_.seed); }

  // Reset variant that also reseeds the PRNG (and records the new seed in
  // the config, so serialization round-trips it): the window gives every
  // bucket epoch a distinct deterministic seed, so recycled buckets draw
  // fresh, reproducible coin flips.
  void Reset(uint64_t seed) {
    config_.seed = seed;
    rng_ = util::Xoshiro256(seed);
    n_ = 0;
    if (config_.n_hint > 0) {
      n_bound_ = std::max(config_.n_hint, params::InitialN(config_.k_base));
      fixed_n_ = true;
    } else {
      n_bound_ = params::InitialN(config_.k_base);
      fixed_n_ = false;
    }
    RecomputeGeometry();
    // Keep level 0 (and its arena region); upper levels are torn down --
    // slots included, so recycled buckets never leak retired regions --
    // and the level stack matches a fresh sketch exactly. (erase, not
    // resize: Level has no default constructor.)
    levels_.erase(levels_.begin() + 1, levels_.end());
    arena_.TruncateSlots(1);
    levels_[0].Clear();
    levels_[0].SetGeometry(section_size_, num_sections_);
    min_item_.reset();
    max_item_.reset();
    // Full view-cache teardown (not just invalidation): freshly created
    // upper levels restart their version counters, so the cache's stamps
    // could otherwise alias a new level's early versions.
    ResetViewCache();
  }

  // Merges `other` into this sketch (Algorithm 3). Both sketches must have
  // been built with the same k_base and rank-accuracy orientation. `other`
  // is not modified. After the call, this sketch summarizes the
  // concatenation of both inputs with the guarantees of Theorem 3.
  void Merge(const ReqSketch& other) {
    const ReqSketch* source = &other;
    Merge(&source, 1);
  }

  // N-way merge over a contiguous array of sketches. Equivalent to merging
  // them pairwise left-to-right but cheaper: this sketch grows its bound
  // and pre-sizes every level buffer exactly once for the combined
  // contents, then runs a single bottom-up compaction sweep (at most one
  // scheduled compaction per level for the whole batch) instead of one
  // cascade per source.
  void Merge(const ReqSketch* sketches, size_t count) {
    std::vector<const ReqSketch*> sources;
    sources.reserve(count);
    for (size_t i = 0; i < count; ++i) sources.push_back(&sketches[i]);
    Merge(sources.data(), count);
  }

  // Pointer-array form of the N-way merge, for sources that do not live in
  // a contiguous array (e.g. the shards MergeShards combines).
  // `Merge(&p, 1)` is bit-identical to the pairwise
  // `Merge(*p)` (same special compactions, same coin flips).
  void Merge(const ReqSketch* const* sources, size_t count) {
    uint64_t n_new = n_;
    size_t max_levels = levels_.size();
    for (size_t i = 0; i < count; ++i) {
      const ReqSketch& src = *sources[i];
      util::CheckArg(&src != this, "cannot merge a sketch into itself");
      util::CheckArg(config_.k_base == src.config_.k_base,
                     "cannot merge sketches with different k_base");
      util::CheckArg(config_.accuracy == src.config_.accuracy,
                     "cannot merge sketches with different rank-accuracy "
                     "orientation");
      if (src.is_empty()) continue;
      n_new += src.n_;
      max_levels = std::max(max_levels, src.levels_.size());
    }
    if (n_new == n_) return;  // every source empty

    // Lines 4-7 of Algorithm 3: if our bound is too small, run special
    // compactions and square N (possibly repeatedly). One growth to the
    // final combined size replaces the per-merge regrowth a pairwise
    // cascade would perform.
    GrowIfNeeded(n_new);
    EnsureLevel(max_levels - 1);

    // Lines 10-11: a source sketch built under a smaller bound is
    // special-compacted first, on a scratch copy of its levels under
    // *its* parameters (CloneInto a local arena, so the source's storage
    // is never touched). When the bounds already agree the deep copy is
    // skipped and the source buffers are read in place. All regrowth
    // happens BEFORE the reservation below, in source order (the coin
    // flips it draws are therefore the same as regrowing lazily), so the
    // reservation can use the post-compaction sizes.
    LevelArena<T> scratch_arena;
    std::vector<std::vector<Level>> regrown(count);
    std::vector<const std::vector<Level>*> level_stacks(count, nullptr);
    for (size_t i = 0; i < count; ++i) {
      const ReqSketch& src = *sources[i];
      if (src.is_empty()) continue;
      if (src.n_bound_ < n_bound_) {
        regrown[i].reserve(src.levels_.size());
        for (const Level& level : src.levels_) {
          regrown[i].push_back(level.CloneInto(&scratch_arena));
        }
        SpecialCompactLevels(&regrown[i]);
        level_stacks[i] = &regrown[i];
      } else {
        level_stacks[i] = &src.levels_;
      }
    }

    // Pre-size each level's arena slot once for everything about to
    // arrive -- one shift pass over the arena instead of a reallocation
    // (or slot shift) per level per source.
    {
      std::vector<size_t> caps(levels_.size(), 0);
      for (size_t h = 0; h < levels_.size(); ++h) caps[h] = levels_[h].size();
      for (size_t i = 0; i < count; ++i) {
        if (level_stacks[i] == nullptr) continue;
        const std::vector<Level>& stack = *level_stacks[i];
        for (size_t h = 0; h < stack.size() && h < caps.size(); ++h) {
          caps[h] += stack[h].size();
        }
      }
      arena_.ReserveSlots(caps);
    }

    for (size_t i = 0; i < count; ++i) {
      if (level_stacks[i] == nullptr) continue;
      const ReqSketch& src = *sources[i];
      const std::vector<Level>& stack = *level_stacks[i];

      // Combine schedule states (bitwise OR; Facts 18/19) and concatenate
      // buffers level by level.
      for (size_t h = 0; h < stack.size(); ++h) {
        levels_[h].OrState(stack[h].state());
        levels_[h].InsertAll(stack[h].items());
      }

      if (src.min_item_ &&
          (!min_item_ || comp_(*src.min_item_, *min_item_))) {
        min_item_ = src.min_item_;
      }
      if (src.max_item_ &&
          (!max_item_ || comp_(*max_item_, *src.max_item_))) {
        max_item_ = src.max_item_;
      }
    }

    n_ = n_new;

    // Lines 22-24: at most one scheduled compaction per level, bottom-up.
    // Compact() consumes everything beyond the nominal capacity, so a
    // level that received items from many sources still settles in one
    // pass.
    for (size_t h = 0; h < levels_.size(); ++h) {
      if (levels_[h].size() >= levels_[h].capacity()) {
        EnsureLevel(h + 1);
        levels_[h].Compact(rng_, &promote_scratch_);
        levels_[h + 1].InsertAll(std::move(promote_scratch_));
      }
    }
    InvalidateView();
  }

  // --- queries -------------------------------------------------------------

  // Estimate-Rank(y) of Algorithm 2: sum over levels of 2^h times the
  // number of stored items <= y (inclusive) or < y (exclusive). Each level
  // answers by binary search over its sorted prefix plus a scan of its
  // small insert tail: O(levels * log B) rather than O(RetainedItems).
  uint64_t GetRank(const T& y,
                   Criterion criterion = Criterion::kInclusive) const {
    util::CheckState(n_ > 0, "GetRank() on an empty sketch");
    uint64_t rank = 0;
    for (size_t h = 0; h < levels_.size(); ++h) {
      rank += levels_[h].CountRank(y, criterion) << h;
    }
    return rank;
  }

  double GetNormalizedRank(
      const T& y, Criterion criterion = Criterion::kInclusive) const {
    return static_cast<double>(GetRank(y, criterion)) /
           static_cast<double>(n_);
  }

  // Bulk rank kernel: fills out[i] with the estimated absolute rank of
  // ys[i]. Sorts the query points once and answers all of them in a
  // single co-scan of the weight-indexed sorted view --
  // O((Q + R) + Q log Q) instead of Q * O(log R). Answers are exactly
  // equal to Q separate view-routed rank queries. NaN query points are
  // rejected up front (the kernel sorts the points, and NaN breaks the
  // strict weak ordering std::sort requires).
  void GetRanks(const T* ys, size_t count, uint64_t* out,
                Criterion criterion = Criterion::kInclusive) const {
    util::CheckState(n_ > 0, "GetRanks() on an empty sketch");
    if (count == 0) return;
    detail::CheckBulkQueryPoints(ys, count);
    CachedSortedView().GetRanks(ys, count, out, criterion);
  }

  // Batched rank queries (vector convenience form of the bulk kernel).
  std::vector<uint64_t> GetRanks(
      const std::vector<T>& ys,
      Criterion criterion = Criterion::kInclusive) const {
    util::CheckState(n_ > 0, "GetRanks() on an empty sketch");
    std::vector<uint64_t> out(ys.size());
    if (!ys.empty()) {
      detail::CheckBulkQueryPoints(ys.data(), ys.size());
      CachedSortedView().GetRanks(ys.data(), ys.size(), out.data(),
                                  criterion);
    }
    return out;
  }

  // Smallest item whose estimated rank reaches q * n. Amortized O(log S)
  // per query via the memoized sorted view.
  T GetQuantile(double q, Criterion criterion = Criterion::kInclusive) const {
    util::CheckState(n_ > 0, "GetQuantile() on an empty sketch");
    // NaN-rejecting up front: a NaN q fails both comparisons, so it can
    // never silently index the sorted view.
    util::CheckArg(q >= 0.0 && q <= 1.0, "normalized rank must be in [0, 1]");
    // q = 0 and q = 1 return the exactly tracked extremes (the extreme
    // items themselves may have been compacted out of the buffers).
    if (q == 0.0) return *min_item_;
    if (q == 1.0) return *max_item_;
    return CachedSortedView().GetQuantile(q, criterion);
  }

  std::vector<T> GetQuantiles(
      const std::vector<double>& qs,
      Criterion criterion = Criterion::kInclusive) const {
    util::CheckState(n_ > 0, "GetQuantiles() on an empty sketch");
    // Validate every rank up front (NaN-rejecting), so a bad rank anywhere
    // in the batch throws before any result is produced or any view built.
    for (double q : qs) {
      util::CheckArg(q >= 0.0 && q <= 1.0,
                     "normalized rank must be in [0, 1]");
    }
    const SortedView<T, Compare>& view = CachedSortedView();
    std::vector<T> out;
    out.reserve(qs.size());
    for (double q : qs) {
      if (q == 0.0) {
        out.push_back(*min_item_);
      } else if (q == 1.0) {
        out.push_back(*max_item_);
      } else {
        out.push_back(view.GetQuantile(q, criterion));
      }
    }
    return out;
  }

  // CDF at the given (ascending) split points: result[i] is the estimated
  // normalized rank of split[i]; a final entry of 1.0 is appended. The
  // ascending precondition makes this the sort-free case of the bulk
  // kernel: one forward co-scan of the view.
  std::vector<double> GetCDF(
      const std::vector<T>& splits,
      Criterion criterion = Criterion::kInclusive) const {
    util::CheckState(n_ > 0, "GetCDF() on an empty sketch");
    CheckSplits(splits);
    return CachedSortedView().GetCDF(splits, criterion);
  }

  // PMF over the intervals defined by the split points (mass of
  // (-inf, s0], (s0, s1], ..., (s_last, +inf) under inclusive semantics).
  std::vector<double> GetPMF(
      const std::vector<T>& splits,
      Criterion criterion = Criterion::kInclusive) const {
    std::vector<double> pmf = GetCDF(splits, criterion);
    for (size_t i = pmf.size(); i-- > 1;) pmf[i] -= pmf[i - 1];
    return pmf;
  }

  // Appends all stored items with their weights (2^level) to `out`; used by
  // the seed-era view build and by aggregators that combine several
  // summaries (e.g., the Section 5 chain in req_chain.h).
  void AppendWeightedItems(std::vector<std::pair<T, uint64_t>>* out) const {
    for (size_t h = 0; h < levels_.size(); ++h) {
      const uint64_t weight = uint64_t{1} << h;
      for (const T& item : levels_[h].items()) {
        out->emplace_back(item, weight);
      }
    }
  }

  // The memoized sorted view of the sketch contents. Built lazily on first
  // use, rebuilt or repaired after mutations; the reference stays valid
  // until the next mutation.
  //
  // Filling the cache is guarded by a double-checked atomic flag plus a
  // lock, so any number of threads may call this (and the order-based
  // const queries that go through it) concurrently on a shared sketch.
  // Mutations still require exclusive access.
  const SortedView<T, Compare>& CachedSortedView() const {
    util::CheckState(n_ > 0, "CachedSortedView() on an empty sketch");
    if (!view_ready_.value.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(view_mutex_.mutex);
      if (!view_ready_.value.load(std::memory_order_relaxed)) {
        RebuildViewLocked();
        view_ready_.value.store(true, std::memory_order_release);
      }
    }
    return view_cache_.view;
  }

  // Eagerly builds the memoized sorted view (no-op on an empty sketch or a
  // warm cache). Callers that hand a sketch to many concurrent readers can
  // warm the cache once here so every subsequent order-based query takes
  // only the lock-free fast path.
  void PrepareSortedView() const {
    if (n_ > 0) CachedSortedView();
  }

  // Value-semantics accessor kept for compatibility: populates (and then
  // shares) the memoized cache, so a one-shot call pays the build exactly
  // once and query-heavy callers converge on the same cached view as
  // CachedSortedView().
  SortedView<T, Compare> GetSortedView() const {
    util::CheckState(n_ > 0, "GetSortedView() on an empty sketch");
    return CachedSortedView();
  }

  // Conservative a-priori relative standard error at protected ranks
  // (params::RelativeStdErr; Lemma 12).
  double RelativeStdErr() const {
    return params::RelativeStdErr(config_.k_base);
  }

  // Rank confidence bounds at num_std_devs standard deviations (1, 2 or 3).
  uint64_t GetRankLowerBound(const T& y, int num_std_devs,
                             Criterion criterion =
                                 Criterion::kInclusive) const {
    const double estimate = static_cast<double>(GetRank(y, criterion));
    const double margin = num_std_devs * RelativeStdErr() *
                          AccurateSideRank(estimate);
    return static_cast<uint64_t>(std::max(0.0, estimate - margin));
  }
  uint64_t GetRankUpperBound(const T& y, int num_std_devs,
                             Criterion criterion =
                                 Criterion::kInclusive) const {
    const double estimate = static_cast<double>(GetRank(y, criterion));
    const double margin = num_std_devs * RelativeStdErr() *
                          AccurateSideRank(estimate);
    return static_cast<uint64_t>(
        std::min(static_cast<double>(n_), estimate + margin));
  }

 private:
  friend struct ReqSerde<T, Compare>;

  // State behind the memoized sorted view. Everything here is value data
  // (copies travel with the sketch); access is serialized by view_mutex_
  // plus the view_ready_ publication flag.
  struct ViewCacheState {
    // The published view; rebuilt or repaired in place, so its arrays'
    // capacity is reused.
    SortedView<T, Compare> view;
    // What the view was built from, for the level-0 append repair: the
    // level count (0 = no view yet), the sum of the versions of levels
    // >= 1 (versions only grow, so the sum moves when any of them
    // changes), and level 0's size and compaction count.
    size_t num_levels = 0;
    uint64_t upper_versions = 0;
    size_t level0_size = 0;
    uint64_t level0_compactions = 0;
  };

  void RebindLevels() {
    for (Level& level : levels_) level.RebindArena(&arena_);
  }

  // Marks the memoized view stale; the next order-based query repairs or
  // rebuilds it. Mutators run with exclusive access (no concurrent readers
  // by contract), so plain stores suffice.
  void InvalidateView() {
    view_ready_.value.store(false, std::memory_order_release);
  }

  // Full cache teardown: used when level *objects* are replaced (Reset,
  // deserialization), where a fresh level's restarted version counter
  // could alias a stale stamp, and by TrimMemory to free the view.
  void ResetViewCache() {
    view_ready_.value.store(false, std::memory_order_release);
    view_cache_ = ViewCacheState();
    view_cache_.view = SortedView<T, Compare>(comp_);
  }

  uint64_t UpperVersions() const {
    uint64_t sum = 0;
    for (size_t h = 1; h < levels_.size(); ++h) sum += levels_[h].version();
    return sum;
  }

  // Brings the published view up to date; called under view_mutex_.
  void RebuildViewLocked() const {
    ViewCacheState& c = view_cache_;
    const Level& level0 = levels_[0];
    const uint64_t upper_versions = UpperVersions();
    const bool appended_only =
        c.num_levels == levels_.size() &&
        c.upper_versions == upper_versions &&
        c.level0_compactions == level0.num_compactions() &&
        c.level0_size <= level0.size();
    // Until the view is whole again, no stamp may vouch for it: a build
    // that throws leaves the next query a full build.
    c.num_levels = 0;
    if (!appended_only || !RepairAppendLocked(c.level0_size)) {
      BuildViewLocked();
    }
    c.num_levels = levels_.size();
    c.upper_versions = upper_versions;
    c.level0_size = level0.size();
    c.level0_compactions = level0.num_compactions();
  }

  // Per-thread scratch of the view build: the levels' sorted tails, plus
  // room for SortTail's merges. Concurrent cold readers of one sketch
  // serialize on view_mutex_, and readers of different sketches on
  // different threads never share it; it keeps the capacity of the
  // largest build its thread has made.
  static std::vector<T>& ViewScratch() {
    static thread_local std::vector<T> scratch;
    return scratch;
  }

  // Full build: one k-way merge of every level's sorted prefix (in place)
  // and sorted insert tail (copied), straight into the view's arrays.
  void BuildViewLocked() const {
    std::vector<T>& scratch = ViewScratch();
    size_t tails = 0;
    size_t longest = 0;
    for (const Level& level : levels_) {
      const size_t u = level.size() - level.sorted_prefix();
      tails += u;
      longest = std::max(longest, u);
    }
    scratch.resize(tails + longest);
    T* tail = scratch.data();
    T* sort_scratch = scratch.data() + tails;
    // Levels 1..H-1, then level 0; each level's prefix, then its tail.
    std::vector<UniformRun<T>> runs;
    runs.reserve(2 * levels_.size());
    for (size_t i = 1; i <= levels_.size(); ++i) {
      const size_t h = i % levels_.size();
      const Level& level = levels_[h];
      const ItemSpan<T> items = level.items();
      const size_t p = level.sorted_prefix();
      const uint64_t weight = uint64_t{1} << h;
      runs.push_back({items.begin(), p, weight});
      std::copy(items.begin() + p, items.end(), tail);
      detail::SortTail(tail, items.size() - p, sort_scratch, comp_);
      runs.push_back({tail, items.size() - p, weight});
      tail += items.size() - p;
    }
    view_cache_.view.AssignRuns(runs.data(), runs.size(), TotalWeight());
  }

  // Level-0 append repair: merges level 0's items [from, size) into the
  // view, which was built when level 0 held `from` items and nothing else
  // has changed since. A new item lands after the entries equal to it,
  // which is where a full build puts it as long as equal items are
  // identical. So the repair declines (returns false, view untouched) for
  // item types where equal items may differ, and when a floating-point
  // zero is among the new items or in level 0's insert tail: a full build
  // sorts a tail holding -0.0 and +0.0 with std::sort, which may order the
  // two zeros differently once other items join the tail.
  bool RepairAppendLocked(size_t from) const {
    if constexpr (!detail::kEqualItemsAreIdentical<T, Compare>) {
      static_cast<void>(from);
      return false;
    } else {
      const Level& level0 = levels_[0];
      const ItemSpan<T> items = level0.items();
      const size_t m = items.size() - from;
      if constexpr (std::is_floating_point_v<T>) {
        const size_t first = std::min(from, level0.sorted_prefix());
        for (size_t i = first; i < items.size(); ++i) {
          if (items[i] == T(0)) return false;
        }
      }
      std::vector<T>& scratch = ViewScratch();
      scratch.resize(2 * m);
      std::copy(items.begin() + from, items.end(), scratch.data());
      detail::SortTail(scratch.data(), m, scratch.data() + m, comp_);
      view_cache_.view.InsertSorted(scratch.data(), m, /*weight=*/1);
      return true;
    }
  }

  Level MakeLevel() {
    return Level(&arena_, section_size_, num_sections_, config_.accuracy,
                 config_.schedule, config_.coin, comp_);
  }

  void EnsureLevel(size_t h) {
    while (levels_.size() <= h) levels_.emplace_back(MakeLevel());
  }

  void RecomputeGeometry() {
    section_size_ = params::SectionSize(config_.k_base, n_bound_);
    num_sections_ = params::NumSections(section_size_, n_bound_);
  }

  // Reject NaN floating-point updates: NaN has no place in a total order.
  void CheckUpdatable(const T& item) {
    if constexpr (std::is_floating_point_v<T>) {
      util::CheckArg(!std::isnan(item), "cannot update sketch with NaN");
    } else {
      (void)item;
    }
  }

  void TrackMinMax(const T& item) {
    if (!min_item_ || comp_(item, *min_item_)) min_item_ = item;
    if (!max_item_ || comp_(*max_item_, item)) max_item_ = item;
  }

  // Section 5 growth: while the bound is exceeded, special-compact every
  // level (bottom-up, the top level excluded per Algorithm 3) and square N,
  // then recompute k and B and reconfigure all levels.
  void GrowIfNeeded(uint64_t n_required) {
    if (fixed_n_) return;  // Theorem 14 mode: parameters fixed a priori.
    while (n_bound_ < n_required) {
      SpecialCompactLevels(&levels_);
      n_bound_ = (n_bound_ >= (uint64_t{1} << 31))
                     ? params::kMaxN
                     : std::min(params::kMaxN, n_bound_ * n_bound_);
      RecomputeGeometry();
      for (Level& level : levels_) {
        level.SetGeometry(section_size_, num_sections_);
      }
    }
  }

  // SpecialCompaction of Algorithm 3 applied to a level stack: compacts
  // every level except the top one down to at most half its capacity,
  // promoting survivors upward.
  void SpecialCompactLevels(std::vector<Level>* levels) {
    if (levels->size() < 2) return;
    for (size_t h = 0; h + 1 < levels->size(); ++h) {
      (*levels)[h].SpecialCompact(rng_, &promote_scratch_);
      (*levels)[h + 1].InsertAll(std::move(promote_scratch_));
    }
  }

  // Streaming compaction cascade: compact level h when full; promotions may
  // fill level h+1, which is then compacted in turn (Algorithm 2's
  // recursive Insert). Promotions go through promote_scratch_, whose
  // allocation is reused across compactions (InsertAll moves the items out
  // but leaves the vector's capacity in place).
  void CompactCascade(size_t h) {
    while (h < levels_.size() && levels_[h].IsFull()) {
      EnsureLevel(h + 1);
      levels_[h].Compact(rng_, &promote_scratch_);
      levels_[h + 1].InsertAll(std::move(promote_scratch_));
      ++h;
    }
  }

  // Rank measured from the accurate end: LRA is accurate near rank 0, HRA
  // near rank n.
  double AccurateSideRank(double rank_estimate) const {
    if (config_.accuracy == RankAccuracy::kLowRanks) return rank_estimate;
    return static_cast<double>(n_) - rank_estimate;
  }

  void CheckSplits(const std::vector<T>& splits) const {
    util::CheckArg(!splits.empty(), "split points must be non-empty");
    for (size_t i = 0; i + 1 < splits.size(); ++i) {
      util::CheckArg(comp_(splits[i], splits[i + 1]),
                     "split points must be strictly ascending");
    }
    if constexpr (std::is_floating_point_v<T>) {
      for (const T& s : splits) {
        util::CheckArg(!std::isnan(s), "split points must not be NaN");
      }
    }
  }

  ReqConfig config_;
  Compare comp_;
  util::Xoshiro256 rng_;
  // Contiguous storage for every level; declared before levels_ so it is
  // constructed first and outlives them on destruction.
  LevelArena<T> arena_;
  std::vector<Level> levels_;
  uint64_t n_ = 0;
  uint64_t n_bound_ = 0;
  uint32_t section_size_ = 0;
  uint32_t num_sections_ = 0;
  bool fixed_n_ = false;
  std::optional<T> min_item_;
  std::optional<T> max_item_;
  // Scratch buffer for promoted items; reused across compactions so the
  // steady-state update path performs no allocations.
  std::vector<T> promote_scratch_;
  // Memoized sorted view for order-based queries; invalidated by
  // Update/Merge, repaired or rebuilt on the next order-based query.
  // view_ready_ is the double-checked publication flag: readers acquire-load
  // it and only touch view_cache_ once it is true; the fill runs under
  // view_mutex_ so concurrent cold readers build the view exactly once.
  mutable ViewCacheState view_cache_;
  mutable detail::CopyableAtomicBool view_ready_;
  mutable detail::CopyableMutex view_mutex_;
};

// The merge-on-query sketch over a set of parts (the shards of a kSharded
// service metric -- RotatingShards in service/sketch_registry.h -- or the
// live buckets of a window): one N-way Merge of the non-empty
// `parts`, in the given order, into a fresh sketch configured like `base`
// but seeded so its compaction coin flips are decorrelated from the part
// seeded base.seed.
template <typename T, typename Compare>
ReqSketch<T, Compare> MergeShards(
    const ReqConfig& base,
    const std::vector<const ReqSketch<T, Compare>*>& parts,
    const Compare& comp = Compare()) {
  ReqConfig merged_config = base;
  merged_config.seed = base.seed ^ 0x9e3779b97f4a7c15ULL;
  ReqSketch<T, Compare> merged(merged_config, comp);
  std::vector<const ReqSketch<T, Compare>*> sources;
  for (const ReqSketch<T, Compare>* part : parts) {
    if (!part->is_empty()) sources.push_back(part);
  }
  if (!sources.empty()) merged.Merge(sources.data(), sources.size());
  return merged;
}

}  // namespace req

#endif  // REQSKETCH_CORE_REQ_SKETCH_H_
