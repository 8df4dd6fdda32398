// The relative-compactor (Algorithm 1 and Figures 1-2 of the paper).
//
// A relative-compactor is a buffer of capacity B = 2 * k * num_sections that
// ingests a stream of items and, whenever full, performs a *compaction
// operation*: it sorts the buffer, selects the L_C most-compactible items
// (the largest in LRA orientation, the smallest in HRA orientation), removes
// them, and promotes every other one of them -- even- or odd-indexed with
// equal probability (Observation 4) -- to the caller, which feeds them to
// the next level with doubled weight.
//
// The number of compacted items follows the derandomized exponential
// schedule of Section 2.1: during the (C+1)-st compaction,
//     L_C = (z(C) + 1) * k,
// where z(C) is the number of trailing ones in the binary representation of
// the compaction state C. Section j (of size k, numbered from the
// compactible end) therefore participates in every 2^(j-1)-th compaction,
// and the B/2 items on the protected side are never compacted -- the source
// of the multiplicative error guarantee. Fact 5 (between two compactions of
// exactly j sections there is one of > j sections) follows from the
// trailing-ones schedule and is exercised directly by the unit tests.
//
// For mergeability (Appendix D), the state C is public: Algorithm 3 combines
// the states of two sketches with bitwise OR, and "special" compactions
// (parameter regrowth) compact everything above the protected half.
//
// Hot-path structure: the buffer maintains a *sorted-prefix invariant* --
// items [0, sorted_prefix_) are sorted ascending, everything after is the
// unsorted insert tail. Every compaction leaves the surviving buffer fully
// sorted, so between compactions the tail is only the items inserted since,
// and CountRank binary-searches the prefix and linearly scans only the
// tail. A compaction is one fused kernel (CompactRange): it sorts a copy
// of the tail alone (O(u log u) for tail length u; core/tail_sort.h, a
// branchless run-merge or sorting-network kernel for doubles), takes the
// compacted items with a merge walk of compact_count steps from the
// compactible end of prefix and tail, and then merges the surviving tail
// items into the surviving prefix by moving whole prefix blocks once,
// straight to their final offsets; each block boundary is found by
// galloping, so the walk costs O(log) per block instead of its length.
// The HRA survivors land at the front of the slot in the same pass, so no
// orientation shifts the buffer a second time. Ties keep
// prefix-before-tail order, i.e. the stable merge order.
//
// Storage: items live in a LevelArena slot, NOT in a per-compactor
// std::vector. A standalone compactor (unit tests, ablation harnesses)
// owns a private single-slot arena; inside a ReqSketch every level is a
// slot of the sketch's shared arena, so the whole retained set is one
// contiguous allocation (see core/level_arena.h). The compactor's logic is
// storage-agnostic: all operations address the arena through (arena, slot).
//
// Change tracking: version() is a monotone counter bumped by every
// content mutation (inserts, compactions, clear, restore). The sketch's
// sorted view uses it to tell that no level above 0 changed since the
// last view build, in which case appends to level 0 are merged into the
// view in place.
#ifndef REQSKETCH_CORE_RELATIVE_COMPACTOR_H_
#define REQSKETCH_CORE_RELATIVE_COMPACTOR_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "core/level_arena.h"
#include "core/req_common.h"
#include "core/tail_sort.h"
#include "util/bits.h"
#include "util/random.h"
#include "util/validation.h"

namespace req {

template <typename T, typename Compare = std::less<T>>
class RelativeCompactor {
 public:
  // Standalone form: the compactor owns a private single-slot arena.
  RelativeCompactor(uint32_t section_size, uint32_t num_sections,
                    RankAccuracy accuracy, SchedulePolicy schedule,
                    CoinMode coin, Compare comp = Compare())
      : RelativeCompactor(nullptr, section_size, num_sections, accuracy,
                          schedule, coin, std::move(comp)) {}

  // Arena-backed form: appends a slot to `arena` (which must outlive the
  // compactor; the owner re-points it on copies/moves via RebindArena).
  // Passing nullptr selects the standalone form.
  RelativeCompactor(LevelArena<T>* arena, uint32_t section_size,
                    uint32_t num_sections, RankAccuracy accuracy,
                    SchedulePolicy schedule, CoinMode coin,
                    Compare comp = Compare())
      : comp_(std::move(comp)),
        section_size_(section_size),
        num_sections_(num_sections),
        accuracy_(accuracy),
        schedule_(schedule),
        coin_(coin) {
    util::CheckArg(section_size >= 2 && section_size % 2 == 0,
                   "section size must be even and >= 2");
    util::CheckArg(num_sections >= 2, "num_sections must be >= 2");
    if (arena == nullptr) {
      own_arena_ = std::make_unique<LevelArena<T>>();
      arena = own_arena_.get();
    }
    arena_ = arena;
    slot_ = arena_->AddSlot(capacity());
  }

  // A standalone compactor deep-copies its private arena. An arena-backed
  // one copies the binding only -- its owner copies the shared arena
  // wholesale and rebinds every level (see ReqSketch's copy constructor).
  RelativeCompactor(const RelativeCompactor& other)
      : comp_(other.comp_),
        own_arena_(other.own_arena_
                       ? std::make_unique<LevelArena<T>>(*other.own_arena_)
                       : nullptr),
        arena_(own_arena_ ? own_arena_.get() : other.arena_),
        slot_(other.slot_),
        section_size_(other.section_size_),
        num_sections_(other.num_sections_),
        accuracy_(other.accuracy_),
        schedule_(other.schedule_),
        coin_(other.coin_),
        state_(other.state_),
        num_compactions_(other.num_compactions_),
        version_(other.version_),
        sorted_prefix_(other.sorted_prefix_) {}

  RelativeCompactor(RelativeCompactor&& other) noexcept
      : comp_(std::move(other.comp_)),
        own_arena_(std::move(other.own_arena_)),
        arena_(own_arena_ ? own_arena_.get() : other.arena_),
        slot_(other.slot_),
        section_size_(other.section_size_),
        num_sections_(other.num_sections_),
        accuracy_(other.accuracy_),
        schedule_(other.schedule_),
        coin_(other.coin_),
        state_(other.state_),
        num_compactions_(other.num_compactions_),
        version_(other.version_),
        sorted_prefix_(other.sorted_prefix_) {}

  RelativeCompactor& operator=(const RelativeCompactor& other) {
    if (this == &other) return *this;
    RelativeCompactor copy(other);
    *this = std::move(copy);
    return *this;
  }

  RelativeCompactor& operator=(RelativeCompactor&& other) noexcept {
    comp_ = std::move(other.comp_);
    own_arena_ = std::move(other.own_arena_);
    arena_ = own_arena_ ? own_arena_.get() : other.arena_;
    slot_ = other.slot_;
    section_size_ = other.section_size_;
    num_sections_ = other.num_sections_;
    accuracy_ = other.accuracy_;
    schedule_ = other.schedule_;
    coin_ = other.coin_;
    state_ = other.state_;
    num_compactions_ = other.num_compactions_;
    version_ = other.version_;
    sorted_prefix_ = other.sorted_prefix_;
    return *this;
  }

  // Re-points an arena-backed compactor at (a copy of) its storage; called
  // by the owning sketch after copying/moving the shared arena. No-op for
  // standalone compactors (they carry their arena with them).
  void RebindArena(LevelArena<T>* arena) {
    if (!own_arena_) arena_ = arena;
  }

  // Deep-copies this compactor into a slot of `arena` (used by the merge
  // path to special-compact a scratch copy of a source sketch's levels
  // without touching the source's storage).
  RelativeCompactor CloneInto(LevelArena<T>* arena) const {
    RelativeCompactor clone(arena, section_size_, num_sections_, accuracy_,
                            schedule_, coin_, comp_);
    arena->Reserve(clone.slot_, size());
    arena->Append(clone.slot_, begin(), end());
    clone.state_ = state_;
    clone.num_compactions_ = num_compactions_;
    clone.version_ = version_;
    clone.sorted_prefix_ = sorted_prefix_;
    return clone;
  }

  // --- accessors -----------------------------------------------------------

  uint32_t section_size() const { return section_size_; }
  uint32_t num_sections() const { return num_sections_; }
  uint32_t capacity() const {
    return params::Capacity(section_size_, num_sections_);
  }
  size_t size() const { return arena_->Size(slot_); }
  bool empty() const { return size() == 0; }
  bool IsFull() const { return size() >= capacity(); }

  // Compaction-schedule state C (number of compactions in streaming use;
  // after merges it is the bitwise OR of the constituents' states).
  uint64_t state() const { return state_; }
  void set_state(uint64_t state) { state_ = state; }
  // Appendix D merge rule: the merged state is the bitwise OR (Fact 18/19).
  void OrState(uint64_t other_state) { state_ |= other_state; }

  uint64_t num_compactions() const { return num_compactions_; }

  // Monotone content-change counter (see header comment).
  uint64_t version() const { return version_; }

  ItemSpan<T> items() const { return ItemSpan<T>(begin(), size()); }

  // --- updates -------------------------------------------------------------

  void Insert(const T& item) {
    arena_->PushBack(slot_, item);
    ExtendSortedPrefix();
    ++version_;
  }
  void Insert(T&& item) {
    arena_->PushBack(slot_, std::move(item));
    ExtendSortedPrefix();
    ++version_;
  }

  // Bulk insert used by the sketch's batch update: appends `count` items
  // in order. Equivalent to `count` scalar Insert calls (including the
  // sorted-prefix bookkeeping) minus the per-call overhead.
  void Insert(const T* data, size_t count) {
    arena_->Append(slot_, data, data + count);
    ExtendSortedPrefix();
    ++version_;
  }

  // Grows the slot's capacity (never shrinks, never changes contents);
  // used by merges to size a level once up front.
  void Reserve(size_t total) { arena_->Reserve(slot_, total); }

  // Bulk insert used by merge: appends all items from a sibling buffer.
  void InsertAll(ItemSpan<T> other_items) {
    if (other_items.empty()) return;
    arena_->Append(slot_, other_items.begin(), other_items.end());
    ExtendSortedPrefix();
    ++version_;
  }

  // Move-appending overload used for promotion during compaction cascades:
  // the source keeps its allocation (the caller reuses it as a scratch
  // buffer) but its items are moved, not copied.
  void InsertAll(std::vector<T>&& other_items) {
    if (other_items.empty()) return;
    arena_->Append(slot_,
                   std::make_move_iterator(other_items.begin()),
                   std::make_move_iterator(other_items.end()));
    other_items.clear();
    ExtendSortedPrefix();
    ++version_;
  }

  // Drops all contents and schedule state but keeps the slot's region:
  // the cheap-retirement primitive behind ReqSketch::Reset(), which the
  // sliding-window wrapper calls every bucket rotation.
  void Clear() {
    arena_->ClearSlot(slot_);
    sorted_prefix_ = 0;
    state_ = 0;
    num_compactions_ = 0;
    ++version_;
  }

  // Reconfigures the section geometry after the sketch's global parameters
  // regrow (N -> N^2 recomputes k and B; Appendix D.1). Existing items and
  // state are preserved; the caller is responsible for having run the
  // special compaction first.
  void SetGeometry(uint32_t section_size, uint32_t num_sections) {
    util::CheckArg(section_size >= 2 && section_size % 2 == 0,
                   "section size must be even and >= 2");
    util::CheckArg(num_sections >= 2, "num_sections must be >= 2");
    section_size_ = section_size;
    num_sections_ = num_sections;
  }

  // --- compaction ----------------------------------------------------------

  // Returns the number of items the schedule will compact next: the paper's
  // L_C = (z(C)+1)*k, clamped to half the capacity (the clamp is the
  // "L <= B/2 always holds" property; it only binds defensively after
  // merges inflate the state).
  uint32_t NextCompactionWidth() const {
    uint32_t sections_involved;
    switch (schedule_) {
      case SchedulePolicy::kExponential:
        sections_involved = static_cast<uint32_t>(
            util::TrailingOnes(state_)) + 1;
        break;
      case SchedulePolicy::kUniform:
        sections_involved = num_sections_;
        break;
      case SchedulePolicy::kSingleSection:
        sections_involved = 1;
        break;
      default:
        sections_involved = 1;
    }
    sections_involved = std::min(sections_involved, num_sections_);
    return sections_involved * section_size_;
  }

  // Performs one scheduled compaction (Lines 5-10 of Algorithm 1, extended
  // per Algorithm 3 to also consume any items beyond the nominal capacity).
  // Fills `*promoted` (cleared first) with the items to be fed to the next
  // level; the caller owns the vector and can reuse it across compactions
  // as a scratch buffer. Leaves `*promoted` empty (and the schedule state
  // untouched) when there is nothing to compact; callers invoke it only
  // when size() >= capacity().
  void Compact(util::Xoshiro256& rng, std::vector<T>* promoted) {
    promoted->clear();
    const uint32_t width = NextCompactionWidth();
    // Everything beyond the nominal capacity B is "extra" (can only appear
    // during merges) and is always included in the compaction.
    const size_t extras = size() > capacity() ? size() - capacity() : 0;
    size_t compact_count =
        std::min(size(), static_cast<size_t>(width) + extras);
    // Keep the compacted range even so exactly half of it is promoted and
    // total weight is conserved (the estimator then satisfies
    // RankEstimate(max) == n exactly).
    compact_count &= ~size_t{1};
    if (compact_count < 2) return;
    CompactRange(compact_count, rng, promoted);
    state_ += 1;
    ++num_compactions_;
  }

  // Value-returning convenience wrapper (tests and simple callers).
  std::vector<T> Compact(util::Xoshiro256& rng) {
    std::vector<T> promoted;
    Compact(rng, &promoted);
    return promoted;
  }

  // "Special" compaction used when parameters regrow and during merges
  // (Algorithm 3, SpecialCompaction): compacts every item above the
  // protected half, leaving at most capacity()/2 items. Leaves `*promoted`
  // empty if the buffer already holds <= capacity()/2 items.
  void SpecialCompact(util::Xoshiro256& rng, std::vector<T>* promoted) {
    promoted->clear();
    const size_t protect = capacity() / 2;
    if (size() <= protect) return;
    const size_t compact_count = (size() - protect) & ~size_t{1};
    if (compact_count < 2) return;
    CompactRange(compact_count, rng, promoted);
    state_ += 1;
    ++num_compactions_;
  }

  std::vector<T> SpecialCompact(util::Xoshiro256& rng) {
    std::vector<T> promoted;
    SpecialCompact(rng, &promoted);
    return promoted;
  }

  // --- queries -------------------------------------------------------------

  // Number of stored items <= y (inclusive) or < y (exclusive), unweighted.
  // Binary search over the sorted prefix plus a linear pass over the insert
  // tail: O(log B + u) instead of O(B).
  uint64_t CountRank(const T& y, Criterion criterion) const {
    const T* first = begin();
    const T* prefix_end = first + sorted_prefix_;
    const T* last = end();
    uint64_t count;
    if (criterion == Criterion::kInclusive) {
      count = static_cast<uint64_t>(
          std::upper_bound(first, prefix_end, y, comp_) - first);
      for (const T* it = prefix_end; it != last; ++it) {
        if (!comp_(y, *it)) ++count;  // x <= y
      }
    } else {
      count = static_cast<uint64_t>(
          std::lower_bound(first, prefix_end, y, comp_) - first);
      for (const T* it = prefix_end; it != last; ++it) {
        if (comp_(*it, y)) ++count;  // x < y
      }
    }
    return count;
  }

  // Restores buffer contents and schedule state; used by deserialization
  // (core/req_serde.h) only. The sorted prefix is recomputed from the data.
  void Restore(std::vector<T> items, uint64_t state,
               uint64_t num_compactions) {
    arena_->ClearSlot(slot_);
    arena_->Reserve(slot_, items.size());
    arena_->Append(slot_, std::make_move_iterator(items.begin()),
                   std::make_move_iterator(items.end()));
    sorted_prefix_ = static_cast<size_t>(
        std::is_sorted_until(begin(), end(), comp_) - begin());
    state_ = state;
    num_compactions_ = num_compactions;
    ++version_;
  }

  bool sorted() const { return sorted_prefix_ == size(); }
  // Length of the sorted prefix (exposed for tests, diagnostics, and the
  // sorted-view build, which reads the prefix in place and sorts only a
  // copy of the tail).
  size_t sorted_prefix() const { return sorted_prefix_; }

 private:
  const T* begin() const { return arena_->Data(slot_); }
  const T* end() const { return arena_->Data(slot_) + size(); }
  T* begin_mutable() { return arena_->Data(slot_); }

  // Advances sorted_prefix_ past any newly appended items that continue the
  // ascending order. When the prefix is stalled short of the end this
  // compares one adjacent pair and stops, so it is O(1) amortized; its
  // purpose is to keep already-ordered input (sorted streams, promoted
  // runs landing in an empty or fully sorted buffer) free to sort later.
  void ExtendSortedPrefix() {
    const T* data = begin();
    while (sorted_prefix_ < size() &&
           (sorted_prefix_ == 0 ||
            !comp_(data[sorted_prefix_], data[sorted_prefix_ - 1]))) {
      ++sorted_prefix_;
    }
  }

  // Compacts the `compact_count` items at the compactible end of the buffer
  // (in sorted order): removes them and appends every other one (random
  // parity) to `*promoted`, in ascending order. LRA orientation compacts
  // the largest items (the paper's pseudocode); HRA compacts the smallest,
  // protecting the top of the distribution. Leaves the surviving buffer
  // fully sorted at the front of the slot, in exactly the order a stable
  // merge of the sorted prefix with the sorted tail would give.
  void CompactRange(size_t compact_count, util::Xoshiro256& rng,
                    std::vector<T>* promoted) {
    const bool keep_odds = (coin_ == CoinMode::kDeterministic)
                               ? true
                               : rng.NextBit();
    T* data = begin_mutable();
    const size_t n = size();
    const size_t p = sorted_prefix_;
    // The sorted tail lives outside the slot so the prefix can be moved
    // over the tail's old positions, which serve the sort as scratch
    // space. The buffer is per thread, so sketches compacting on different
    // threads never share it; it keeps the capacity of the longest tail
    // its thread has compacted.
    static thread_local std::vector<T> tail;
    tail.assign(std::make_move_iterator(data + p),
                std::make_move_iterator(data + n));
    T* sorted_tail = tail.data();
    const size_t u = tail.size();
    detail::SortTail(sorted_tail, u, data + p, comp_);
    // compact_count is even: each pair of consecutive compacted items, in
    // ascending order, promotes its odd (keep_odds) or even member.
    promoted->resize(compact_count / 2);
    T* out = promoted->data();
    if (accuracy_ == RankAccuracy::kLowRanks) {
      // Walk down from the largest item; a tie takes the tail item first,
      // since a stable merge places it after equal prefix items. The walk
      // compacts data[i, p) and sorted_tail[j, u).
      size_t i = p;
      size_t j = u;
      auto next_largest = [&]() -> T& {
        if (j > 0 && (i == 0 || !comp_(sorted_tail[j - 1], data[i - 1]))) {
          return sorted_tail[--j];
        }
        return data[--i];
      };
      for (size_t q = compact_count / 2; q-- > 0;) {
        T& upper = next_largest();
        T& lower = next_largest();
        out[q] = std::move(keep_odds ? upper : lower);
      }
      MergeSurvivors(data, 0, i, sorted_tail, j);
    } else {
      // Walk up from the smallest item; a tie takes the prefix item first.
      // The walk compacts data[0, i) and sorted_tail[0, j).
      size_t i = 0;
      size_t j = 0;
      auto next_smallest = [&]() -> T& {
        if (j < u && (i == p || comp_(sorted_tail[j], data[i]))) {
          return sorted_tail[j++];
        }
        return data[i++];
      };
      for (size_t q = 0; q < compact_count / 2; ++q) {
        T& lower = next_smallest();
        T& upper = next_smallest();
        out[q] = std::move(keep_odds ? upper : lower);
      }
      MergeSurvivors(data, i, p, sorted_tail + j, u - j);
    }
    tail.clear();
    arena_->Truncate(slot_, n - compact_count);
    sorted_prefix_ = size();
    ++version_;
  }

  // Merges the sorted prefix survivors data[lo, hi) with the sorted tail
  // survivors tail[0, m) into data[0, hi - lo + m), tail items after equal
  // prefix items. Prefix block b -- the items with exactly b tail items
  // before them -- moves by b - lo, so the blocks that move down form a
  // leading run and the ones that move up a trailing run. Down-movers go
  // first in ascending order, up-movers then in descending order, so no
  // block overwrites one that has not moved yet; each tail item drops into
  // the gap after its block. Each block boundary is found by galloping
  // from the side the walk comes from, so a short block costs a compare or
  // two, as a linear walk would, and a long one a logarithmic search.
  void MergeSurvivors(T* data, size_t lo, size_t hi, T* tail, size_t m) {
    size_t start = lo;  // first item of block b
    size_t b = 0;
    for (; b < lo && b <= m; ++b) {
      const size_t end = b < m ? GallopForward(data, start, hi, tail[b]) : hi;
      const size_t down = lo - b;
      std::move(data + start, data + end, data + start - down);
      if (b < m) data[end - down] = std::move(tail[b]);
      start = end;
    }
    // Blocks b..m move up by (block - lo) >= 0; block lo stays put. The
    // walk stops at `start`: items below it have already been moved.
    size_t end = hi;  // one past block bb
    for (size_t bb = m; bb > b; --bb) {
      const size_t first = GallopBackward(data, start, end, tail[bb - 1]);
      const size_t up = bb - lo;
      std::move_backward(data + first, data + end, data + end + up);
      data[first + up - 1] = std::move(tail[bb - 1]);
      end = first;
    }
  }

  // First position in [first, last) whose item is greater than `key`, or
  // `last`: probes first, first + 2, first + 6, ... and then binary-searches
  // the last step.
  size_t GallopForward(const T* data, size_t first, size_t last,
                       const T& key) const {
    size_t step = 1;  // data[first, lo) <= key
    size_t lo = first;
    while (step <= last - lo && !comp_(key, data[lo + step - 1])) {
      lo += step;
      step *= 2;
    }
    const size_t hi = lo + std::min(step - 1, last - lo);
    return static_cast<size_t>(
        std::upper_bound(data + lo, data + hi, key, comp_) - data);
  }

  // The same position, searched from `last` down: probes last - 1,
  // last - 3, last - 7, ... and then binary-searches the last step.
  size_t GallopBackward(const T* data, size_t first, size_t last,
                        const T& key) const {
    size_t step = 1;  // data[hi, last) > key
    size_t hi = last;
    while (step <= hi - first && comp_(key, data[hi - step])) {
      hi -= step;
      step *= 2;
    }
    const size_t lo = hi - std::min(step - 1, hi - first);
    return static_cast<size_t>(
        std::upper_bound(data + lo, data + hi, key, comp_) - data);
  }

  Compare comp_;
  // Storage: (arena_, slot_). own_arena_ is non-null only for standalone
  // compactors; inside a sketch, arena_ points at the sketch's shared
  // arena and the sketch rebinds it on copies/moves.
  std::unique_ptr<LevelArena<T>> own_arena_;
  LevelArena<T>* arena_ = nullptr;
  uint32_t slot_ = 0;
  uint32_t section_size_;
  uint32_t num_sections_;
  RankAccuracy accuracy_;
  SchedulePolicy schedule_;
  CoinMode coin_;
  uint64_t state_ = 0;
  uint64_t num_compactions_ = 0;
  uint64_t version_ = 0;
  // Items [0, sorted_prefix_) are sorted ascending; [sorted_prefix_, end)
  // is the unsorted insert tail. Compactions reset it to the full size.
  size_t sorted_prefix_ = 0;
};

}  // namespace req

#endif  // REQSKETCH_CORE_RELATIVE_COMPACTOR_H_
