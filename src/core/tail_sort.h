// Sorting the insert tail of a relative-compactor.
//
// A compaction sorts only the items appended since the previous one (the
// insert tail; see core/relative_compactor.h) and merges them into the
// already sorted rest of the buffer. SortTail sorts that tail. For
// floating-point items under std::less -- the only item type the service
// stores -- it runs a branchless kernel; every other item type and
// comparator keeps std::sort.
//
// The kernel picks its shape from the input (PlanTailSort):
//   * A tail of at most kMaxTailRuns ascending runs is merged run by run.
//     Upper levels receive whole promoted runs, so their tails are often
//     a few runs: about 40% of the compactions of perfbench's ingest and
//     30% of dashboard's take this path, and ingest costs 4% more CPU per
//     item without it (EXPERIMENTS.md, E13). One pass finds the run
//     starts without branching on the data.
//   * Any other tail is cut into blocks of 8, each sorted by a
//     19-comparator network, and the blocks are merged bottom-up.
// Compare-exchanges and merge steps are std::min/std::max on values,
// which compile to minsd/maxsd instead of a compare and a data-dependent
// branch. Merges ping-pong between the tail and a caller-supplied scratch
// region of the same length, so the kernel allocates nothing.
//
// The output is bit-identical to std::sort's. Two floating-point values
// that compare equal have identical bits unless they are -0.0 and +0.0
// (NaN never reaches a compactor: the sketch rejects it), so every correct
// sort writes the same bytes -- except on a tail that holds both zeros,
// where the order among them depends on the algorithm. Such a tail falls
// back to std::sort.
#ifndef REQSKETCH_CORE_TAIL_SORT_H_
#define REQSKETCH_CORE_TAIL_SORT_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <type_traits>
#include <utility>

namespace req {
namespace detail {

// Largest number of ascending runs the kernel merges directly; a tail
// with more runs goes through the sorting network.
constexpr size_t kMaxTailRuns = 4;

enum class TailSortPath {
  kStdSort,   // not a floating-point item under std::less, or a tail that
              // holds both -0.0 and +0.0 (std::sort decides their order)
  kRunMerge,  // at most kMaxTailRuns ascending runs
  kNetwork,   // blocks of 8 through the sorting network, then merges
};

struct TailSortPlan {
  TailSortPath path = TailSortPath::kStdSort;
  // kRunMerge only: run r is [run_starts[r], run_starts[r + 1]).
  size_t num_runs = 0;
  size_t run_starts[kMaxTailRuns + 1] = {};
};

template <typename T, typename Compare>
constexpr bool kBranchlessTailSort =
    std::is_floating_point<T>::value &&
    std::is_same<Compare, std::less<T>>::value;

// Chooses how SortTail sorts v[0, n).
template <typename T, typename Compare>
TailSortPlan PlanTailSort(const T* v, size_t n) {
  TailSortPlan plan;
  if constexpr (kBranchlessTailSort<T, Compare>) {
    bool negative_zero = false;
    bool positive_zero = false;
    for (size_t i = 0; i < n; ++i) {
      const bool zero = v[i] == T(0);
      const bool sign = std::signbit(v[i]);
      negative_zero |= zero & sign;
      positive_zero |= zero & !sign;
    }
    if (negative_zero && positive_zero) return plan;
    // runs counts the descents seen so far plus one; run_starts[runs] is
    // rewritten each step until a descent commits it.
    size_t runs = 1;
    for (size_t i = 1; i < n && runs <= kMaxTailRuns; ++i) {
      plan.run_starts[runs] = i;
      runs += v[i] < v[i - 1];
    }
    if (runs <= kMaxTailRuns) {
      plan.path = TailSortPath::kRunMerge;
      plan.num_runs = runs;
      plan.run_starts[runs] = n;
    } else {
      plan.path = TailSortPath::kNetwork;
    }
  }
  return plan;
}

template <typename T>
inline void CompareExchange(T& a, T& b) {
  const T low = std::min(a, b);
  b = std::max(a, b);
  a = low;
}

// Sorts the 8 items at src into dst (which may equal src).
template <typename T>
inline void SortBlock8(const T* src, T* dst) {
  T x0 = src[0], x1 = src[1], x2 = src[2], x3 = src[3];
  T x4 = src[4], x5 = src[5], x6 = src[6], x7 = src[7];
  CompareExchange(x0, x2);
  CompareExchange(x1, x3);
  CompareExchange(x4, x6);
  CompareExchange(x5, x7);
  CompareExchange(x0, x4);
  CompareExchange(x1, x5);
  CompareExchange(x2, x6);
  CompareExchange(x3, x7);
  CompareExchange(x0, x1);
  CompareExchange(x2, x3);
  CompareExchange(x4, x5);
  CompareExchange(x6, x7);
  CompareExchange(x2, x4);
  CompareExchange(x3, x5);
  CompareExchange(x1, x4);
  CompareExchange(x3, x6);
  CompareExchange(x1, x2);
  CompareExchange(x3, x4);
  CompareExchange(x5, x6);
  dst[0] = x0, dst[1] = x1, dst[2] = x2, dst[3] = x3;
  dst[4] = x4, dst[5] = x5, dst[6] = x6, dst[7] = x7;
}

// Stable merge of the sorted runs src[lo, mid) and src[mid, hi) into
// dst[lo, hi). std::min(a, b) is (b < a ? b : a): the left item wins ties.
template <typename T>
void MergeRuns(const T* src, size_t lo, size_t mid, size_t hi, T* dst) {
  size_t i = lo;
  size_t j = mid;
  T* out = dst + lo;
  while (i < mid && j < hi) {
    const T a = src[i];
    const T b = src[j];
    const bool right = b < a;
    *out++ = std::min(a, b);
    i += !right;
    j += right;
  }
  out = std::copy(src + i, src + mid, out);
  std::copy(src + j, src + hi, out);
}

template <typename T>
void MergeListedRuns(T* v, size_t n, T* scratch, TailSortPlan plan) {
  size_t runs = plan.num_runs;
  size_t* starts = plan.run_starts;
  size_t rounds = 0;
  for (size_t r = runs; r > 1; r = (r + 1) / 2) ++rounds;
  // Each round moves the items to the other buffer; start where an even
  // number of moves ends in v.
  T* src = v;
  T* dst = scratch;
  if (rounds % 2 == 1) {
    std::copy(v, v + n, scratch);
    std::swap(src, dst);
  }
  for (; runs > 1; runs = (runs + 1) / 2) {
    for (size_t r = 0; r < runs; r += 2) {
      const size_t mid = starts[std::min(r + 1, runs)];
      const size_t hi = starts[std::min(r + 2, runs)];
      MergeRuns(src, starts[r], mid, hi, dst);
      starts[r / 2] = starts[r];
    }
    starts[(runs + 1) / 2] = n;
    std::swap(src, dst);
  }
}

template <typename T>
void NetworkSort(T* v, size_t n, T* scratch) {
  size_t rounds = 0;
  for (size_t width = 8; width < n; width *= 2) ++rounds;
  // The network writes into the buffer from which an even number of
  // merge rounds ends in v.
  T* src = rounds % 2 == 1 ? scratch : v;
  T* dst = rounds % 2 == 1 ? v : scratch;
  const size_t full = n & ~size_t{7};
  for (size_t i = 0; i < full; i += 8) SortBlock8(v + i, src + i);
  if (full < n) {
    // Pad the last block with +inf; padding sorts after every real item
    // and a real +inf has the same bits, so the first n - full are right.
    T block[8];
    std::fill(block, block + 8, std::numeric_limits<T>::infinity());
    std::copy(v + full, v + n, block);
    SortBlock8(block, block);
    std::copy(block, block + (n - full), src + full);
  }
  for (size_t width = 8; width < n; width *= 2) {
    for (size_t lo = 0; lo < n; lo += 2 * width) {
      const size_t mid = std::min(lo + width, n);
      const size_t hi = std::min(lo + 2 * width, n);
      MergeRuns(src, lo, mid, hi, dst);
    }
    std::swap(src, dst);
  }
}

// Sorts v[0, n) under comp. `scratch` must hold n items; it is clobbered
// on the floating-point path and unused otherwise.
template <typename T, typename Compare>
void SortTail(T* v, size_t n, T* scratch, const Compare& comp) {
  if constexpr (kBranchlessTailSort<T, Compare>) {
    const TailSortPlan plan = PlanTailSort<T, Compare>(v, n);
    if (plan.path == TailSortPath::kRunMerge) {
      MergeListedRuns(v, n, scratch, plan);
      return;
    }
    if (plan.path == TailSortPath::kNetwork) {
      NetworkSort(v, n, scratch);
      return;
    }
  }
  static_cast<void>(scratch);
  std::sort(v, v + n, comp);
}

}  // namespace detail
}  // namespace req

#endif  // REQSKETCH_CORE_TAIL_SORT_H_
