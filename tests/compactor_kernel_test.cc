// Pins the compaction kernel's output bit for bit.
//
// (a) Golden digests: FNV-1a over the serialized bytes of sketches driven
//     through every shape of compaction the library performs (both
//     orientations, small/default/large k_base, single-item and batch
//     updates, a continuous stream and a heavy-ties stream with -0.0 and
//     +0.0, an 8-way merge, fixed-n mode and std::string items). The
//     expected values were recorded once and must never be edited: any
//     change to which items a compaction keeps, promotes, or in which
//     storage order it leaves equal-keyed items shows up here.
// (b) Differential test: a seeded randomized loop runs Compact and
//     SpecialCompact side by side with a reference kernel kept in this
//     file (sort the insert tail, stable std::inplace_merge with the
//     sorted prefix, select every other compactible item, erase) and
//     asserts equal promoted items, buffer contents, sorted prefix,
//     schedule state and version bump. Coverage counters check that the
//     runs reach every tail-sort path (core/tail_sort.h) in both
//     orientations.
// (c) The tail sort itself, bitwise against std::sort at every size up to
//     600 on random, reversed, all-equal, k-run and mixed-zero inputs.
#include "core/relative_compactor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "core/req_common.h"
#include "core/req_serde.h"
#include "core/req_sketch.h"
#include "core/tail_sort.h"
#include "util/random.h"
#include "workload/distributions.h"

namespace req {
namespace {

// --- (a) golden digests ----------------------------------------------------

uint64_t Fnv1a(const uint8_t* data, size_t size,
               uint64_t hash = 0xcbf29ce484222325ULL) {
  for (size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

uint64_t Digest(const ReqSketch<double>& sketch) {
  const std::vector<uint8_t> bytes = SerializeSketch(sketch);
  return Fnv1a(bytes.data(), bytes.size());
}

// ReqSerde covers trivially copyable items only, so string sketches are
// digested over the same fields it writes: n and, per level, the schedule
// state, compaction count, item count and every item's bytes in storage
// order.
uint64_t Digest(const ReqSketch<std::string>& sketch) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  auto mix = [&hash](const void* data, size_t size) {
    hash = Fnv1a(static_cast<const uint8_t*>(data), size, hash);
  };
  const uint64_t n = sketch.n();
  mix(&n, sizeof(n));
  for (const auto& level : sketch.levels()) {
    const uint64_t header[3] = {level.state(), level.num_compactions(),
                                level.size()};
    mix(header, sizeof(header));
    for (const std::string& item : level.items()) {
      const uint64_t length = item.size();
      mix(&length, sizeof(length));
      mix(item.data(), item.size());
    }
  }
  return hash;
}

constexpr size_t kGoldenItems = 60000;
constexpr size_t kBatch = 1024;

std::vector<double> LognormalStream(uint64_t seed) {
  return workload::GenerateLognormal(kGoldenItems, seed);
}

// A handful of distinct keys, two of which (-0.0 and +0.0) compare equal
// but serialize differently: the stored order among ties is observable.
std::vector<double> TiesStream(uint64_t seed) {
  static const double kValues[] = {-0.0, 0.0, 1.0, 2.5, -3.0, 1.0, 0.0};
  util::Xoshiro256 rng(seed);
  std::vector<double> out(kGoldenItems);
  for (double& v : out) v = kValues[rng.NextBounded(7)];
  return out;
}

ReqConfig GoldenConfig(uint32_t k_base, RankAccuracy acc) {
  ReqConfig config;
  config.k_base = k_base;
  config.accuracy = acc;
  config.seed = 0xC0FFEE + k_base;
  return config;
}

template <typename T>
void Feed(ReqSketch<T>* sketch, const std::vector<T>& values, bool batch) {
  if (!batch) {
    for (const T& v : values) sketch->Update(v);
    return;
  }
  for (size_t i = 0; i < values.size(); i += kBatch) {
    sketch->Update(values.data() + i, std::min(kBatch, values.size() - i));
  }
}

struct GoldenCase {
  const char* name;
  uint64_t digest;
};

// Recorded from the sort-tail + std::inplace_merge kernel; never edit.
// Order: {HRA, LRA} x k_base {4, 32, 256} x {single, batch} x
// {lognormal, ties}.
constexpr GoldenCase kStreamGolden[] = {
    {"hra/k4/single/lognormal", 0x91783ec334580c3aULL},
    {"hra/k4/single/ties", 0x73db020e96ca54d8ULL},
    {"hra/k4/batch/lognormal", 0x91783ec334580c3aULL},
    {"hra/k4/batch/ties", 0x73db020e96ca54d8ULL},
    {"hra/k32/single/lognormal", 0xaed852a643e17a2eULL},
    {"hra/k32/single/ties", 0x927a58b35eb03360ULL},
    {"hra/k32/batch/lognormal", 0xaed852a643e17a2eULL},
    {"hra/k32/batch/ties", 0x927a58b35eb03360ULL},
    {"hra/k256/single/lognormal", 0xa444052e5a301e62ULL},
    {"hra/k256/single/ties", 0x4204a93d78b0d6dULL},
    {"hra/k256/batch/lognormal", 0xa444052e5a301e62ULL},
    {"hra/k256/batch/ties", 0x4204a93d78b0d6dULL},
    {"lra/k4/single/lognormal", 0xca64d267e95b5983ULL},
    {"lra/k4/single/ties", 0x4b1f7997bde1c321ULL},
    {"lra/k4/batch/lognormal", 0xca64d267e95b5983ULL},
    {"lra/k4/batch/ties", 0x4b1f7997bde1c321ULL},
    {"lra/k32/single/lognormal", 0xb7681789c9cb2b35ULL},
    {"lra/k32/single/ties", 0x6a1bfbef606a5e65ULL},
    {"lra/k32/batch/lognormal", 0xb7681789c9cb2b35ULL},
    {"lra/k32/batch/ties", 0x6a1bfbef606a5e65ULL},
    {"lra/k256/single/lognormal", 0xd1e1fb8b7ec4de40ULL},
    {"lra/k256/single/ties", 0x7f117b5601495ef9ULL},
    {"lra/k256/batch/lognormal", 0xd1e1fb8b7ec4de40ULL},
    {"lra/k256/batch/ties", 0x7f117b5601495ef9ULL},
};

TEST(CompactorKernelGoldenTest, StreamDigests) {
  const std::vector<double> lognormal = LognormalStream(7);
  const std::vector<double> ties = TiesStream(11);
  size_t index = 0;
  for (RankAccuracy acc : {RankAccuracy::kHighRanks, RankAccuracy::kLowRanks}) {
    for (uint32_t k_base : {4u, 32u, 256u}) {
      for (bool batch : {false, true}) {
        for (const std::vector<double>* stream : {&lognormal, &ties}) {
          ReqSketch<double> sketch(GoldenConfig(k_base, acc));
          Feed(&sketch, *stream, batch);
          const GoldenCase& golden = kStreamGolden[index++];
          EXPECT_EQ(Digest(sketch), golden.digest)
              << golden.name << std::hex << " got 0x" << Digest(sketch);
        }
      }
    }
  }
}

// Eight sketches over disjoint slices of both streams, merged in one
// N-way Merge: exercises the special compactions and the multi-thousand
// item "extras" tails that only merges produce.
TEST(CompactorKernelGoldenTest, EightWayMergeDigests) {
  // HRA, LRA; never edit.
  const uint64_t expected[] = {0x9914b774c82eafb7ULL, 0xe2b28238ac430ed8ULL};
  const std::vector<double> lognormal = LognormalStream(13);
  const std::vector<double> ties = TiesStream(17);
  size_t index = 0;
  for (RankAccuracy acc : {RankAccuracy::kHighRanks, RankAccuracy::kLowRanks}) {
    std::vector<ReqSketch<double>> parts;
    for (uint32_t p = 0; p < 8; ++p) {
      ReqConfig config = GoldenConfig(32, acc);
      config.seed += p;
      parts.emplace_back(config);
      const std::vector<double>& stream = (p % 2 == 0) ? lognormal : ties;
      const size_t slice = stream.size() / 8;
      parts.back().Update(stream.data() + p * slice, slice);
    }
    ReqSketch<double> merged(GoldenConfig(32, acc));
    merged.Update(lognormal.data(), 1000);
    merged.Merge(parts.data(), parts.size());
    EXPECT_EQ(Digest(merged), expected[index])
        << "acc " << index << std::hex << " got 0x" << Digest(merged);
    ++index;
  }
}

// Theorem 14 mode: parameters fixed for a known N, never regrown.
TEST(CompactorKernelGoldenTest, FixedNDigests) {
  // HRA, LRA; never edit.
  const uint64_t expected[] = {0xa1628c1862700037ULL, 0x107eb7e2f3954399ULL};
  const std::vector<double> lognormal = LognormalStream(19);
  size_t index = 0;
  for (RankAccuracy acc : {RankAccuracy::kHighRanks, RankAccuracy::kLowRanks}) {
    ReqConfig config = GoldenConfig(32, acc);
    config.n_hint = kGoldenItems;
    ReqSketch<double> sketch(config);
    Feed(&sketch, lognormal, /*batch=*/true);
    EXPECT_EQ(Digest(sketch), expected[index])
        << "acc " << index << std::hex << " got 0x" << Digest(sketch);
    ++index;
  }
}

// Non-trivially copyable items: the kernel moves, rather than copies,
// std::string payloads. Keys repeat so ties are common.
TEST(CompactorKernelGoldenTest, StringItemDigests) {
  // HRA, LRA; never edit.
  const uint64_t expected[] = {0x7501513661007b0cULL, 0x17abe056c97fa5acULL};
  util::Xoshiro256 rng(23);
  std::vector<std::string> words(20000);
  for (std::string& w : words) {
    w = "key-" + std::to_string(rng.NextBounded(3000)) + "-payload";
  }
  size_t index = 0;
  for (RankAccuracy acc : {RankAccuracy::kHighRanks, RankAccuracy::kLowRanks}) {
    ReqSketch<std::string> sketch(GoldenConfig(16, acc));
    Feed(&sketch, words, /*batch=*/index == 1);
    EXPECT_EQ(Digest(sketch), expected[index])
        << "acc " << index << std::hex << " got 0x" << Digest(sketch);
    ++index;
  }
}

// --- (b) differential test against the reference kernel --------------------

// The sort-tail + inplace_merge + select + erase kernel, applied to a copy
// of `c`'s buffer. Returns false (and leaves the outputs empty) when the
// compaction would be a no-op.
template <typename T, typename Compare>
bool ReferenceCompact(const RelativeCompactor<T, Compare>& c, bool special,
                      bool keep_odds, RankAccuracy acc, const Compare& comp,
                      std::vector<T>* promoted, std::vector<T>* survivors) {
  const size_t n = c.size();
  size_t count;
  if (special) {
    const size_t protect = c.capacity() / 2;
    if (n <= protect) return false;
    count = (n - protect) & ~size_t{1};
  } else {
    const size_t extras = n > c.capacity() ? n - c.capacity() : 0;
    count = std::min(n, static_cast<size_t>(c.NextCompactionWidth()) + extras);
    count &= ~size_t{1};
  }
  if (count < 2) return false;
  std::vector<T> buf(c.items().begin(), c.items().end());
  T* first = buf.data();
  T* mid = first + c.sorted_prefix();
  T* last = first + n;
  std::sort(mid, last, comp);
  if (mid != first) std::inplace_merge(first, mid, last, comp);
  const size_t start = acc == RankAccuracy::kLowRanks ? n - count : 0;
  for (size_t i = start + (keep_odds ? 1 : 0); i < start + count; i += 2) {
    promoted->push_back(buf[i]);
  }
  buf.erase(buf.begin() + static_cast<ptrdiff_t>(start),
            buf.begin() + static_cast<ptrdiff_t>(start + count));
  *survivors = std::move(buf);
  return true;
}

// Bitwise item equality: -0.0 and +0.0 compare equal under operator==.
std::vector<uint64_t> Bits(const double* data, size_t size) {
  std::vector<uint64_t> out(size);
  if (size > 0) std::memcpy(out.data(), data, size * sizeof(double));
  return out;
}
std::vector<uint64_t> Bits(const std::vector<double>& v) {
  return Bits(v.data(), v.size());
}
std::vector<std::string> Bits(const std::vector<std::string>& v) { return v; }

struct Coverage {
  size_t tail_shorter = 0;
  size_t tail_equal = 0;
  size_t tail_longer = 0;
  size_t extras = 0;
  size_t special = 0;
  size_t deterministic = 0;
  // Tail-sort path taken, per orientation (index 0 HRA, 1 LRA). For
  // doubles under std::less, std_sort counts the +-0 fallback.
  size_t network[2] = {};
  size_t run_merge[2] = {};
  size_t std_sort[2] = {};
};

template <typename T, typename Compare, typename MakeItem>
void RunDifferential(uint64_t seed, const Compare& comp, MakeItem make_item,
                     Coverage* coverage) {
  util::Xoshiro256 plan(seed);
  for (int trial = 0; trial < 60; ++trial) {
    const uint32_t k = 2 * static_cast<uint32_t>(1 + plan.NextBounded(4));
    const uint32_t sections = 2 + static_cast<uint32_t>(plan.NextBounded(4));
    const RankAccuracy acc =
        plan.NextBit() ? RankAccuracy::kHighRanks : RankAccuracy::kLowRanks;
    const CoinMode coin =
        plan.NextBit() ? CoinMode::kDeterministic : CoinMode::kRandom;
    RelativeCompactor<T, Compare> c(k, sections, acc,
                                    SchedulePolicy::kExponential, coin, comp);
    util::Xoshiro256 rng(plan.Next());
    SCOPED_TRACE(testing::Message() << "seed " << seed << " trial " << trial);
    for (int step = 0; step < 80; ++step) {
      // Grow the buffer: single inserts, an ascending run (extends the
      // sorted prefix), or a bulk append that may overshoot capacity.
      const uint64_t op = plan.NextBounded(4);
      const size_t limit = op == 3 ? 3 * c.capacity() : c.capacity();
      const size_t count = 1 + plan.NextBounded(limit);
      std::vector<T> items(count);
      for (T& item : items) item = make_item(plan);
      if (op == 2) std::sort(items.begin(), items.end(), comp);
      if (op == 0) {
        for (const T& item : items) c.Insert(item);
      } else {
        c.Insert(items.data(), items.size());
      }
      if (plan.NextBounded(3) == 0) continue;  // let the tail build up

      const bool special = plan.NextBounded(4) == 0;
      const size_t tail = c.size() - c.sorted_prefix();
      const detail::TailSortPath path =
          detail::PlanTailSort<T, Compare>(
              c.items().begin() + c.sorted_prefix(), tail)
              .path;
      util::Xoshiro256 coin_rng = rng;
      const bool keep_odds =
          coin == CoinMode::kDeterministic ? true : coin_rng.NextBit();
      std::vector<T> want_promoted;
      std::vector<T> want_items;
      const bool compacts = ReferenceCompact(c, special, keep_odds, acc, comp,
                                             &want_promoted, &want_items);
      const size_t compacted = compacts ? 2 * want_promoted.size() : 0;
      const bool had_extras = c.size() > c.capacity();
      const uint64_t state = c.state();
      const uint64_t version = c.version();
      const std::vector<T> before(c.items().begin(), c.items().end());

      std::vector<T> promoted = {make_item(plan)};  // must be cleared
      if (special) {
        c.SpecialCompact(rng, &promoted);
      } else {
        c.Compact(rng, &promoted);
      }
      SCOPED_TRACE(testing::Message() << "step " << step << " tail " << tail);
      if (!compacts) {
        ASSERT_TRUE(promoted.empty());
        ASSERT_EQ(c.state(), state);
        ASSERT_EQ(c.version(), version);
        ASSERT_EQ(Bits(std::vector<T>(c.items().begin(), c.items().end())),
                  Bits(before));
        continue;
      }
      if (coin == CoinMode::kRandom) {
        ASSERT_EQ(rng.state(), coin_rng.state());
      }
      ASSERT_EQ(Bits(promoted), Bits(want_promoted));
      ASSERT_EQ(Bits(std::vector<T>(c.items().begin(), c.items().end())),
                Bits(want_items));
      ASSERT_EQ(c.sorted_prefix(), c.size());
      ASSERT_EQ(c.state(), state + 1);
      ASSERT_EQ(c.version(), version + 1);
      coverage->tail_shorter += tail < compacted;
      coverage->tail_equal += tail == compacted;
      coverage->tail_longer += tail > compacted;
      coverage->extras += had_extras;
      coverage->special += special;
      coverage->deterministic += coin == CoinMode::kDeterministic;
      const size_t side = acc == RankAccuracy::kLowRanks ? 1 : 0;
      coverage->network[side] += path == detail::TailSortPath::kNetwork;
      coverage->run_merge[side] += path == detail::TailSortPath::kRunMerge;
      coverage->std_sort[side] += path == detail::TailSortPath::kStdSort;
    }
  }
}

void ExpectFullCoverage(const Coverage& coverage) {
  EXPECT_GT(coverage.tail_shorter, 0u);
  EXPECT_GT(coverage.tail_equal, 0u);
  EXPECT_GT(coverage.tail_longer, 0u);
  EXPECT_GT(coverage.extras, 0u);
  EXPECT_GT(coverage.special, 0u);
  EXPECT_GT(coverage.deterministic, 0u);
}

// Doubles on a small grid with both zeros: dense ties, and tie order is
// visible in the bit patterns.
TEST(CompactorKernelDifferentialTest, DoublesWithSignedZeroTies) {
  auto make_item = [](util::Xoshiro256& rng) {
    const uint64_t r = rng.NextBounded(12);
    if (r == 0) return -0.0;
    return static_cast<double>(r) - 1.0;  // 0.0 .. 10.0
  };
  Coverage coverage;
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    RunDifferential<double>(seed, std::less<double>(), make_item, &coverage);
  }
  ExpectFullCoverage(coverage);
}

// Doubles under std::less, the branchless tail sort's domain: continuous
// values, +-inf, denormals, exact repeats, and zeros that are mostly +0.0
// with the odd -0.0, so most tails hold one sign of zero (sorted by the
// branchless kernel) and some hold both (the std::sort fallback).
TEST(CompactorKernelDifferentialTest, DoublesBranchlessTailSort) {
  auto make_item = [](util::Xoshiro256& rng) {
    static const double kRepeats[] = {1.5, -2.25, 1e-300, 7.0};
    const uint64_t r = rng.NextBounded(16);
    if (r < 6) return (rng.NextDouble() * 2.0 - 1.0) * 1e3;
    if (r == 6) return std::numeric_limits<double>::infinity();
    if (r == 7) return -std::numeric_limits<double>::infinity();
    if (r == 8) {
      const double denormal = std::numeric_limits<double>::denorm_min() *
                              static_cast<double>(1 + rng.NextBounded(1000));
      return rng.NextBit() ? denormal : -denormal;
    }
    if (r < 13) return kRepeats[rng.NextBounded(4)];
    return rng.NextBounded(8) == 0 ? -0.0 : 0.0;
  };
  Coverage coverage;
  for (uint64_t seed : {9u, 10u, 11u, 12u}) {
    RunDifferential<double>(seed, std::less<double>(), make_item, &coverage);
  }
  ExpectFullCoverage(coverage);
  for (size_t side = 0; side < 2; ++side) {
    SCOPED_TRACE(testing::Message() << "orientation " << side);
    EXPECT_GT(coverage.network[side], 0u);
    EXPECT_GT(coverage.run_merge[side], 0u);
    EXPECT_GT(coverage.std_sort[side], 0u);  // only +-0 tails take it
  }
}

// Continuous values under a reversed comparator: no ties, every position
// distinct, so any misplaced block shows up.
TEST(CompactorKernelDifferentialTest, DoublesReversedComparator) {
  auto make_item = [](util::Xoshiro256& rng) { return rng.NextDouble(); };
  Coverage coverage;
  for (uint64_t seed : {5u, 6u}) {
    RunDifferential<double>(seed, std::greater<double>(), make_item,
                            &coverage);
  }
  ExpectFullCoverage(coverage);
}

// Distinct strings compared by their first character only: every tie is
// between distinguishable items, so the prefix-before-tail order and the
// tail's own sort order are both pinned.
struct FirstCharLess {
  bool operator()(const std::string& a, const std::string& b) const {
    return a[0] < b[0];
  }
};

TEST(CompactorKernelDifferentialTest, StringsWithCoarseComparator) {
  uint64_t serial = 0;
  auto make_item = [&serial](util::Xoshiro256& rng) {
    const char key = static_cast<char>('a' + rng.NextBounded(6));
    return std::string(1, key) + "#" + std::to_string(serial++);
  };
  Coverage coverage;
  for (uint64_t seed : {7u, 8u}) {
    RunDifferential<std::string>(seed, FirstCharLess(), make_item, &coverage);
  }
  ExpectFullCoverage(coverage);
}

// --- (c) the tail sort -------------------------------------------------------

// Sorts a copy of `input` with SortTail and with std::sort and compares
// the bytes; returns the path SortTail took.
detail::TailSortPath ExpectSortsLikeStdSort(const std::vector<double>& input) {
  std::vector<double> got = input;
  std::vector<double> want = input;
  // Scratch is poisoned so any read of an unwritten slot shows up.
  std::vector<double> scratch(input.size(), -123.0);
  const detail::TailSortPath path =
      detail::PlanTailSort<double, std::less<double>>(got.data(), got.size())
          .path;
  detail::SortTail(got.data(), got.size(), scratch.data(),
                   std::less<double>());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(Bits(got), Bits(want));
  return path;
}

TEST(TailSortTest, MatchesStdSortBitwiseAtEverySize) {
  util::Xoshiro256 rng(29);
  for (size_t n = 0; n <= 600; ++n) {
    SCOPED_TRACE(testing::Message() << "n " << n);
    std::vector<double> random(n);
    for (double& v : random) v = rng.NextDouble() * 100.0 - 50.0;
    const detail::TailSortPath random_path = ExpectSortsLikeStdSort(random);
    if (n >= 16) {
      EXPECT_EQ(random_path, detail::TailSortPath::kNetwork);
    }

    std::vector<double> reversed = random;
    std::sort(reversed.begin(), reversed.end(), std::greater<double>());
    const detail::TailSortPath reversed_path = ExpectSortsLikeStdSort(reversed);
    if (n > detail::kMaxTailRuns) {
      EXPECT_EQ(reversed_path, detail::TailSortPath::kNetwork);
    }

    EXPECT_EQ(ExpectSortsLikeStdSort(std::vector<double>(n, 3.25)),
              detail::TailSortPath::kRunMerge);

    // 1..6 ascending runs of random lengths: up to kMaxTailRuns merge
    // directly, more go through the network.
    for (size_t runs = 1; runs <= 6 && runs <= n; ++runs) {
      std::vector<double> k_run = random;
      std::vector<size_t> cuts = {0, n};
      for (size_t r = 1; r < runs; ++r) cuts.push_back(rng.NextBounded(n));
      std::sort(cuts.begin(), cuts.end());
      for (size_t r = 0; r + 1 < cuts.size(); ++r) {
        std::sort(k_run.begin() + static_cast<ptrdiff_t>(cuts[r]),
                  k_run.begin() + static_cast<ptrdiff_t>(cuts[r + 1]));
      }
      const detail::TailSortPath path = ExpectSortsLikeStdSort(k_run);
      if (runs <= detail::kMaxTailRuns) {
        EXPECT_EQ(path, detail::TailSortPath::kRunMerge);
      }
    }

    // Both zeros among other ties: std::sort decides the zeros' order.
    std::vector<double> zeros(n);
    bool negative_zero = false;
    bool positive_zero = false;
    for (double& v : zeros) {
      const uint64_t r = rng.NextBounded(4);
      v = r == 0 ? -0.0 : r == 1 ? 0.0 : static_cast<double>(r) - 2.5;
      negative_zero |= r == 0;
      positive_zero |= r == 1;
    }
    const detail::TailSortPath zeros_path = ExpectSortsLikeStdSort(zeros);
    EXPECT_EQ(zeros_path == detail::TailSortPath::kStdSort,
              negative_zero && positive_zero);
  }
}

TEST(TailSortTest, NetworkSortsEveryZeroOneInput) {
  // The 0-1 principle: a comparator network that sorts every 0/1 input
  // sorts every input. Sizes up to 16 cover one block, a padded block and
  // the first merge round.
  for (size_t n = 1; n <= 16; ++n) {
    for (uint32_t mask = 0; mask < (1u << n); ++mask) {
      std::vector<double> v(n);
      for (size_t i = 0; i < n; ++i) v[i] = (mask >> i) & 1u;
      const auto ones = std::count(v.begin(), v.end(), 1.0);
      std::vector<double> scratch(n);
      detail::NetworkSort(v.data(), n, scratch.data());
      ASSERT_TRUE(std::is_sorted(v.begin(), v.end())) << n << " " << mask;
      ASSERT_EQ(std::count(v.begin(), v.end(), 1.0), ones);
    }
  }
}

// Other item types and comparators keep std::sort.
TEST(TailSortTest, OtherTypesAndComparatorsUseStdSort) {
  const double values[] = {3.0, 1.0, 2.0};
  EXPECT_EQ((detail::PlanTailSort<double, std::greater<double>>(values, 3)
                 .path),
            detail::TailSortPath::kStdSort);
  const std::string words[] = {"b", "a"};
  EXPECT_EQ((detail::PlanTailSort<std::string, std::less<std::string>>(words,
                                                                        2)
                 .path),
            detail::TailSortPath::kStdSort);
}

}  // namespace
}  // namespace req
