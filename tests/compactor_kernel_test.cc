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
//     schedule state and version bump.
#include "core/relative_compactor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "core/req_common.h"
#include "core/req_serde.h"
#include "core/req_sketch.h"
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

}  // namespace
}  // namespace req
