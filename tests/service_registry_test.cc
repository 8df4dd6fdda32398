// SketchRegistry + engine tests: directory semantics (create/find/drop,
// epoch-cached LIST snapshots), per-engine behavior -- including the
// plain engine's bit-identical-to-in-process guarantee, the snapshot
// blob format, and every kind's live answers against a from-scratch
// reference after each batch -- and a registry-level concurrency stress
// that the CI ThreadSanitizer job runs.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/req_serde.h"
#include "core/req_sketch.h"
#include "gtest/gtest.h"
#include "service/sketch_registry.h"
#include "util/random.h"
#include "window/windowed_req_sketch.h"

namespace req {
namespace service {
namespace {

std::vector<double> TestStream(uint64_t seed, size_t count) {
  util::Xoshiro256 rng(seed);
  std::vector<double> values(count);
  for (double& v : values) v = rng.NextDouble() * 1e6;
  return values;
}

const std::vector<double> kQs = {0.0, 0.01, 0.25, 0.5, 0.9,
                                 0.99, 0.999, 1.0};

std::vector<const ReqSketch<double>*> Pointers(
    const std::vector<ReqSketch<double>>& sketches) {
  std::vector<const ReqSketch<double>*> pointers;
  for (const ReqSketch<double>& sketch : sketches) pointers.push_back(&sketch);
  return pointers;
}

// A sharded snapshot's merged view, built from scratch: the SHRQ payload's
// shards parsed, then N-way merged over shard 0's (the base) config.
ReqSketch<double> MergeSnapshotShards(const std::vector<uint8_t>& payload) {
  uint64_t buffer_capacity = 0;
  const std::vector<ReqSketch<double>> shards =
      detail::DeserializeShards<double>(payload, &buffer_capacity);
  return MergeShards(shards.front().config(), Pointers(shards));
}

// --- registry directory ----------------------------------------------------

TEST(SketchRegistry, CreateFindDrop) {
  SketchRegistry registry;
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(registry.Find("a"), nullptr);
  EXPECT_THROW(registry.Require("a"), MetricNotFound);

  MetricSpec spec;
  auto engine = registry.Create("a", spec);
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->kind(), EngineKind::kPlain);
  EXPECT_EQ(registry.Find("a"), engine);
  EXPECT_EQ(registry.Require("a"), engine);
  EXPECT_EQ(registry.size(), 1u);

  EXPECT_THROW(registry.Create("a", spec), MetricExists);

  EXPECT_TRUE(registry.Drop("a"));
  EXPECT_FALSE(registry.Drop("a"));
  EXPECT_EQ(registry.Find("a"), nullptr);

  // A handle taken before the drop keeps working (shared ownership).
  const std::vector<double> items = {1.0, 2.0, 3.0};
  engine->Append(items.data(), items.size());
  EXPECT_EQ(engine->AcceptedN(), 3u);
}

TEST(SketchRegistry, RejectsBadNamesAndSpecs) {
  SketchRegistry registry;
  MetricSpec spec;
  EXPECT_THROW(registry.Create("", spec), std::runtime_error);
  EXPECT_THROW(registry.Create("has space", spec), std::runtime_error);

  MetricSpec odd_k;
  odd_k.base.k_base = 33;  // must be even
  EXPECT_THROW(registry.Create("m", odd_k), std::invalid_argument);

  MetricSpec zero_shards;
  zero_shards.kind = EngineKind::kSharded;
  zero_shards.num_shards = 0;
  EXPECT_THROW(registry.Create("m", zero_shards), std::invalid_argument);

  MetricSpec tickless_window;
  tickless_window.kind = EngineKind::kWindowed;
  tickless_window.bucket_items = 0;  // no Rotate() on the wire
  EXPECT_THROW(registry.Create("m", tickless_window),
               std::invalid_argument);

  MetricSpec one_bucket;
  one_bucket.kind = EngineKind::kWindowed;
  one_bucket.num_buckets = 1;
  EXPECT_THROW(registry.Create("m", one_bucket), std::invalid_argument);

  EXPECT_EQ(registry.size(), 0u);
}

TEST(SketchRegistry, ListIsSortedAndEpochCached) {
  SketchRegistry registry;
  MetricSpec spec;
  registry.Create("zeta", spec);
  registry.Create("alpha", spec);
  registry.Create("mid.dle", spec);

  auto names = registry.List();
  ASSERT_EQ(names->size(), 3u);
  EXPECT_EQ((*names)[0], "alpha");
  EXPECT_EQ((*names)[1], "mid.dle");
  EXPECT_EQ((*names)[2], "zeta");

  // Same epoch -> the identical snapshot object (lock-free fast path).
  auto again = registry.List();
  EXPECT_EQ(names.get(), again.get());

  // Create/Drop bump the epoch -> fresh snapshot; the old one survives.
  const uint64_t before = registry.Epoch();
  registry.Drop("mid.dle");
  EXPECT_GT(registry.Epoch(), before);
  auto after = registry.List();
  EXPECT_NE(names.get(), after.get());
  EXPECT_EQ(after->size(), 2u);
  EXPECT_EQ(names->size(), 3u);
}

// --- plain engine ----------------------------------------------------------

TEST(PlainEngine, MatchesInProcessSketchBitIdentically) {
  MetricSpec spec;
  spec.base.k_base = 64;
  spec.buffer_capacity = 1024;
  SketchRegistry registry;
  auto engine = registry.Create("m", spec);

  // Feed through the engine in ragged batches; feed the reference the
  // same stream in one call. The batch-update equivalence guarantee makes
  // chunking irrelevant, so the two must agree bit-for-bit.
  const std::vector<double> stream = TestStream(42, 50000);
  size_t i = 0, step = 1;
  while (i < stream.size()) {
    const size_t len = std::min(step, stream.size() - i);
    engine->Append(stream.data() + i, len);
    i += len;
    step = step * 3 + 1;
    if (step > 7000) step = 1;
  }

  ReqSketch<double> reference(spec.base);
  reference.Update(stream);

  EXPECT_EQ(engine->AcceptedN(), stream.size());
  const std::vector<double> expected_q = reference.GetQuantiles(kQs);
  const std::vector<double> served_q =
      engine->GetQuantiles(kQs, Criterion::kInclusive);
  ASSERT_EQ(served_q.size(), expected_q.size());
  for (size_t j = 0; j < expected_q.size(); ++j) {
    EXPECT_EQ(served_q[j], expected_q[j]) << "q=" << kQs[j];
  }

  const std::vector<double> points = TestStream(43, 512);
  EXPECT_EQ(engine->GetRanks(points, Criterion::kInclusive),
            reference.GetRanks(points));
  std::vector<double> splits = {1e3, 1e4, 1e5, 5e5, 9e5};
  EXPECT_EQ(engine->GetCDF(splits, Criterion::kInclusive),
            reference.GetCDF(splits));

  // Snapshot blob: kind tag + byte-exact ReqSerde payload.
  const std::vector<uint8_t> blob = engine->Snapshot();
  ASSERT_EQ(SnapshotBlobKind(blob), EngineKind::kPlain);
  EXPECT_EQ(SnapshotBlobPayload(blob), SerializeSketch(reference));
}

TEST(PlainEngine, QueriesSeeEveryAcknowledgedAppend) {
  MetricSpec spec;
  spec.buffer_capacity = 4096;  // larger than the appends below
  SketchRegistry registry;
  auto engine = registry.Create("m", spec);
  const std::vector<double> items = {5.0, 1.0, 3.0};
  engine->Append(items.data(), items.size());
  // Nothing forced a drain yet; the query must still see all 3 items.
  EXPECT_EQ(engine->GetRanks({3.0}, Criterion::kInclusive)[0], 2u);
  EXPECT_EQ(engine->GetQuantiles({1.0}, Criterion::kInclusive)[0], 5.0);
}

TEST(PlainEngine, EmptyAndNaNHandling) {
  SketchRegistry registry;
  auto engine = registry.Create("m", MetricSpec{});
  EXPECT_THROW(engine->GetQuantiles({0.5}, Criterion::kInclusive),
               std::logic_error);
  const double nan = std::nan("");
  const std::vector<double> bad = {1.0, nan};
  EXPECT_THROW(engine->Append(bad.data(), bad.size()),
               std::invalid_argument);
  EXPECT_EQ(engine->AcceptedN(), 0u);  // strong guarantee: nothing staged
  // A snapshot of an empty metric still round-trips.
  ReqSketch<double> restored =
      DeserializeSketch<double>(SnapshotBlobPayload(engine->Snapshot()));
  EXPECT_TRUE(restored.is_empty());
  // Out-of-range q on a non-empty metric (on an empty one, the
  // empty-state logic_error wins, as checked above).
  const std::vector<double> ok = {1.0};
  engine->Append(ok.data(), ok.size());
  EXPECT_THROW(engine->GetQuantiles({2.0}, Criterion::kInclusive),
               std::invalid_argument);
}

// --- sharded engine --------------------------------------------------------

TEST(ShardedEngine, AggregatesAcrossShardsAndSnapshots) {
  MetricSpec spec;
  spec.kind = EngineKind::kSharded;
  spec.num_shards = 4;
  spec.base.k_base = 64;
  SketchRegistry registry;
  auto engine = registry.Create("m", spec);

  const std::vector<double> stream = TestStream(7, 40000);
  for (size_t i = 0; i < stream.size(); i += 1000) {
    engine->Append(stream.data() + i,
                   std::min<size_t>(1000, stream.size() - i));
  }
  EXPECT_EQ(engine->AcceptedN(), stream.size());

  // Rank answers must be within the k=64 guarantee of the exact ranks.
  std::vector<double> sorted(stream);
  std::sort(sorted.begin(), sorted.end());
  const double q99 =
      engine->GetQuantiles({0.99}, Criterion::kInclusive)[0];
  const uint64_t rank =
      engine->GetRanks({q99}, Criterion::kInclusive)[0];
  EXPECT_NEAR(static_cast<double>(rank), 0.99 * stream.size(),
              0.05 * stream.size());

  const std::vector<uint8_t> blob = engine->Snapshot();
  ASSERT_EQ(SnapshotBlobKind(blob), EngineKind::kSharded);
  const ReqSketch<double> restored =
      MergeSnapshotShards(SnapshotBlobPayload(blob));
  EXPECT_EQ(restored.n(), stream.size());
  EXPECT_EQ(restored.GetQuantile(0.99),
            engine->GetQuantiles({0.99}, Criterion::kInclusive)[0]);
}

// A sharded metric equals num_shards in-process sketches, shard i seeded
// ShardConfig(base, i), fed batch j into shard j % num_shards (empty
// batches advance the rotation too) and queried through MergeShards: the
// same SHRQ bytes and the same answers, also after recovery from a
// checkpoint at batch position B.
TEST(ShardedEngine, MatchesInProcessShardsBitIdentically) {
  MetricSpec spec;
  spec.kind = EngineKind::kSharded;
  spec.num_shards = 3;
  spec.base.k_base = 64;
  spec.buffer_capacity = 1000;
  std::vector<ReqSketch<double>> shards;
  for (size_t i = 0; i < spec.num_shards; ++i) {
    shards.emplace_back(detail::ShardConfig(spec.base, i));
  }
  const std::vector<double> stream = TestStream(91, 60000);
  const std::vector<double> points = TestStream(92, 512);
  const std::vector<double> splits = {1e3, 1e4, 1e5, 5e5, 9e5};
  SketchRegistry registry;
  SketchRegistry::EnginePtr engine = registry.Create("m", spec);
  size_t pos = 0;
  size_t step = 1;
  uint64_t batches = 0;
  for (const size_t end : {stream.size() / 2, stream.size()}) {
    if (pos > 0) {
      engine = registry.CreateRecovered("recovered", spec, engine->Snapshot(),
                                        engine->AcceptedN(), batches);
    }
    while (pos < end) {
      const size_t len = (batches == 4) ? 0 : std::min(step, end - pos);
      engine->Append(stream.data() + pos, len);
      shards[batches++ % spec.num_shards].Update(stream.data() + pos, len);
      pos += len;
      step = (step > 2000) ? 1 : step * 3 + 1;
    }
    EXPECT_EQ(SnapshotBlobPayload(engine->Snapshot()),
              detail::SerializeShards(Pointers(shards), spec.buffer_capacity));
    const ReqSketch<double> reference =
        MergeShards(spec.base, Pointers(shards));
    EXPECT_EQ(engine->GetQuantiles(kQs, Criterion::kInclusive),
              reference.GetQuantiles(kQs, Criterion::kInclusive));
    EXPECT_EQ(engine->GetRanks(points, Criterion::kExclusive),
              reference.GetRanks(points, Criterion::kExclusive));
    EXPECT_EQ(engine->GetCDF(splits, Criterion::kInclusive),
              reference.GetCDF(splits, Criterion::kInclusive));
    EXPECT_EQ(engine->AcceptedN(), pos);
  }
}

// Golden digest of a sharded metric's SHRQ snapshot payload: FNV-1a over
// the bytes of a fixed 3-shard spec fed a fixed stream in ragged batches
// (one of them empty, which still advances the rotation). Pins the SHRQ
// layout, the shard seeding and the batch rotation together; any change
// to them changes this digest.
TEST(ShardedEngine, SnapshotPayloadGoldenDigest) {
  MetricSpec spec;
  spec.kind = EngineKind::kSharded;
  spec.num_shards = 3;
  spec.base.k_base = 64;
  spec.base.seed = 4242;
  spec.buffer_capacity = 4096;
  SketchRegistry registry;
  auto engine = registry.Create("m", spec);
  const std::vector<double> stream = TestStream(17, 50000);
  size_t pos = 0;
  size_t step = 5;
  for (uint64_t batch = 0; pos < stream.size(); ++batch) {
    const size_t len = (batch == 3) ? 0 : std::min(step, stream.size() - pos);
    engine->Append(stream.data() + pos, len);
    pos += len;
    step = (step > 4000) ? 5 : step * 2 + 3;
  }
  const std::vector<uint8_t> payload = SnapshotBlobPayload(engine->Snapshot());
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (uint8_t byte : payload) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  EXPECT_EQ(payload.size(), 98786u);
  EXPECT_EQ(hash, 0xf099e0d84f1f5eedULL) << std::hex << " got 0x" << hash;
}

// --- windowed engine -------------------------------------------------------

TEST(WindowedEngine, TracksWindowAndExpiresOldData) {
  MetricSpec spec;
  spec.kind = EngineKind::kWindowed;
  spec.num_buckets = 4;
  spec.bucket_items = 1000;
  spec.base.k_base = 64;
  SketchRegistry registry;
  auto engine = registry.Create("m", spec);

  // Reference window fed the identical stream: engine answers must match
  // (same config, same seeds, same count-driven rotation boundaries).
  window::WindowedReqConfig wconfig;
  wconfig.num_buckets = spec.num_buckets;
  wconfig.bucket_items = spec.bucket_items;
  wconfig.base = spec.base;
  window::WindowedReqSketch<double> reference(wconfig);

  // Phase 1: low values fill most of the window.
  const std::vector<double> low = TestStream(1, 3500);
  engine->Append(low.data(), low.size());
  reference.Update(low);
  // Phase 2: high values push every low bucket out.
  std::vector<double> high = TestStream(2, 4000);
  for (double& v : high) v += 1e7;
  engine->Append(high.data(), high.size());
  reference.Update(high);

  const std::vector<double> served =
      engine->GetQuantiles(kQs, Criterion::kInclusive);
  const std::vector<double> expected = reference.GetQuantiles(kQs);
  ASSERT_EQ(served.size(), expected.size());
  for (size_t j = 0; j < expected.size(); ++j) {
    EXPECT_EQ(served[j], expected[j]) << "q=" << kQs[j];
  }
  // The old epoch is gone from the window: its median sits in the new
  // data's range.
  EXPECT_GE(served[3], 1e7);

  const std::vector<uint8_t> blob = engine->Snapshot();
  ASSERT_EQ(SnapshotBlobKind(blob), EngineKind::kWindowed);
  auto restored = window::WindowedReqSketch<double>::Deserialize(
      SnapshotBlobPayload(blob));
  EXPECT_EQ(restored.n(), reference.n());
  EXPECT_EQ(restored.GetQuantile(0.5), reference.GetQuantile(0.5));
}

// --- every kind: live queries vs. a from-scratch reference ----------------

// An engine answers from its live state: the plain sketch's sorted view
// (rebuilt from its levels, or repaired in place after level-0 appends),
// the window's and the shards' memoized merges. Each
// answer must equal that of a reference built from scratch at the same
// point -- the in-process structure deserialized from the engine's own
// snapshot, never queried before.
template <typename Reference>
void ExpectSameAnswers(MetricEngine* engine, const Reference& reference,
                       Criterion criterion) {
  const std::vector<double> points = TestStream(5, 64);
  const std::vector<double> splits = {1e3, 1e4, 1e5, 5e5, 9e5};
  EXPECT_EQ(engine->GetQuantiles(kQs, criterion),
            reference.GetQuantiles(kQs, criterion));
  EXPECT_EQ(engine->GetRanks(points, criterion),
            reference.GetRanks(points, criterion));
  EXPECT_EQ(engine->GetCDF(splits, criterion),
            reference.GetCDF(splits, criterion));
}

TEST(EngineQueries, InterleavedQueriesMatchFreshReferenceEveryKind) {
  const std::vector<double> stream = TestStream(61, 30000);
  for (EngineKind kind :
       {EngineKind::kPlain, EngineKind::kSharded, EngineKind::kWindowed}) {
    SCOPED_TRACE(static_cast<int>(kind));
    MetricSpec spec;
    spec.kind = kind;
    spec.base.k_base = 16;
    spec.num_shards = 3;
    spec.num_buckets = 4;
    spec.bucket_items = 2000;  // the stream rotates the window 14 times
    SketchRegistry registry;
    auto engine = registry.Create("m", spec);
    size_t pos = 0;
    size_t step = 1;
    for (uint64_t batch = 0; pos < stream.size(); ++batch) {
      // Ragged batches, one of them empty.
      const size_t len =
          (batch == 5) ? 0 : std::min(step, stream.size() - pos);
      engine->Append(stream.data() + pos, len);
      pos += len;
      step = (step > 3000) ? 1 : step * 3 + 1;
      SCOPED_TRACE(batch);
      const Criterion criterion =
          (batch % 2 == 0) ? Criterion::kInclusive : Criterion::kExclusive;
      const std::vector<uint8_t> payload =
          SnapshotBlobPayload(engine->Snapshot());
      switch (kind) {
        case EngineKind::kPlain:
          ExpectSameAnswers(engine.get(), DeserializeSketch<double>(payload),
                            criterion);
          break;
        case EngineKind::kSharded:
          ExpectSameAnswers(engine.get(), MergeSnapshotShards(payload),
                            criterion);
          break;
        case EngineKind::kWindowed:
          ExpectSameAnswers(
              engine.get(),
              window::WindowedReqSketch<double>::Deserialize(payload),
              criterion);
          break;
      }
    }
    EXPECT_EQ(engine->AcceptedN(), stream.size());
  }
}

// --- concurrency stress (TSan target) --------------------------------------

TEST(SketchRegistry, ConcurrentTenantsAndDirectoryChurn) {
  SketchRegistry registry;
  MetricSpec plain;
  plain.buffer_capacity = 256;
  MetricSpec sharded;
  sharded.kind = EngineKind::kSharded;
  sharded.num_shards = 2;
  sharded.buffer_capacity = 256;
  MetricSpec windowed;
  windowed.kind = EngineKind::kWindowed;
  windowed.num_buckets = 4;
  windowed.bucket_items = 2000;
  registry.Create("stress.plain", plain);
  registry.Create("stress.sharded", sharded);
  registry.Create("stress.windowed", windowed);

  constexpr size_t kItemsPerWriter = 20000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;

  // One writer per metric (each engine serializes its own producers
  // anyway; one writer keeps the stress deterministic in volume).
  const std::vector<std::string> metrics = {
      "stress.plain", "stress.sharded", "stress.windowed"};
  for (size_t w = 0; w < metrics.size(); ++w) {
    threads.emplace_back([&, w] {
      auto engine = registry.Require(metrics[w]);
      const std::vector<double> stream =
          TestStream(100 + w, kItemsPerWriter);
      for (size_t i = 0; i < stream.size(); i += 97) {
        engine->Append(stream.data() + i,
                       std::min<size_t>(97, stream.size() - i));
      }
    });
  }
  // Two query threads hammering all metrics.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        for (const std::string& name : metrics) {
          auto engine = registry.Find(name);
          if (!engine) continue;
          try {
            engine->GetQuantiles({0.5, 0.99}, Criterion::kInclusive);
            engine->GetRanks({1e5}, Criterion::kInclusive);
          } catch (const std::logic_error&) {
            // Empty at this instant: legal.
          }
        }
      }
    });
  }
  // Directory churn: transient metrics created and dropped while LIST
  // snapshots are being taken.
  threads.emplace_back([&] {
    MetricSpec spec;
    for (int i = 0; i < 200; ++i) {
      const std::string name = "churn." + std::to_string(i % 5);
      try {
        registry.Create(name, spec);
      } catch (const MetricExists&) {
      }
      registry.List();
      registry.Drop(name);
    }
  });

  for (size_t w = 0; w < metrics.size(); ++w) threads[w].join();
  stop.store(true, std::memory_order_release);
  for (size_t t = metrics.size(); t < threads.size(); ++t) {
    threads[t].join();
  }

  // All writers joined: totals are exact and queries see everything.
  for (const std::string& name : {std::string("stress.plain"),
                                  std::string("stress.sharded")}) {
    auto engine = registry.Require(name);
    EXPECT_EQ(engine->AcceptedN(), kItemsPerWriter);
    const uint64_t top = engine->GetRanks({2e6}, Criterion::kInclusive)[0];
    EXPECT_EQ(top, kItemsPerWriter) << name;
  }
  EXPECT_EQ(registry.Require("stress.windowed")->AcceptedN(),
            kItemsPerWriter);
}

}  // namespace
}  // namespace service
}  // namespace req
