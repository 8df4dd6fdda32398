// Metric-lifecycle tests for the sharded SketchRegistry: paged
// prefix-filtered LIST against a brute-force model, tenancy quotas (and
// their exact rollback), contended appends racing queries on every engine
// kind (bit-identical to a serial feed), idle eviction + touch rehydration
// for all three engine kinds, and a registry-wide eviction-vs-append race
// stress that the CI ThreadSanitizer job runs.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "persist/durability.h"
#include "service/req_client.h"
#include "service/reqd_server.h"
#include "service/sketch_registry.h"
#include "util/random.h"

namespace req {
namespace service {
namespace {

std::vector<double> TestStream(uint64_t seed, size_t count) {
  util::Xoshiro256 rng(seed);
  std::vector<double> values(count);
  for (double& v : values) v = rng.NextDouble() * 1e6;
  return values;
}

std::string FreshDir(const std::string& tag) {
  const std::string dir = std::filesystem::temp_directory_path().string() +
                          "/req_lifecycle_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

MetricSpec SpecOf(EngineKind kind) {
  MetricSpec spec;
  spec.kind = kind;
  spec.base.k_base = 16;
  if (kind == EngineKind::kSharded) spec.num_shards = 3;
  if (kind == EngineKind::kWindowed) {
    spec.num_buckets = 4;
    spec.bucket_items = 64;
  }
  return spec;
}

// --- paged LIST ------------------------------------------------------------

TEST(ListPage, MatchesBruteForceAcrossPrefixesOffsetsAndLimits) {
  SketchRegistry registry;
  MetricSpec spec;
  // Names chosen to straddle shard boundaries and share prefixes.
  std::vector<std::string> all;
  for (int g = 0; g < 7; ++g) {
    for (int m = 0; m < 23; ++m) {
      all.push_back("grp" + std::to_string(g) + "/metric" +
                    std::to_string(m));
    }
  }
  all.push_back("zzz");
  all.push_back("grp10/other");
  for (const std::string& name : all) registry.Create(name, spec);
  std::sort(all.begin(), all.end());

  const std::vector<std::string> prefixes = {"",       "grp",  "grp1",
                                             "grp1/",  "grp10", "zzz",
                                             "absent", "z"};
  for (const std::string& prefix : prefixes) {
    std::vector<std::string> expected;
    for (const std::string& name : all) {
      if (name.compare(0, prefix.size(), prefix) == 0) {
        expected.push_back(name);
      }
    }
    for (uint64_t offset : {uint64_t{0}, uint64_t{1}, uint64_t{7},
                            uint64_t{1000}}) {
      for (uint64_t limit : {uint64_t{0}, uint64_t{1}, uint64_t{10},
                             uint64_t{500}}) {
        uint64_t total = 0;
        const std::vector<std::string> page =
            registry.ListPage(prefix, offset, limit, &total);
        ASSERT_EQ(total, expected.size()) << "prefix=" << prefix;
        std::vector<std::string> want;
        for (size_t i = offset;
             i < expected.size() && (limit == 0 || want.size() < limit);
             ++i) {
          want.push_back(expected[i]);
        }
        ASSERT_EQ(page, want) << "prefix=" << prefix << " offset=" << offset
                              << " limit=" << limit;
      }
    }
  }
  EXPECT_THROW(registry.ListPage("bad prefix", 0, 0, nullptr),
               std::runtime_error);
}

TEST(ListPage, GlobalListStaysSortedAndPointerCachedAcrossShards) {
  SketchRegistry registry;
  MetricSpec spec;
  for (int i = 0; i < 100; ++i) {
    registry.Create("m" + std::to_string(i), spec);
  }
  auto first = registry.List();
  ASSERT_TRUE(std::is_sorted(first->begin(), first->end()));
  ASSERT_EQ(first->size(), 100u);
  // No directory change: the SAME snapshot object is served.
  EXPECT_EQ(registry.List().get(), first.get());
  // A create in one shard invalidates the global view...
  registry.Create("new-metric", spec);
  auto second = registry.List();
  EXPECT_NE(second.get(), first.get());
  EXPECT_EQ(second->size(), 101u);
  EXPECT_TRUE(std::is_sorted(second->begin(), second->end()));
  // ...and the new view is stable again.
  EXPECT_EQ(registry.List().get(), second.get());
}

// --- quotas ----------------------------------------------------------------

TEST(Quotas, MetricCountQuotaRejectsAndRollsBackExactly) {
  SketchRegistry registry;
  registry.SetLimits(/*max_metrics=*/3, /*max_memory_bytes=*/0);
  MetricSpec spec;
  registry.Create("a", spec);
  registry.Create("b", spec);
  registry.Create("c", spec);
  EXPECT_THROW(registry.Create("d", spec), QuotaExceeded);
  // The rejection rolled its reservation back: dropping one metric makes
  // room for exactly one more.
  EXPECT_EQ(registry.size(), 3u);
  EXPECT_TRUE(registry.Drop("b"));
  registry.Create("d", spec);
  EXPECT_THROW(registry.Create("e", spec), QuotaExceeded);
  // A quota rejection is not MetricExists: the name stays available.
  EXPECT_EQ(registry.Find("e"), nullptr);
}

TEST(Quotas, MemoryQuotaTracksAccountedFootprint) {
  SketchRegistry registry;
  MetricSpec spec;
  auto probe_registry = std::make_unique<SketchRegistry>();
  const uint64_t one =
      probe_registry->Create("probe", spec)->MemoryFootprint();
  ASSERT_GT(one, 0u);
  registry.SetLimits(0, /*max_memory_bytes=*/one * 2 + one / 2);
  registry.Create("a", spec);
  registry.Create("b", spec);
  EXPECT_THROW(registry.Create("c", spec), QuotaExceeded);
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_TRUE(registry.Drop("a"));
  registry.Create("c", spec);  // the rollback freed the accounting
}

// buffer_capacity allocates nothing: a sharded CREATE's footprint does
// not depend on it, and the memory quota sees all a CREATE allocates even
// at the largest spec ValidateMetricSpec admits.
TEST(Quotas, ShardedCreateAllocatesNothingForBufferCapacity) {
  MetricSpec spec;
  spec.kind = EngineKind::kSharded;
  spec.num_shards = 4;
  spec.buffer_capacity = 1;
  SketchRegistry registry;
  const size_t small = registry.Create("small", spec)->MemoryFootprint();
  spec.buffer_capacity = uint64_t{1} << 32;
  EXPECT_EQ(registry.Create("large", spec)->MemoryFootprint(), small);

  SketchRegistry limited;
  limited.SetLimits(0, /*max_memory_bytes=*/uint64_t{1} << 20);
  spec.num_shards = 64;
  EXPECT_NE(limited.Create("wide", spec), nullptr);
}

TEST(Quotas, QuotaSurfacesAsTypedClientErrorAndIsNotRetried) {
  SketchRegistry registry;
  registry.SetLimits(/*max_metrics=*/1, 0);
  ReqdServer server(&registry);
  server.Start();
  ClientOptions options;
  options.reconnect_enabled = true;  // must NOT kick in for a quota answer
  ReqClient client;
  client.Connect("127.0.0.1", server.port(), options);
  MetricSpec spec;
  client.Create("one", spec);
  try {
    client.Create("two", spec);
    FAIL() << "expected QuotaExceededError";
  } catch (const QuotaExceededError& e) {
    EXPECT_EQ(e.status, Status::kQuotaExceeded);
  }
  EXPECT_EQ(client.QuotaRejections(), 1u);
  EXPECT_EQ(client.Reconnects(), 0u);
  // The connection survived the rejection (it was an answer, not a
  // transport fault).
  EXPECT_EQ(client.List().size(), 1u);
  server.Stop();
}

TEST(Quotas, PagedListOverTheWireMatchesRegistry) {
  SketchRegistry registry;
  ReqdServer server(&registry);
  server.Start();
  ReqClient client;
  client.Connect("127.0.0.1", server.port());
  MetricSpec spec;
  for (int i = 0; i < 25; ++i) {
    client.Create("page/m" + std::to_string(i), spec);
  }
  client.Create("other", spec);
  uint64_t total = 0;
  std::vector<std::string> collected;
  for (uint64_t offset = 0;; offset += 10) {
    const std::vector<std::string> page =
        client.List("page/", offset, 10, &total);
    ASSERT_EQ(total, 25u);
    collected.insert(collected.end(), page.begin(), page.end());
    if (page.size() < 10) break;
  }
  uint64_t reg_total = 0;
  EXPECT_EQ(collected, registry.ListPage("page/", 0, 0, &reg_total));
  EXPECT_EQ(reg_total, 25u);
  // The unpaged v1 LIST still works against the same server.
  EXPECT_EQ(client.List().size(), 26u);
  server.Stop();
}

// --- contended appends ----------------------------------------------------

TEST(ContendedAppend, SingleSketchKindsStayBitIdenticalToSerial) {
  // The item stream reaches both engines in the identical batch order.
  // The contended one additionally has a querier thread reading it (and
  // trimming it now and then) throughout, and -- for the kinds an empty
  // batch leaves unchanged -- a thread hammering empty appends on the same
  // append mutex. (An empty batch advances the sharded rotation, so there
  // its position in the order would matter.) Contention may only change
  // who waits, never the result: the snapshot must equal the serial
  // engine's bit-for-bit.
  const std::vector<double> stream = TestStream(2, 80000);
  const size_t batch = 1024;
  for (EngineKind kind :
       {EngineKind::kPlain, EngineKind::kSharded, EngineKind::kWindowed}) {
    SCOPED_TRACE(static_cast<int>(kind));
    SketchRegistry serial_registry;
    auto serial = serial_registry.Create("m", SpecOf(kind));
    for (size_t i = 0; i < stream.size(); i += batch) {
      serial->Append(stream.data() + i, std::min(batch, stream.size() - i));
    }

    SketchRegistry contended_registry;
    auto contended = contended_registry.Create("m", SpecOf(kind));
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    if (kind != EngineKind::kSharded) {
      threads.emplace_back([&] {
        const double dummy = 0.0;
        while (!stop.load(std::memory_order_acquire)) {
          contended->Append(&dummy, 0);  // no items: pure lock pressure
        }
      });
    }
    threads.emplace_back([&] {
      const std::vector<double> points = {1e3, 5e5, 9.9e5};
      for (uint64_t round = 0; !stop.load(std::memory_order_acquire);
           ++round) {
        // Queries throw the empty-state logic_error only before the first
        // acknowledged batch.
        const bool was_empty = contended->AcceptedN() == 0;
        try {
          contended->GetQuantiles({0.5, 0.99}, Criterion::kInclusive);
          contended->GetRanks(points, Criterion::kExclusive);
          contended->GetCDF(points, Criterion::kInclusive);
        } catch (const std::logic_error&) {
          EXPECT_TRUE(was_empty);
        }
        EXPECT_GT(contended->MemoryFootprint(), 0u);
        EXPECT_FALSE(contended->Snapshot().empty());
        if (round % 16 == 15) contended->TrimMemory();
      }
    });
    for (size_t i = 0; i < stream.size(); i += batch) {
      contended->Append(stream.data() + i, std::min(batch, stream.size() - i));
    }
    stop.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();

    EXPECT_EQ(contended->AcceptedN(), stream.size());
    EXPECT_EQ(contended->Snapshot(), serial->Snapshot());
    EXPECT_EQ(contended->GetQuantiles({0.5, 0.99}, Criterion::kInclusive),
              serial->GetQuantiles({0.5, 0.99}, Criterion::kInclusive));
  }
}

// --- eviction + rehydration ------------------------------------------------

TEST(Eviction, MemoryOnlyRegistryTrimsInsteadOfEvicting) {
  SketchRegistry registry;
  auto engine = registry.Create("m", SpecOf(EngineKind::kPlain));
  const std::vector<double> stream = TestStream(3, 10000);
  engine->Append(stream.data(), stream.size());
  const std::vector<double> before =
      engine->GetQuantiles({0.25, 0.5, 0.99}, Criterion::kInclusive);
  const EvictionStats stats = registry.EvictIdle(0);
  EXPECT_EQ(stats.scanned, 1u);
  EXPECT_EQ(stats.evicted, 0u);
  EXPECT_EQ(stats.trimmed, 1u);
  EXPECT_TRUE(registry.IsResident("m"));
  // Trimming is invisible to answers.
  EXPECT_EQ(engine->GetQuantiles({0.25, 0.5, 0.99}, Criterion::kInclusive),
            before);
}

TEST(Eviction, EvictsIdleRehydratesBitIdenticallyAllKinds) {
  const std::string dir = FreshDir("rehydrate");
  persist::DurabilityOptions options;
  options.fsync = persist::FsyncPolicy::kNever;
  persist::DurabilityManager manager(dir, options);
  SketchRegistry registry;
  manager.RecoverInto(&registry);

  const std::vector<std::pair<std::string, EngineKind>> kinds = {
      {"plain", EngineKind::kPlain},
      {"sharded", EngineKind::kSharded},
      {"windowed", EngineKind::kWindowed},
  };
  std::vector<std::vector<uint8_t>> blobs;
  std::vector<uint64_t> accepted;
  const std::vector<double> stream = TestStream(4, 5000);
  for (const auto& [name, kind] : kinds) {
    auto engine = registry.Create(name, SpecOf(kind));
    for (size_t i = 0; i < stream.size(); i += 100) {
      engine->Append(stream.data() + i, 100);
    }
    blobs.push_back(engine->Snapshot());
    accepted.push_back(engine->AcceptedN());
  }

  auto stale = registry.Find("plain");  // handle taken before eviction
  const EvictionStats stats = registry.EvictIdle(0);
  EXPECT_EQ(stats.evicted, kinds.size());
  EXPECT_EQ(registry.Evictions(), kinds.size());
  for (const auto& [name, kind] : kinds) {
    EXPECT_FALSE(registry.IsResident(name)) << name;
  }
  // The directory still lists evicted metrics (they exist; they are just
  // not in memory).
  EXPECT_EQ(registry.List()->size(), kinds.size());

  // The pre-eviction handle is retired: reads still serve the final
  // state, appends bounce so no acked item can land in a closed WAL.
  EXPECT_TRUE(stale->Retired());
  EXPECT_NO_THROW(stale->GetQuantiles({0.5}, Criterion::kInclusive));
  EXPECT_THROW(stale->Append(stream.data(), 1), MetricRetired);

  // Touch => rehydrate, bit-identically, for every engine kind.
  for (size_t k = 0; k < kinds.size(); ++k) {
    auto engine = registry.Require(kinds[k].first);
    ASSERT_NE(engine, nullptr);
    EXPECT_TRUE(registry.IsResident(kinds[k].first));
    EXPECT_EQ(engine->AcceptedN(), accepted[k]) << kinds[k].first;
    EXPECT_EQ(engine->Snapshot(), blobs[k]) << kinds[k].first;
    // The rehydrated engine keeps accepting appends durably.
    engine->Append(stream.data(), 100);
    EXPECT_EQ(engine->AcceptedN(), accepted[k] + 100);
  }
  EXPECT_EQ(registry.Rehydrations(), kinds.size());

  // And a full restart recovers the post-rehydration appends too.
  {
    persist::DurabilityManager manager2(dir, options);
    SketchRegistry recovered;
    manager2.RecoverInto(&recovered);
    for (size_t k = 0; k < kinds.size(); ++k) {
      EXPECT_EQ(recovered.Require(kinds[k].first)->AcceptedN(),
                accepted[k] + 100)
          << kinds[k].first;
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(Eviction, DropWinsOverRehydration) {
  const std::string dir = FreshDir("dropwins");
  persist::DurabilityOptions options;
  options.fsync = persist::FsyncPolicy::kNever;
  persist::DurabilityManager manager(dir, options);
  SketchRegistry registry;
  manager.RecoverInto(&registry);
  auto engine = registry.Create("m", SpecOf(EngineKind::kPlain));
  const std::vector<double> stream = TestStream(5, 100);
  engine->Append(stream.data(), stream.size());
  EXPECT_EQ(registry.EvictIdle(0).evicted, 1u);
  EXPECT_TRUE(registry.Drop("m"));
  EXPECT_EQ(registry.Find("m"), nullptr);
  // The drop is durable: a restart does not resurrect the metric.
  {
    persist::DurabilityManager manager2(dir, options);
    SketchRegistry recovered;
    manager2.RecoverInto(&recovered);
    EXPECT_EQ(recovered.size(), 0u);
  }
  std::filesystem::remove_all(dir);
}

// --- eviction-vs-append race stress (TSan target) --------------------------

TEST(LifecycleStress, AppendersQueriersEvictorAndChurnRaceSafely) {
  const std::string dir = FreshDir("stress");
  persist::DurabilityOptions options;
  options.fsync = persist::FsyncPolicy::kNever;
  persist::DurabilityManager manager(dir, options);
  SketchRegistry registry;
  manager.RecoverInto(&registry);

  constexpr size_t kMetrics = 4;
  constexpr size_t kAppenders = 3;
  constexpr size_t kBatches = 120;
  constexpr size_t kBatch = 50;
  std::vector<std::string> names;
  for (size_t m = 0; m < kMetrics; ++m) {
    names.push_back("stress/m" + std::to_string(m));
    registry.Create(names.back(), SpecOf(EngineKind::kPlain));
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> acked{0};
  std::vector<std::thread> threads;

  // Appenders: re-resolve through the registry every batch (the server's
  // access pattern) and retry MetricRetired -- an append must either be
  // acked durably or have had no effect.
  for (size_t a = 0; a < kAppenders; ++a) {
    threads.emplace_back([&, a] {
      util::Xoshiro256 rng(900 + a);
      std::vector<double> batch(kBatch);
      for (size_t b = 0; b < kBatches; ++b) {
        for (double& v : batch) v = rng.NextDouble() * 1e6;
        const std::string& name = names[(a + b) % kMetrics];
        while (true) {
          try {
            registry.Require(name)->Append(batch.data(), batch.size());
            acked.fetch_add(batch.size(), std::memory_order_relaxed);
            break;
          } catch (const MetricRetired&) {
            continue;  // raced the evictor; re-resolve rehydrates
          }
        }
      }
    });
  }
  // Queriers: never throw on concurrent eviction (retired engines serve
  // their final state; rehydration is transparent).
  for (size_t q = 0; q < 2; ++q) {
    threads.emplace_back([&, q] {
      while (!stop.load(std::memory_order_acquire)) {
        for (const std::string& name : names) {
          auto engine = registry.Find(name);
          if (engine && engine->AcceptedN() > 0) {
            engine->GetQuantiles({0.5, 0.99}, Criterion::kInclusive);
          }
        }
        registry.ListPage("stress/", 0, 2, nullptr);
      }
    });
  }
  // The evictor: sweeps everything idle, constantly.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      registry.EvictIdle(0);
    }
  });
  // Create/drop churn in the same shard namespace.
  threads.emplace_back([&] {
    MetricSpec spec = SpecOf(EngineKind::kPlain);
    size_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::string name = "stress/churn" + std::to_string(i++ % 8);
      try {
        registry.Create(name, spec);
      } catch (const MetricExists&) {
      }
      registry.Drop(name);
    }
  });

  for (size_t a = 0; a < kAppenders; ++a) threads[a].join();
  stop.store(true, std::memory_order_release);
  for (size_t t = kAppenders; t < threads.size(); ++t) threads[t].join();

  // Every acked item is present in memory...
  uint64_t in_memory = 0;
  for (const std::string& name : names) {
    in_memory += registry.Require(name)->AcceptedN();
  }
  EXPECT_EQ(in_memory, acked.load());
  // ...and durably: recovery finds at least every acked item (exactly,
  // since appends and acks were counted together).
  for (const std::string& name : names) {
    registry.Require(name)->ForceCheckpoint();
  }
  {
    persist::DurabilityManager manager2(dir, options);
    SketchRegistry recovered;
    manager2.RecoverInto(&recovered);
    uint64_t recovered_n = 0;
    for (const std::string& name : names) {
      recovered_n += recovered.Require(name)->AcceptedN();
    }
    EXPECT_EQ(recovered_n, acked.load());
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace service
}  // namespace req
