// Concurrent const-query safety for the plain ReqSketch: many threads may
// share a const sketch and issue order-based queries (which lazily fill
// the memoized sorted view) at the same time. Before the double-checked
// view cache this was a data race; these tests pin the new contract and
// are run under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "core/req_sketch.h"
#include "service/sketch_registry.h"
#include "workload/distributions.h"

namespace req {
namespace {

ReqSketch<double> BuildSketch(size_t n) {
  ReqConfig config;
  config.k_base = 32;
  config.seed = 99;
  ReqSketch<double> sketch(config);
  const auto values = workload::GenerateLognormal(n, 3);
  sketch.Update(values.data(), values.size());
  return sketch;
}

// All threads start on a COLD cache: exactly one builds the sorted view,
// everyone must read the same memoized object and agree on every answer.
TEST(ConcurrentQueriesTest, ColdCacheColdStartAgrees) {
  const ReqSketch<double> sketch = BuildSketch(100000);
  constexpr int kThreads = 8;

  const std::vector<double> qs{0.01, 0.25, 0.5, 0.9, 0.999};
  const std::vector<double> reference = sketch.GetQuantiles(qs);

  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  std::vector<std::vector<double>> answers(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Crude barrier so every thread races the first (cache-filling)
      // query.
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      answers[t] = sketch.GetQuantiles(qs);
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(answers[t], reference);
}

// Mixed query types (ranks, quantiles, CDF, raw rank loop) hammering one
// shared const sketch.
TEST(ConcurrentQueriesTest, MixedQueryTypesNoRace) {
  const ReqSketch<double> sketch = BuildSketch(50000);
  const auto values = workload::GenerateLognormal(256, 17);
  std::vector<double> splits{0.5, 1.0, 2.0, 4.0};

  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      uint64_t sink = 0;
      for (int i = 0; i < 300; ++i) {
        switch ((t + i) % 4) {
          case 0:
            sink += sketch.GetRank(values[i % values.size()]);
            break;
          case 1:
            sink += static_cast<uint64_t>(
                sketch.GetQuantile((i % 99 + 1) / 100.0));
            break;
          case 2:
            sink += static_cast<uint64_t>(sketch.GetCDF(splits)[0] * 1e6);
            break;
          case 3:
            sink += sketch.GetRanks({values[0], values[1]})[0];
            break;
        }
      }
      EXPECT_GT(sink, 0u);
    });
  }
  for (auto& th : threads) th.join();
}

// PrepareSortedView warms the cache; concurrent readers afterwards take
// only the lock-free fast path, and GetSortedView shares the same build.
TEST(ConcurrentQueriesTest, PrepareSortedViewWarmsCache) {
  const ReqSketch<double> sketch = BuildSketch(30000);
  sketch.PrepareSortedView();
  const auto& cached = sketch.CachedSortedView();
  EXPECT_EQ(&cached, &sketch.CachedSortedView())
      << "repeated calls must share one memoized view";
  EXPECT_EQ(sketch.GetSortedView().total_weight(), cached.total_weight());

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(&sketch.CachedSortedView(), &cached);
      }
    });
  }
  for (auto& th : threads) th.join();
}

// Runs `query(t)` on num_threads threads that start together, so they race
// the same cold view.
void RaceThreads(int num_threads, const std::function<void(int)>& query) {
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < num_threads) std::this_thread::yield();
      query(t);
    });
  }
  for (auto& th : threads) th.join();
}

// The appends between query rounds: mostly a few items, which the view
// repairs in place, and every third round a batch that compacts, after
// which the view is built from scratch. The view build uses a per-thread
// scratch buffer, so each thread that wins the race writes its own.
size_t AppendSize(int round) { return round % 3 == 2 ? 3000 : 1 + round % 7; }

const std::vector<double> kRaceQs{0.01, 0.25, 0.5, 0.9, 0.999};

// Threads race the first GetQuantiles / GetRanks after each append on one
// shared sketch; every answer must equal the one a single-threaded twin
// fed the same items gives.
TEST(ConcurrentQueriesTest, FirstQueryAfterAppendRaces) {
  ReqConfig config;
  config.k_base = 32;
  config.seed = 7;
  ReqSketch<double> shared(config);
  ReqSketch<double> twin(config);
  const auto values = workload::GenerateLognormal(60000, 11);
  const std::vector<double> points(values.begin(), values.begin() + 64);
  constexpr int kThreads = 4;
  size_t next = 0;
  for (int round = 0; round < 30; ++round) {
    const size_t m = AppendSize(round);
    shared.Update(values.data() + next, m);
    twin.Update(values.data() + next, m);
    next += m;
    const std::vector<double> expected_qs = twin.GetQuantiles(kRaceQs);
    const std::vector<uint64_t> expected_ranks = twin.GetRanks(points);
    std::vector<std::vector<double>> qs(kThreads);
    std::vector<std::vector<uint64_t>> ranks(kThreads);
    RaceThreads(kThreads, [&](int t) {
      if (t % 2 == 0) {
        qs[t] = shared.GetQuantiles(kRaceQs);
        ranks[t] = shared.GetRanks(points);
      } else {
        ranks[t] = shared.GetRanks(points);
        qs[t] = shared.GetQuantiles(kRaceQs);
      }
    });
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_EQ(qs[t], expected_qs) << "round " << round << " thread " << t;
      ASSERT_EQ(ranks[t], expected_ranks)
          << "round " << round << " thread " << t;
    }
  }
}

// The same race through a registry engine, whose queries share the
// engine's state lock and so reach the sketch's view concurrently.
TEST(ConcurrentQueriesTest, EngineFirstQueryAfterAppendRaces) {
  service::SketchRegistry registry;
  service::MetricSpec spec;
  auto engine = registry.Create("m", spec);
  ReqSketch<double> twin(spec.base);
  const auto values = workload::GenerateLognormal(60000, 13);
  const std::vector<double> points(values.begin(), values.begin() + 64);
  constexpr int kThreads = 4;
  size_t next = 0;
  for (int round = 0; round < 30; ++round) {
    const size_t m = AppendSize(round);
    engine->Append(values.data() + next, m);
    twin.Update(values.data() + next, m);
    next += m;
    const std::vector<double> expected_qs =
        twin.GetQuantiles(kRaceQs, Criterion::kInclusive);
    const std::vector<uint64_t> expected_ranks =
        twin.GetRanks(points, Criterion::kInclusive);
    std::vector<std::vector<double>> qs(kThreads);
    std::vector<std::vector<uint64_t>> ranks(kThreads);
    RaceThreads(kThreads, [&](int t) {
      if (t % 2 == 0) {
        qs[t] = engine->GetQuantiles(kRaceQs, Criterion::kInclusive);
      } else {
        ranks[t] = engine->GetRanks(points, Criterion::kInclusive);
      }
    });
    for (int t = 0; t < kThreads; ++t) {
      if (t % 2 == 0) {
        ASSERT_EQ(qs[t], expected_qs) << "round " << round << " thread " << t;
      } else {
        ASSERT_EQ(ranks[t], expected_ranks)
            << "round " << round << " thread " << t;
      }
    }
  }
}

// An update must still invalidate the memoized view (single-writer phase),
// and PrepareSortedView on an empty sketch is a harmless no-op.
TEST(ConcurrentQueriesTest, InvalidationStillWorksSingleThreaded) {
  ReqConfig config;
  config.k_base = 16;
  ReqSketch<double> sketch(config);
  sketch.PrepareSortedView();  // empty: no-op, must not throw

  sketch.Update(1.0);
  EXPECT_EQ(sketch.GetQuantile(0.5), 1.0);
  sketch.Update(2.0);
  sketch.Update(3.0);
  EXPECT_EQ(sketch.GetQuantile(1.0), 3.0);
  EXPECT_EQ(sketch.CachedSortedView().total_weight(), 3u);
}

}  // namespace
}  // namespace req
