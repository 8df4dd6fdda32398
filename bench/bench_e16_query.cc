// E16 -- Query-engine benchmarks: the memoized sorted view (built from
// the levels, repaired in place after level-0 appends), weight-indexed
// bulk-rank kernels, and contiguous (arena) level storage.
//
// Quantifies each layer of the query engine, for k_base in
// {16, 64, 256} on a lognormal stream:
//   * cold view build (first order-based query after a bulk ingest): the
//     sketch's full build -- one k-way merge of the levels' sorted
//     prefixes and sorted tails -- and the seed-era full path
//     (FullRebuildView: collect + sort all pairs);
//   * WARM REPEATED SINGLE-RANK QUERIES AFTER POINT UPDATES -- the
//     monitoring hot loop {update one item; query one rank through the
//     view}. The sketch merges the one new level-0 item into its view in
//     place (a full build when the update compacted), versus a seed-era
//     full rebuild per query;
//   * BULK GetRanks: 1k query points answered by the single co-scan
//     kernel, versus the seed-era scalar loop (one GetRank per point) and
//     versus a per-point view binary search;
//   * GetCDF over 1k ascending splits (the sort-free co-scan case);
//   * serialization of the whole sketch (one contiguous arena pass);
//   * sliding-window post-rotation query cost (the N-way merge of the
//     buckets into a fresh sketch, then one rank query, which reads the
//     merged levels and builds no sorted view) and warm window rank
//     latency.
//
// Results go to stdout as a table and to a JSON report (default
// BENCH_e16_query.json) validated by tools/check_bench_schema.py.
//
// Usage: bench_e16_query [--items N] [--reps R] [--out report.json]
//                        [--smoke]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/req_serde.h"
#include "core/req_sketch.h"
#include "core/sorted_view.h"
#include "window/windowed_req_sketch.h"
#include "workload/distributions.h"

namespace {

using req::bench::Clock;
using req::bench::g_sink;
using req::bench::SecondsSince;

req::ReqSketch<double> MakeSketch(uint32_t k_base) {
  req::ReqConfig config;
  config.k_base = k_base;
  config.seed = 29;
  return req::ReqSketch<double>(config);
}

// The seed-era full view rebuild, the reference the incremental repair is
// measured against: collect every (item, weight) pair and sort them all.
req::SortedView<double> FullRebuildView(const req::ReqSketch<double>& sketch) {
  std::vector<std::pair<double, uint64_t>> weighted;
  weighted.reserve(sketch.RetainedItems());
  sketch.AppendWeightedItems(&weighted);
  return req::SortedView<double>(std::move(weighted), sketch.TotalWeight());
}

struct KResult {
  uint32_t k = 0;
  uint64_t retained = 0;
  double cold_view_build_us = 0.0;
  double seed_view_build_us = 0.0;
  double warm_incremental_rank_ns = 0.0;
  double warm_full_rank_ns = 0.0;
  double bulk_rank_ns = 0.0;
  double view_scalar_rank_ns = 0.0;
  double scalar_loop_rank_ns = 0.0;
  double cdf_1k_us = 0.0;
  double serialize_us = 0.0;
};

struct WindowResult {
  uint32_t k = 0;
  uint64_t buckets = 0;
  double post_rotate_query_us = 0.0;
  double warm_rank_ns = 0.0;
};

// Cold view build: ingest everything, then time the first order-based
// query (which builds the whole view). Best of reps.
double ColdBuildUs(uint32_t k, const std::vector<double>& values,
                   bool incremental, int reps) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    auto sketch = MakeSketch(k);
    sketch.Update(values);
    const auto start = Clock::now();
    size_t view_size = 0;
    if (incremental) {
      sketch.PrepareSortedView();
      view_size = sketch.CachedSortedView().size();
    } else {
      view_size = FullRebuildView(sketch).size();
    }
    best = std::min(best, SecondsSince(start) * 1e6);
    g_sink += view_size;
  }
  return best;
}

// The monitoring hot loop: one point update, one view-routed rank query.
double WarmRankNs(uint32_t k, const std::vector<double>& values,
                  bool incremental, int reps, size_t iters) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    auto sketch = MakeSketch(k);
    sketch.Update(values);
    // The full path replaces a long-lived view each query, as a memoized
    // view cache does: the new view is built while the old one is alive.
    req::SortedView<double> full_view;
    if (incremental) {
      sketch.PrepareSortedView();
    } else {
      full_view = FullRebuildView(sketch);
    }
    const double probe = values[values.size() / 2];
    uint64_t rank = 0;
    const auto start = Clock::now();
    for (size_t i = 0; i < iters; ++i) {
      sketch.Update(values[i]);
      if (incremental) {
        sketch.GetRanks(&probe, 1, &rank, req::Criterion::kInclusive);
      } else {
        full_view = FullRebuildView(sketch);
        full_view.GetRanks(&probe, 1, &rank, req::Criterion::kInclusive);
      }
      g_sink += rank;
    }
    best = std::min(best,
                    SecondsSince(start) * 1e9 / static_cast<double>(iters));
  }
  return best;
}

std::vector<double> MakeProbes(const std::vector<double>& values,
                               size_t count) {
  std::vector<double> probes;
  probes.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    probes.push_back(values[(i * 2654435761ULL) % values.size()]);
  }
  return probes;
}

}  // namespace

int main(int argc, char** argv) {
  const req::bench::BenchArgs args =
      req::bench::ParseBenchArgs(argc, argv, "BENCH_e16_query.json");
  if (!args.ok) return 1;
  const bool smoke = args.smoke;
  size_t num_items = args.items > 0 ? args.items : size_t{1} << 20;
  int reps = args.reps > 0 ? args.reps : 3;
  if (smoke) {
    num_items = std::min(num_items, size_t{1} << 15);
    reps = 1;
  }
  const size_t warm_iters = smoke ? 200 : 2000;
  const size_t bulk_q = 1000;
  const size_t bulk_calls = smoke ? 20 : 200;

  req::bench::PrintBanner(
      "E16: query-engine benchmarks (incremental views, bulk-rank "
      "kernels, arena storage)",
      "incremental repair beats full rebuild on warm point-update query "
      "loops; the bulk co-scan beats the scalar rank loop");
  std::printf("items: %zu   reps: %d   warm iters: %zu   bulk: %zu pts\n\n",
              num_items, reps, warm_iters, bulk_q);

  const std::vector<double> values =
      req::workload::GenerateLognormal(num_items, 163);
  const std::vector<double> probes = MakeProbes(values, bulk_q);
  std::vector<double> splits = probes;
  std::sort(splits.begin(), splits.end());
  splits.erase(std::unique(splits.begin(), splits.end()), splits.end());

  std::vector<KResult> results;
  std::printf("%6s %10s %12s %12s %14s %12s %10s %12s %14s %10s %10s\n",
              "k", "retained", "cold_us", "seed_us", "warm_incr_ns",
              "warm_full_ns", "bulk_ns", "view_scal_ns", "scalar_loop_ns",
              "cdf1k_us", "ser_us");
  for (uint32_t k : {16u, 64u, 256u}) {
    KResult res;
    res.k = k;
    res.cold_view_build_us = ColdBuildUs(k, values, /*incremental=*/true,
                                         reps);
    res.seed_view_build_us = ColdBuildUs(k, values, /*incremental=*/false,
                                         reps);
    res.warm_incremental_rank_ns =
        WarmRankNs(k, values, /*incremental=*/true, reps, warm_iters);
    res.warm_full_rank_ns =
        WarmRankNs(k, values, /*incremental=*/false, reps, warm_iters);

    // Bulk vs scalar on a warm, quiescent sketch.
    auto sketch = MakeSketch(k);
    sketch.Update(values);
    sketch.PrepareSortedView();
    res.retained = sketch.RetainedItems();
    std::vector<uint64_t> out(probes.size());
    {
      const auto start = Clock::now();
      for (size_t c = 0; c < bulk_calls; ++c) {
        sketch.GetRanks(probes.data(), probes.size(), out.data(),
                        req::Criterion::kInclusive);
        g_sink += out[0];
      }
      res.bulk_rank_ns = SecondsSince(start) * 1e9 /
                         static_cast<double>(bulk_calls * probes.size());
    }
    {
      // Per-point view binary search (single-point bulk calls).
      const auto start = Clock::now();
      uint64_t rank = 0;
      for (size_t c = 0; c < bulk_calls; ++c) {
        for (const double y : probes) {
          sketch.GetRanks(&y, 1, &rank, req::Criterion::kInclusive);
          g_sink += rank;
        }
      }
      res.view_scalar_rank_ns =
          SecondsSince(start) * 1e9 /
          static_cast<double>(bulk_calls * probes.size());
    }
    {
      // Seed-era scalar loop: one GetRank (per-level CountRank sum) per
      // point -- the only batch option before the bulk kernels existed.
      const auto start = Clock::now();
      for (size_t c = 0; c < bulk_calls; ++c) {
        for (const double y : probes) g_sink += sketch.GetRank(y);
      }
      res.scalar_loop_rank_ns =
          SecondsSince(start) * 1e9 /
          static_cast<double>(bulk_calls * probes.size());
    }
    {
      const auto start = Clock::now();
      for (size_t c = 0; c < bulk_calls; ++c) {
        g_sink += static_cast<uint64_t>(sketch.GetCDF(splits).back());
      }
      res.cdf_1k_us = SecondsSince(start) * 1e6 /
                      static_cast<double>(bulk_calls);
    }
    {
      const auto start = Clock::now();
      for (int r = 0; r < reps; ++r) {
        g_sink += req::SerializeSketch(sketch).size();
      }
      res.serialize_us = SecondsSince(start) * 1e6 /
                         static_cast<double>(reps);
    }
    results.push_back(res);
    std::printf(
        "%6u %10llu %12.1f %12.1f %14.1f %12.1f %10.1f %12.1f %14.1f "
        "%10.1f %10.1f\n",
        k, static_cast<unsigned long long>(res.retained),
        res.cold_view_build_us, res.seed_view_build_us,
        res.warm_incremental_rank_ns, res.warm_full_rank_ns,
        res.bulk_rank_ns, res.view_scalar_rank_ns, res.scalar_loop_rank_ns,
        res.cdf_1k_us, res.serialize_us);
  }

  // Sliding window: post-rotation cold query (the buckets' N-way merge;
  // GetRank reads the merged levels, not a sorted view) and warm rank
  // latency.
  std::vector<WindowResult> window_results;
  std::printf("\n%6s %8s %20s %14s\n", "k", "buckets", "post_rotate_us",
              "warm_rank_ns");
  for (uint32_t k : {64u, 256u}) {
    WindowResult wr;
    wr.k = k;
    wr.buckets = 8;
    const uint64_t window_items =
        std::min<uint64_t>(num_items / 2, uint64_t{1} << 18);
    req::window::WindowedReqConfig config;
    config.num_buckets = 8;
    config.bucket_items = window_items / 8;
    config.base.k_base = k;
    config.base.seed = 29;
    req::window::WindowedReqSketch<double> window(config);
    window.Update(values.data(),
                  std::min<size_t>(values.size(), window_items));
    window.PrepareMergedView();
    const double probe = values[values.size() / 2];
    const int rotations = smoke ? 4 : 16;
    double total = 0.0;
    size_t feed = 0;
    for (int r = 0; r < rotations; ++r) {
      window.Rotate();
      const auto start = Clock::now();
      g_sink += window.GetRank(probe);
      total += SecondsSince(start);
      window.Update(values.data() + feed, config.bucket_items);
      feed = (feed + config.bucket_items) % (values.size() / 2);
    }
    wr.post_rotate_query_us = total * 1e6 / rotations;
    window.PrepareMergedView();
    const size_t warm_q = smoke ? 2000 : 20000;
    const auto start = Clock::now();
    for (size_t i = 0; i < warm_q; ++i) g_sink += window.GetRank(probe);
    wr.warm_rank_ns = SecondsSince(start) * 1e9 /
                      static_cast<double>(warm_q);
    window_results.push_back(wr);
    std::printf("%6u %8llu %20.1f %14.1f\n", k,
                static_cast<unsigned long long>(wr.buckets),
                wr.post_rotate_query_us, wr.warm_rank_ns);
  }

  std::printf("\n%6s %22s %24s\n", "k", "warm_repair_speedup",
              "bulk_vs_scalar_speedup");
  req::bench::JsonWriter json;
  json.BeginObject()
      .Field("experiment", "e16_query")
      .Field("items", static_cast<uint64_t>(num_items))
      .Field("reps", reps)
      .Field("smoke", smoke);
  json.BeginArray("results");
  for (const KResult& r : results) {
    json.BeginObject()
        .Field("k", static_cast<uint64_t>(r.k))
        .Field("retained", r.retained)
        .Field("cold_view_build_us", r.cold_view_build_us)
        .Field("seed_view_build_us", r.seed_view_build_us)
        .Field("warm_incremental_rank_ns", r.warm_incremental_rank_ns)
        .Field("warm_full_rank_ns", r.warm_full_rank_ns)
        .Field("bulk_rank_ns", r.bulk_rank_ns)
        .Field("view_scalar_rank_ns", r.view_scalar_rank_ns)
        .Field("scalar_loop_rank_ns", r.scalar_loop_rank_ns)
        .Field("cdf_1k_us", r.cdf_1k_us)
        .Field("serialize_us", r.serialize_us)
        .EndObject();
  }
  json.EndArray();
  json.BeginArray("window");
  for (const WindowResult& wr : window_results) {
    json.BeginObject()
        .Field("k", static_cast<uint64_t>(wr.k))
        .Field("buckets", wr.buckets)
        .Field("post_rotate_query_us", wr.post_rotate_query_us)
        .Field("warm_rank_ns", wr.warm_rank_ns)
        .EndObject();
  }
  json.EndArray();
  json.BeginArray("summary");
  for (const KResult& r : results) {
    const double warm_speedup =
        r.warm_full_rank_ns / r.warm_incremental_rank_ns;
    const double bulk_speedup = r.scalar_loop_rank_ns / r.bulk_rank_ns;
    json.BeginObject()
        .Field("k", static_cast<uint64_t>(r.k))
        .Field("warm_repair_speedup", warm_speedup)
        .Field("bulk_vs_scalar_speedup", bulk_speedup)
        .EndObject();
    std::printf("%6u %22.2f %24.2f\n", r.k, warm_speedup, bulk_speedup);
  }
  json.EndArray();
  json.EndObject();
  if (!json.WriteFile(args.out)) {
    std::fprintf(stderr, "could not write %s\n", args.out.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", args.out.c_str());
  return 0;
}
