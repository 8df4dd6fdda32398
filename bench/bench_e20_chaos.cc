// E20: tail latency and goodput under calibrated network chaos.
//
// Claim under test: the hardened service layer degrades PREDICTABLY, not
// catastrophically. Injected link latency shifts the request tail by the
// injected amount and nothing more; a throttled link converges on the
// configured bandwidth (goodput tracks the cap, it does not collapse);
// and with the connection cap saturated by an overload storm -- excess
// dialers being shed with kOverloaded -- the in-cap clients keep their
// query p99 within a small factor of the unloaded baseline (the
// acceptance bar: >= 80% of no-chaos service quality, i.e. p99 inflation
// under storm stays <= 1.25x).
//
// Setup: an in-process ReqdServer on loopback, optionally behind an
// in-process ChaosProxy (chaos_proxy.h). Four scenarios:
//   direct        client -> server, per-request quantile-query latency
//   clean_proxy   client -> faultless proxy -> server (relay overhead)
//   latency_2ms   2ms each way injected: tail must shift by ~4ms
//   throttle      64 KiB/s up: append goodput must track the cap
// then an overload storm: cap-saturating in-cap clients keep querying
// while storm dialers connect into kOverloaded as fast as backoff lets
// them; reported is the in-cap p99 during the storm vs the direct
// baseline.
//
// Usage: bench_e20_chaos [--smoke] [--items N] [--out FILE]
//   --items: items appended per scenario metric (default 50000)
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "service/chaos_proxy.h"
#include "service/req_client.h"
#include "service/reqd_server.h"
#include "service/sketch_registry.h"
#include "util/random.h"

namespace {

using req::bench::Clock;
using req::bench::JsonWriter;
using req::bench::SecondsSince;
using req::service::ChaosConfig;
using req::service::ChaosProxy;
using req::service::ClientOptions;
using req::service::MetricSpec;
using req::service::OverloadedError;
using req::service::ReqClient;
using req::service::ReqdServer;
using req::service::ReqdServerConfig;
using req::service::SketchRegistry;

double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const size_t at = static_cast<size_t>(
      p * static_cast<double>(values->size() - 1) + 0.5);
  return (*values)[at];
}

std::vector<double> Stream(uint64_t seed, size_t count) {
  req::util::Xoshiro256 rng(seed);
  std::vector<double> values(count);
  for (double& v : values) v = rng.NextDouble() * 1e6;
  return values;
}

ReqClient Dial(uint16_t port, uint64_t request_timeout_ms = 10000) {
  ReqClient client;
  ClientOptions options;
  options.deadlines.connect_timeout_ms = 5000;
  options.deadlines.request_timeout_ms = request_timeout_ms;
  client.Connect("127.0.0.1", port, options);
  return client;
}

// One latency scenario: create + fill a metric through `port`, then time
// `queries` quantile queries one at a time.
struct LatencyResult {
  double p50_us = 0.0;
  double p99_us = 0.0;
  size_t queries = 0;
};

LatencyResult RunLatency(uint16_t port, const std::string& metric,
                         size_t items, size_t queries) {
  ReqClient client = Dial(port);
  MetricSpec spec;
  spec.base.k_base = 64;
  spec.base.seed = 20;
  client.Create(metric, spec);
  const std::vector<double> stream = Stream(0xe20, items);
  const size_t batch = 2000;
  for (size_t i = 0; i < stream.size(); i += batch) {
    client.Append(metric, stream.data() + i,
                  std::min(batch, stream.size() - i));
  }
  const std::vector<double> qs = {0.5, 0.9, 0.99};
  for (int w = 0; w < 3; ++w) {  // untimed snapshot-build warmup (E16)
    req::bench::g_sink +=
        static_cast<uint64_t>(client.GetQuantiles(metric, qs)[0]);
  }
  std::vector<double> latencies;
  latencies.reserve(queries);
  for (size_t q = 0; q < queries; ++q) {
    const auto start = Clock::now();
    req::bench::g_sink +=
        static_cast<uint64_t>(client.GetQuantiles(metric, qs)[0]);
    latencies.push_back(SecondsSince(start) * 1e6);
  }
  LatencyResult result;
  result.queries = latencies.size();
  result.p50_us = Percentile(&latencies, 0.50);
  result.p99_us = Percentile(&latencies, 0.99);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  req::bench::BenchArgs args =
      req::bench::ParseBenchArgs(argc, argv, "BENCH_e20_chaos.json");
  if (!args.ok) return 2;
  const size_t items = args.items > 0 ? args.items : 50000;
  const size_t queries = args.smoke ? 100 : 400;
  // Storm sizing: enough in-cap clients to hold the cap, enough storm
  // dialers to keep the shed path busy the whole measurement window.
  const size_t cap = 4;
  const size_t storm_dialers = args.smoke ? 4 : 8;
  const double storm_seconds = args.smoke ? 1.5 : 4.0;

  req::bench::PrintBanner(
      "E20: service under calibrated network chaos (chaos_proxy)",
      "injected latency shifts the tail by the injected amount; goodput "
      "tracks a throttled link; in-cap p99 survives an overload storm");

  struct Row {
    std::string scenario;
    LatencyResult lat;
  };
  std::vector<Row> rows;
  LatencyResult lagged_lat;  // sleep-dominated: reported ungated, in ms

  try {
    // --- direct / clean proxy / injected latency -----------------------
    {
      SketchRegistry registry;
      ReqdServer server(&registry);
      server.Start();
      rows.push_back(
          {"direct", RunLatency(server.port(), "e20.direct", items,
                                queries)});

      ChaosProxy clean("127.0.0.1", server.port(), ChaosConfig{});
      clean.Start();
      rows.push_back(
          {"clean_proxy", RunLatency(clean.port(), "e20.clean", items,
                                     queries)});
      clean.Stop();

      ChaosConfig slow;
      slow.seed = 20;
      slow.up.latency_ms = 2;
      slow.down.latency_ms = 2;
      ChaosProxy lagged("127.0.0.1", server.port(), slow);
      lagged.Start();
      // Fewer queries: each one now costs >= 4ms by construction.
      lagged_lat = RunLatency(lagged.port(), "e20.lagged", items,
                              std::min<size_t>(queries, 100));
      lagged.Stop();
      server.Stop();
    }
    std::printf("%12s %10s %12s %12s\n", "scenario", "queries", "p50",
                "p99");
    for (const Row& row : rows) {
      std::printf("%12s %10zu %9.1f us %9.1f us\n", row.scenario.c_str(),
                  row.lat.queries, row.lat.p50_us, row.lat.p99_us);
    }
    std::printf("%12s %10zu %9.1f us %9.1f us  (>= 4ms injected)\n",
                "latency_2ms", lagged_lat.queries, lagged_lat.p50_us,
                lagged_lat.p99_us);

    // --- throttled goodput ---------------------------------------------
    double goodput_bps = 0.0;
    const uint64_t throttle_bps = 64 * 1024;
    {
      SketchRegistry registry;
      ReqdServer server(&registry);
      server.Start();
      ChaosConfig chaos;
      chaos.seed = 21;
      chaos.up.bytes_per_sec = throttle_bps;
      ChaosProxy proxy("127.0.0.1", server.port(), chaos);
      proxy.Start();
      ReqClient client = Dial(proxy.port(), /*request_timeout_ms=*/60000);
      MetricSpec spec;
      spec.base.k_base = 64;
      spec.base.seed = 21;
      client.Create("e20.throttle", spec);
      // ~3s of link time at the cap; payload bytes dominate framing.
      const size_t total = args.smoke
                               ? static_cast<size_t>(throttle_bps / 8)
                               : static_cast<size_t>(3 * throttle_bps / 8);
      const std::vector<double> stream = Stream(0x720, total);
      const size_t batch = 2000;
      const auto start = Clock::now();
      for (size_t i = 0; i < stream.size(); i += batch) {
        client.Append("e20.throttle", stream.data() + i,
                      std::min(batch, stream.size() - i));
      }
      const double wall = SecondsSince(start);
      goodput_bps = static_cast<double>(proxy.BytesUp()) / wall;
      std::printf("\nthrottle: %.0f B/s achieved vs %llu B/s cap "
                  "(%.2fx) over %.1fs\n",
                  goodput_bps,
                  static_cast<unsigned long long>(throttle_bps),
                  goodput_bps / static_cast<double>(throttle_bps), wall);
      proxy.Stop();
      server.Stop();
    }

    // --- overload storm ------------------------------------------------
    // The same cap-saturating client population is measured TWICE: once
    // quiet (the no-chaos reference) and once while storm dialers redial
    // into kOverloaded for the whole window. The acceptance bar compares
    // those two tails -- it isolates what the shedding path costs the
    // clients the server chose to keep, not what query concurrency costs.
    double quiet_p50_us = 0.0, quiet_p99_us = 0.0;
    double storm_p50_us = 0.0, storm_p99_us = 0.0;
    uint64_t shed = 0;
    uint64_t storm_rejections = 0;
    {
      SketchRegistry registry;
      ReqdServerConfig config;
      config.max_connections = cap;
      ReqdServer server(&registry, config);
      server.Start();
      {
        ReqClient seed_client = Dial(server.port());
        MetricSpec spec;
        spec.base.k_base = 64;
        spec.base.seed = 22;
        seed_client.Create("e20.storm", spec);
        const std::vector<double> stream = Stream(0x5702, items);
        const size_t batch = 2000;
        for (size_t i = 0; i < stream.size(); i += batch) {
          seed_client.Append("e20.storm", stream.data() + i,
                             std::min(batch, stream.size() - i));
        }
      }  // closes: all cap slots are free for the measured clients

      // One measured window of `cap` concurrent query clients; pooled
      // per-request latencies. Aborts the bench on any client failure.
      const auto run_incap = [&](double seconds) {
        std::vector<std::vector<double>> incap(cap);
        std::vector<std::string> failures(cap);
        std::vector<std::thread> threads;
        for (size_t c = 0; c < cap; ++c) {
          threads.emplace_back([&, c] {
            try {
              // In-cap clients may still race a transiently-held slot
              // (the previous window's sockets unwinding, a storm dialer
              // mid-ping): the retry budget rides through the shed
              // answers until a slot is truly theirs.
              ReqClient client;
              ClientOptions options;
              options.deadlines.connect_timeout_ms = 5000;
              options.deadlines.request_timeout_ms = 10000;
              options.deadlines.retry_budget_ms = 30000;
              options.deadlines.overloaded_backoff_ms = 2;
              options.reconnect_enabled = true;
              options.reconnect.max_attempts = 100;
              client.Connect("127.0.0.1", server.port(), options);
              const std::vector<double> qs = {0.5, 0.9, 0.99};
              for (int w = 0; w < 3; ++w) {
                req::bench::g_sink += static_cast<uint64_t>(
                    client.GetQuantiles("e20.storm", qs)[0]);
              }
              const auto window_start = Clock::now();
              while (SecondsSince(window_start) < seconds) {
                const auto start = Clock::now();
                req::bench::g_sink += static_cast<uint64_t>(
                    client.GetQuantiles("e20.storm", qs)[0]);
                incap[c].push_back(SecondsSince(start) * 1e6);
              }
            } catch (const std::exception& e) {
              failures[c] = e.what();
            }
          });
        }
        for (std::thread& t : threads) t.join();
        for (const std::string& failure : failures) {
          if (!failure.empty()) throw std::runtime_error(failure);
        }
        std::vector<double> pooled;
        for (const std::vector<double>& lat : incap) {
          pooled.insert(pooled.end(), lat.begin(), lat.end());
        }
        return pooled;
      };

      std::vector<double> quiet = run_incap(storm_seconds);
      quiet_p50_us = Percentile(&quiet, 0.50);
      quiet_p99_us = Percentile(&quiet, 0.99);

      std::atomic<bool> storm_on{true};
      std::atomic<uint64_t> rejections{0};
      std::vector<std::string> dial_failures(storm_dialers);
      std::vector<std::thread> dialers;
      for (size_t d = 0; d < storm_dialers; ++d) {
        dialers.emplace_back([&, d] {
          try {
            while (storm_on.load(std::memory_order_acquire)) {
              ReqClient dialer;
              ClientOptions options;
              options.deadlines.connect_timeout_ms = 2000;
              options.deadlines.request_timeout_ms = 2000;
              try {
                dialer.Connect("127.0.0.1", server.port(), options);
                dialer.Ping();  // either answered or shed -- both typed
              } catch (const OverloadedError&) {
                rejections.fetch_add(1, std::memory_order_relaxed);
              } catch (const std::runtime_error&) {
                // Shed frame raced the close: still a fast rejection.
                rejections.fetch_add(1, std::memory_order_relaxed);
              }
              std::this_thread::sleep_for(std::chrono::milliseconds(5));
            }
          } catch (const std::exception& e) {
            dial_failures[d] = e.what();
          }
        });
      }
      std::vector<double> stormed;
      try {
        stormed = run_incap(storm_seconds);
      } catch (...) {
        storm_on.store(false, std::memory_order_release);
        for (std::thread& t : dialers) t.join();
        throw;
      }
      storm_on.store(false, std::memory_order_release);
      for (std::thread& t : dialers) t.join();
      for (const std::string& failure : dial_failures) {
        if (!failure.empty()) throw std::runtime_error(failure);
      }
      storm_p50_us = Percentile(&stormed, 0.50);
      storm_p99_us = Percentile(&stormed, 0.99);
      shed = server.ShedConnections();
      storm_rejections = rejections.load();
      std::printf("overload: %zu in-cap clients, quiet p99 %.1f us vs "
                  "storm p99 %.1f us while %llu dials were shed\n",
                  cap, quiet_p99_us, storm_p99_us,
                  static_cast<unsigned long long>(shed));
      server.Stop();
    }

    // "Service quality" ratio: quiet in-cap p99 over storm in-cap p99
    // (1.0 = the storm cost nothing; the acceptance bar is >= 0.8).
    const double quality =
        storm_p99_us > 0.0 ? quiet_p99_us / storm_p99_us : 0.0;
    std::printf("in-cap service quality under storm: %.2f "
                "(quiet p99 / storm p99)\n",
                quality);

    // Gating note (compare_bench.py): the direct/clean rows keep honest
    // _us metrics -- they sit under the CI 100us noise floor. Everything
    // dominated by injected sleeps or storm contention is reported in
    // ungated _ms fields (the E18/E19 precedent for externally-dominated
    // timings); the ratios carry the E20 claims.
    JsonWriter json;
    json.BeginObject()
        .Field("experiment", "e20_chaos")
        .Field("items", static_cast<uint64_t>(items))
        .Field("smoke", args.smoke)
        .BeginArray("results");
    for (const Row& row : rows) {
      json.BeginObject()
          .Field("scenario", row.scenario)
          .Field("queries", static_cast<uint64_t>(row.lat.queries))
          .Field("query_p50_us", row.lat.p50_us)
          .Field("query_p99_us", row.lat.p99_us)
          .EndObject();
    }
    json.EndArray()
        .BeginObject("injected_latency")
        .Field("per_direction_ms", static_cast<uint64_t>(2))
        .Field("query_p50_ms", lagged_lat.p50_us / 1000.0)
        .Field("query_p99_ms", lagged_lat.p99_us / 1000.0)
        .EndObject()
        .BeginObject("throttle")
        .Field("configured_bps", throttle_bps)
        .Field("goodput_bps", goodput_bps)
        .Field("goodput_ratio",
               goodput_bps / static_cast<double>(throttle_bps))
        .EndObject()
        .BeginObject("overload")
        .Field("cap", static_cast<uint64_t>(cap))
        .Field("storm_dialers", static_cast<uint64_t>(storm_dialers))
        .Field("quiet_p50_ms", quiet_p50_us / 1000.0)
        .Field("quiet_p99_ms", quiet_p99_us / 1000.0)
        .Field("storm_p50_ms", storm_p50_us / 1000.0)
        .Field("storm_p99_ms", storm_p99_us / 1000.0)
        .Field("shed_connections", shed)
        .Field("storm_rejections", storm_rejections)
        .EndObject()
        .BeginObject("summary")
        .Field("direct_p99_us", rows[0].lat.p99_us)
        .Field("injected_p99_ms", lagged_lat.p99_us / 1000.0)
        .Field("storm_quality_ratio", quality)
        .Field("throttle_goodput_ratio",
               goodput_bps / static_cast<double>(throttle_bps))
        .EndObject()
        .EndObject();
    if (!json.WriteFile(args.out)) {
      std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", args.out.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e20 failed: %s\n", e.what());
    return 1;
  }
  return 0;
}
