// req-cli: client for the reqd quantile service. Two modes:
//
// Interactive (default): a line-oriented REPL over one connection.
//
//   req-cli [--connect HOST:PORT]
//     > create latency plain 64
//     > append latency 12.5 99.0 3.25
//     > quantiles latency 0.5 0.99
//     > rank latency 50
//     > cdf latency 10 100 1000
//     > snapshot latency /tmp/latency.reqs
//     > list | flush M | drop M | ping | stats | help | quit
//
// Load generator (--load): C client threads, each with its own connection
// and its own metric, append N deterministic items in batches of B, then
// run a query phase -- the same multi-tenant traffic shape as the E17
// bench, usable against any live reqd. With --verify, each client also
// feeds an in-process ReqSketch with the identical stream and requires the
// served quantiles to match bit-for-bit (only meaningful for plain
// engines, where the service guarantees determinism).
//
//   req-cli --connect HOST:PORT --load [--clients C] [--items N]
//           [--batch B] [--engine plain|sharded|windowed] [--k K]
//           [--verify]
//
// Churn storm (--churn): the metric-LIFECYCLE load shape, as opposed to
// --load's item throughput. Each round creates M metrics, appends one
// small batch to each, pages through the directory with prefix-filtered
// LISTs, then drops everything -- exercising the sharded registry,
// paged LIST, and quotas on a live daemon. A CREATE refused on a quota
// (kQuotaExceeded) is terminal for the round, reported, and never
// retried. Reports create/append/list latency percentiles.
//
//   req-cli --connect HOST:PORT --churn [--metrics M] [--rounds R]
//           [--page P] [--engine plain|sharded|windowed] [--k K]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/req_sketch.h"
#include "service/req_client.h"
#include "service/wire_protocol.h"
#include "util/random.h"

namespace {

using req::Criterion;
using req::ReqSketch;
using req::service::ClientOptions;
using req::service::EngineKind;
using req::service::MetricSpec;
using req::service::ReqClient;

using Clock = std::chrono::steady_clock;

struct Options {
  std::string host = "127.0.0.1";
  uint16_t port = 7071;
  bool load = false;
  size_t clients = 4;
  size_t items = 1000000;
  size_t batch = 4096;
  std::string engine = "plain";
  uint32_t k_base = 64;
  bool verify = false;
  bool churn = false;
  size_t metrics = 1000;
  size_t rounds = 3;
  size_t page = 100;
};

bool ParseHostPort(const std::string& arg, Options* opt) {
  const size_t colon = arg.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  opt->host = arg.substr(0, colon);
  const int port = std::atoi(arg.c_str() + colon + 1);
  if (port <= 0 || port > 65535) return false;
  opt->port = static_cast<uint16_t>(port);
  return true;
}

EngineKind KindOf(const std::string& s) {
  if (s == "plain") return EngineKind::kPlain;
  if (s == "sharded") return EngineKind::kSharded;
  if (s == "windowed") return EngineKind::kWindowed;
  throw std::invalid_argument("unknown engine kind: " + s);
}

// Every req-cli connection redials and retries idempotent requests across
// daemon restarts (default reconnect policy and deadlines).
ClientOptions SelfHealing() {
  ClientOptions options;
  options.reconnect_enabled = true;
  return options;
}

// The deterministic per-metric load stream (shared with --verify).
std::vector<double> LoadStream(uint64_t seed, size_t items) {
  req::util::Xoshiro256 rng(seed);
  std::vector<double> values(items);
  for (double& v : values) v = rng.NextDouble() * 1e6;
  return values;
}

// --- load generator --------------------------------------------------------

int RunLoad(const Options& opt) {
  const std::vector<double> qs = {0.5, 0.9, 0.99, 0.999};
  const size_t queries = 200;
  // Per-run nonce in the metric names: a failed run (which never reaches
  // the Drop below) must not wedge the next run against a long-lived
  // daemon with "metric already exists".
  const std::string run_tag = std::to_string(
      std::chrono::steady_clock::now().time_since_epoch().count() %
      1000000);
  std::vector<std::thread> threads;
  std::vector<double> append_seconds(opt.clients, 0.0);
  std::vector<double> query_seconds(opt.clients, 0.0);
  std::vector<std::string> failures(opt.clients);

  for (size_t c = 0; c < opt.clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        // Self-healing: queries transparently survive a daemon restart;
        // appends reconcile explicitly below.
        ReqClient client;
        client.Connect(opt.host, opt.port, SelfHealing());
        const std::string metric =
            "load." + run_tag + ".m" + std::to_string(c);
        MetricSpec spec;
        spec.kind = KindOf(opt.engine);
        spec.base.k_base = opt.k_base;
        client.Create(metric, spec);
        const std::vector<double> stream =
            LoadStream(/*seed=*/1000 + c, opt.items);

        const auto append_start = Clock::now();
        for (size_t i = 0; i < stream.size();) {
          const size_t len = std::min(opt.batch, stream.size() - i);
          try {
            client.Append(metric, stream.data() + i, len);
            i += len;
          } catch (const req::service::ServiceError&) {
            throw;  // the server answered: a real error, not a restart
          } catch (const std::runtime_error&) {
            // Connection died mid-append -- possibly a daemon restart
            // with durability. Append is not idempotent, so the client
            // did not re-send; instead ask the (recovered) daemon how
            // many items it accepted and resume exactly there. Flush is
            // idempotent and redials transparently.
            i = static_cast<size_t>(client.Flush(metric));
          }
        }
        append_seconds[c] =
            std::chrono::duration<double>(Clock::now() - append_start)
                .count();

        const auto query_start = Clock::now();
        std::vector<double> served;
        for (size_t q = 0; q < queries; ++q) {
          served = client.GetQuantiles(metric, qs);
        }
        query_seconds[c] =
            std::chrono::duration<double>(Clock::now() - query_start)
                .count();

        if (opt.verify) {
          req::ReqConfig config;
          config.k_base = opt.k_base;
          ReqSketch<double> local(config);
          local.Update(stream);
          const std::vector<double> expected = local.GetQuantiles(qs);
          for (size_t i = 0; i < qs.size(); ++i) {
            if (served[i] != expected[i]) {
              failures[c] = "served quantile mismatch at q=" +
                            std::to_string(qs[i]);
              return;
            }
          }
        }
        client.Drop(metric);
      } catch (const std::exception& e) {
        failures[c] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  bool failed = false;
  double worst_append = 0.0, total_queries_s = 0.0;
  for (size_t c = 0; c < opt.clients; ++c) {
    if (!failures[c].empty()) {
      std::fprintf(stderr, "client %zu failed: %s\n", c,
                   failures[c].c_str());
      failed = true;
      continue;
    }
    worst_append = std::max(worst_append, append_seconds[c]);
    total_queries_s += query_seconds[c];
  }
  if (failed) return 1;
  const double total_items =
      static_cast<double>(opt.items) * static_cast<double>(opt.clients);
  std::printf("%zu client(s) x %zu items (batch %zu, engine %s)\n",
              opt.clients, opt.items, opt.batch, opt.engine.c_str());
  std::printf("aggregate append throughput: %.2f Mitems/s\n",
              total_items / worst_append / 1e6);
  std::printf("mean quantile-query latency: %.1f us\n",
              total_queries_s /
                  (static_cast<double>(queries) * opt.clients) * 1e6);
  if (opt.verify) std::printf("verify: served == in-process, bit-exact\n");
  return 0;
}

// --- churn storm -----------------------------------------------------------

double PercentileUs(std::vector<double>* sorted_us, double p) {
  if (sorted_us->empty()) return 0.0;
  std::sort(sorted_us->begin(), sorted_us->end());
  const size_t idx = std::min(
      sorted_us->size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted_us->size())));
  return (*sorted_us)[idx];
}

int RunChurn(const Options& opt) {
  ReqClient client;
  client.Connect(opt.host, opt.port, SelfHealing());
  const std::string run_tag = std::to_string(
      std::chrono::steady_clock::now().time_since_epoch().count() %
      1000000);
  const std::string prefix = "churn." + run_tag + ".";
  MetricSpec spec;
  spec.kind = KindOf(opt.engine);
  spec.base.k_base = opt.k_base;
  const std::vector<double> batch = LoadStream(/*seed=*/42, 16);

  std::vector<double> create_us, append_us, list_us;
  create_us.reserve(opt.metrics * opt.rounds);
  append_us.reserve(opt.metrics * opt.rounds);
  size_t created_total = 0, dropped_total = 0;
  const auto start = Clock::now();
  for (size_t round = 0; round < opt.rounds; ++round) {
    std::vector<std::string> created;
    created.reserve(opt.metrics);
    try {
      for (size_t m = 0; m < opt.metrics; ++m) {
        const std::string name =
            prefix + "r" + std::to_string(round) + ".m" + std::to_string(m);
        client.Create(name, spec);
        create_us.push_back(static_cast<double>(client.LastRttUs()));
        created.push_back(name);
      }
    } catch (const req::service::QuotaExceededError& e) {
      // Definitive server policy: report, keep the metrics we DID get,
      // and do not retry (see req_client.h).
      std::fprintf(stderr, "round %zu: quota after %zu create(s): %s\n",
                   round, created.size(), e.what());
    }
    created_total += created.size();
    for (const std::string& name : created) {
      client.Append(name, batch);
      append_us.push_back(static_cast<double>(client.LastRttUs()));
    }
    // Page through this round's slice of the directory and check the
    // server's arithmetic: the pages must reassemble to exactly what we
    // created, already sorted.
    uint64_t total = 0;
    size_t paged = 0;
    for (uint64_t offset = 0;; offset += opt.page) {
      const std::vector<std::string> names =
          client.List(prefix, offset, opt.page, &total);
      list_us.push_back(static_cast<double>(client.LastRttUs()));
      paged += names.size();
      if (names.empty() || paged >= total) break;
    }
    if (paged != created.size()) {
      std::fprintf(stderr,
                   "round %zu: paged LIST returned %zu names, created %zu\n",
                   round, paged, created.size());
      return 1;
    }
    for (const std::string& name : created) client.Drop(name);
    dropped_total += created.size();
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  const double ops = static_cast<double>(created_total + dropped_total +
                                         append_us.size() + list_us.size());
  std::printf("%zu round(s) x %zu metric(s) (engine %s): %zu created, "
              "%zu dropped, %llu quota rejection(s)\n",
              opt.rounds, opt.metrics, opt.engine.c_str(), created_total,
              dropped_total,
              static_cast<unsigned long long>(client.QuotaRejections()));
  std::printf("create p50/p99: %.1f/%.1f us\n",
              PercentileUs(&create_us, 0.50), PercentileUs(&create_us, 0.99));
  std::printf("append p50/p99: %.1f/%.1f us\n",
              PercentileUs(&append_us, 0.50), PercentileUs(&append_us, 0.99));
  std::printf("paged-list p50/p99: %.1f/%.1f us (page %zu)\n",
              PercentileUs(&list_us, 0.50), PercentileUs(&list_us, 0.99),
              opt.page);
  std::printf("lifecycle ops/s: %.0f\n", ops / elapsed);
  return 0;
}

// --- interactive -----------------------------------------------------------

void PrintHelp() {
  std::printf(
      "commands:\n"
      "  ping | help | quit\n"
      "  list [PREFIX [OFFSET [LIMIT]]]   paged form prints total too\n"
      "  create NAME KIND [K_BASE]     KIND: plain sharded windowed\n"
      "  append NAME V...\n"
      "  flush NAME | drop NAME\n"
      "  rank NAME Y...\n"
      "  quantiles NAME Q...           Q in [0,1]\n"
      "  cdf NAME SPLIT...             ascending splits\n"
      "  snapshot NAME [FILE]          engine snapshot blob\n"
      "  stats                         server monitoring counters\n");
}

int RunRepl(const Options& opt) {
  // An interactive session outlives daemon restarts: queries redial and
  // retry; a failed append reports its error and the NEXT command
  // reconnects.
  ReqClient client;
  client.Connect(opt.host, opt.port, SelfHealing());
  std::printf("connected to %s:%u (protocol v%u); 'help' for commands\n",
              opt.host.c_str(), opt.port, client.Ping());

  std::string line;
  while (std::printf("> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd)) continue;
    try {
      if (cmd == "quit" || cmd == "exit") break;
      if (cmd == "help") {
        PrintHelp();
      } else if (cmd == "ping") {
        std::printf("protocol v%u\n", client.Ping());
      } else if (cmd == "list") {
        std::string prefix;
        if (in >> prefix) {
          uint64_t offset = 0, limit = 0, total = 0;
          in >> offset >> limit;
          // "." pages the whole directory (an empty prefix cannot be
          // typed as a standalone token).
          if (prefix == ".") prefix.clear();
          for (const std::string& name :
               client.List(prefix, offset, limit, &total)) {
            std::printf("%s\n", name.c_str());
          }
          std::printf("(%llu total match(es))\n",
                      static_cast<unsigned long long>(total));
        } else {
          for (const std::string& name : client.List()) {
            std::printf("%s\n", name.c_str());
          }
        }
      } else if (cmd == "create") {
        std::string name, kind;
        in >> name >> kind;
        MetricSpec spec;
        spec.kind = KindOf(kind);
        uint32_t k = 0;
        if (in >> k) spec.base.k_base = k;
        client.Create(name, spec);
        std::printf("ok\n");
      } else if (cmd == "append" || cmd == "rank" || cmd == "quantiles" ||
                 cmd == "cdf") {
        std::string name;
        in >> name;
        std::vector<double> values;
        double v = 0.0;
        while (in >> v) values.push_back(v);
        if (cmd == "append") {
          std::printf("n=%llu\n", static_cast<unsigned long long>(
                                      client.Append(name, values)));
        } else if (cmd == "rank") {
          for (uint64_t r : client.GetRanks(name, values)) {
            std::printf("%llu\n", static_cast<unsigned long long>(r));
          }
        } else if (cmd == "quantiles") {
          for (double q : client.GetQuantiles(name, values)) {
            std::printf("%.17g\n", q);
          }
        } else {
          for (double p : client.GetCDF(name, values)) {
            std::printf("%.6f\n", p);
          }
        }
      } else if (cmd == "flush") {
        std::string name;
        in >> name;
        std::printf("n=%llu\n", static_cast<unsigned long long>(
                                    client.Flush(name)));
      } else if (cmd == "drop") {
        std::string name;
        in >> name;
        client.Drop(name);
        std::printf("ok\n");
      } else if (cmd == "stats") {
        // Server-chosen order; keys are stable, the set may grow.
        for (const auto& [key, value] : client.Stats()) {
          std::printf("%-24s %llu\n", key.c_str(),
                      static_cast<unsigned long long>(value));
        }
      } else if (cmd == "snapshot") {
        std::string name, file;
        in >> name >> file;
        const std::vector<uint8_t> blob = client.Snapshot(name);
        if (file.empty()) {
          std::printf("%zu byte snapshot (kind %u)\n", blob.size(),
                      blob.empty() ? 0u : blob[0]);
        } else {
          std::FILE* f = std::fopen(file.c_str(), "wb");
          if (f == nullptr ||
              std::fwrite(blob.data(), 1, blob.size(), f) != blob.size()) {
            std::fprintf(stderr, "cannot write %s\n", file.c_str());
          } else {
            std::printf("wrote %zu bytes to %s\n", blob.size(),
                        file.c_str());
          }
          if (f != nullptr) std::fclose(f);
        }
      } else {
        std::fprintf(stderr, "unknown command %s ('help' lists them)\n",
                     cmd.c_str());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
      if (!ParseHostPort(argv[++i], &opt)) {
        std::fprintf(stderr, "bad --connect (want HOST:PORT)\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--load") == 0) {
      opt.load = true;
    } else if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc) {
      opt.clients = static_cast<size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--items") == 0 && i + 1 < argc) {
      opt.items = static_cast<size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc) {
      opt.batch = static_cast<size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--engine") == 0 && i + 1 < argc) {
      opt.engine = argv[++i];
    } else if (std::strcmp(argv[i], "--k") == 0 && i + 1 < argc) {
      opt.k_base = static_cast<uint32_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--verify") == 0) {
      opt.verify = true;
    } else if (std::strcmp(argv[i], "--churn") == 0) {
      opt.churn = true;
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      opt.metrics = static_cast<size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--rounds") == 0 && i + 1 < argc) {
      opt.rounds = static_cast<size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--page") == 0 && i + 1 < argc) {
      opt.page = static_cast<size_t>(std::atol(argv[++i]));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  if (opt.clients == 0 || opt.items == 0 || opt.batch == 0) {
    std::fprintf(stderr, "--clients/--items/--batch must be positive\n");
    return 2;
  }
  if (opt.churn && (opt.metrics == 0 || opt.rounds == 0 || opt.page == 0)) {
    std::fprintf(stderr, "--metrics/--rounds/--page must be positive\n");
    return 2;
  }
  if (opt.churn && opt.load) {
    std::fprintf(stderr, "--churn and --load are exclusive\n");
    return 2;
  }
  if (opt.verify && opt.engine != "plain") {
    // Only the plain engine guarantees bit-identical agreement with an
    // in-process sketch (sharded answers come from a shard merge,
    // windowed ones from the live window).
    std::fprintf(stderr, "--verify requires --engine plain\n");
    return 2;
  }
  try {
    if (opt.churn) return RunChurn(opt);
    return opt.load ? RunLoad(opt) : RunRepl(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "req-cli: %s\n", e.what());
    return 1;
  }
}
