// The three benchmark workloads, generated from a seed before any timing
// starts. Each workload is a list of metrics plus, per connection, the
// requests to send, as pre-encoded frame heads and item arrays held in
// memory; reqd only ever receives frames.
//
//   ingest     2 connections, closed loop, 1024-item APPEND batches of a
//              lognormal stream round-robin over 4 metrics (2 plain,
//              2 sharded), so every metric has two concurrent writers.
//              The request list is a cycle of kIngestPoolBatches batches
//              per connection, replayed for the run's duration.
//   dashboard  1 thread, 4 pipelined connections, open loop at a fixed
//              Poisson rate: small APPENDs (16..48 items) to 16384
//              metrics (1 in 8 windowed) chosen with Zipf skew, and
//              1 request in 5 a query (QUANTILES, some RANK) on a
//              recently written metric. Every metric has exactly one
//              writer connection, which also carries its queries.
//   durable    2 connections, closed loop, a fixed 2100 256-item batches
//              to each of 64 plain metrics (one writer per metric), with
//              --data-dir and the default fsync and checkpoint policy.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "reqd_child.h"
#include "service/wire_protocol.h"

namespace perfbench {

// --- workload constants (changing any of these changes the benchmark) ----
inline constexpr uint32_t kIngestBatch = 1024;
inline constexpr uint32_t kIngestPoolBatches = 1024;  // per connection
inline constexpr uint32_t kDashMetrics = 16384;
inline constexpr double kDashRate = 10000;  // offered requests per second
inline constexpr double kDashQueryShare = 0.2;
inline constexpr double kDashZipf = 1.0;
inline constexpr double kDashWarmupS = 1.0;
inline constexpr double kDashQueryP99LimitUs = 10000;  // stated limit
inline constexpr uint32_t kDurableMetrics = 64;
inline constexpr uint32_t kDurableBatch = 256;
inline constexpr uint32_t kDurableBatchesPerMetric = 2100;
inline constexpr uint32_t kDurablePoolBatches = 4096;
inline constexpr uint32_t kQueryPhaseRequests = 20000;

// The quantile set of every QUANTILES request in the workloads.
inline const std::vector<double>& DashboardQs() {
  static const std::vector<double> qs{0.5, 0.9, 0.99, 0.999};
  return qs;
}

enum class OpKind : uint8_t { kAppend, kQuantiles, kRank };

struct Op {
  OpKind kind = OpKind::kAppend;
  uint8_t conn = 0;
  uint32_t metric = 0;
  uint32_t head_off = 0;  // into Workload::heads
  uint32_t head_len = 0;
  uint64_t value_off = 0;  // into Workload::values
  uint32_t count = 0;      // items carried raw after the head
  int64_t due_ns = 0;      // dashboard: send time from phase start
};

struct MetricDef {
  std::string name;
  req::service::MetricSpec spec;
  uint8_t writer = 0;  // connection that owns the metric (single writer)
};

struct Workload {
  std::string name;
  uint64_t seed = 0;
  int connections = 0;
  std::vector<MetricDef> metrics;
  std::vector<uint8_t> heads;
  std::vector<double> values;
  // ingest/durable: per-connection request lists (ingest cycles them);
  // dashboard: conn_ops[0] is the single time-ordered schedule.
  std::vector<std::vector<Op>> conn_ops;
  // Extra query values (RANK points) live in `values` too.

  WireFrame Frame(const Op& op) const {
    WireFrame f;
    f.head = heads.data() + op.head_off;
    f.head_len = op.head_len;
    f.values = op.count > 0 ? values.data() + op.value_off : nullptr;
    f.count = op.count;
    return f;
  }

  // CREATE frames for every metric, then one PING: the set-up stream.
  std::vector<uint8_t> SetupFrames() const {
    std::vector<uint8_t> out;
    for (const MetricDef& m : metrics) {
      req::service::Request r;
      r.op = req::service::Opcode::kCreate;
      r.metric = m.name;
      r.spec = m.spec;
      const std::vector<uint8_t> f = EncodeFrame(r);
      out.insert(out.end(), f.begin(), f.end());
    }
    req::service::Request ping;
    ping.op = req::service::Opcode::kPing;
    const std::vector<uint8_t> f = EncodeFrame(ping);
    out.insert(out.end(), f.begin(), f.end());
    return out;
  }
};

// Builds frame heads, sharing one head per (metric, item count).
class HeadBuilder {
 public:
  explicit HeadBuilder(Workload* w) : w_(w) {}

  // Head of an APPEND of `count` items to metric `m`: the frame up to
  // and including the item count, so the items follow as raw bytes.
  void AppendHead(uint32_t m, uint32_t count, Op* op) {
    const uint64_t key = (uint64_t{m} << 32) | count;
    auto it = cache_.find(key);
    if (it == cache_.end()) {
      req::service::Request r;
      r.op = req::service::Opcode::kAppend;
      r.metric = w_->metrics[m].name;
      r.values.assign(count, 0.0);
      // A sentinel proves the items are the payload's tail, raw.
      for (uint32_t i = 0; i < count; ++i) r.values[i] = 1.0 + i;
      const std::vector<uint8_t> frame = EncodeFrame(r);
      const size_t head_len = frame.size() - sizeof(double) * count;
      if (std::memcmp(frame.data() + head_len, r.values.data(),
                      sizeof(double) * count) != 0) {
        throw std::logic_error("APPEND items are not the frame's raw tail");
      }
      it = cache_.emplace(key, Add(frame.data(), head_len)).first;
    }
    op->head_off = it->second.first;
    op->head_len = it->second.second;
  }

  // A whole small frame (queries).
  void WholeFrame(const req::service::Request& r, Op* op) {
    const std::vector<uint8_t> frame = EncodeFrame(r);
    const auto at = Add(frame.data(), frame.size());
    op->head_off = at.first;
    op->head_len = at.second;
    op->count = 0;
  }

 private:
  std::pair<uint32_t, uint32_t> Add(const uint8_t* data, size_t len) {
    const uint32_t off = static_cast<uint32_t>(w_->heads.size());
    w_->heads.insert(w_->heads.end(), data, data + len);
    return {off, static_cast<uint32_t>(len)};
  }

  Workload* w_;
  std::unordered_map<uint64_t, std::pair<uint32_t, uint32_t>> cache_;
};

inline req::service::MetricSpec PlainSpec(uint64_t seed) {
  req::service::MetricSpec spec;
  spec.kind = req::service::EngineKind::kPlain;
  spec.base.seed = seed;
  return spec;
}

inline Workload MakeIngest(uint64_t seed) {
  Workload w;
  w.name = "ingest";
  w.seed = seed;
  w.connections = 2;
  Rng rng(seed ^ 0x1a9e57);
  const char* names[4] = {"ing.p0", "ing.p1", "ing.s0", "ing.s1"};
  for (uint32_t m = 0; m < 4; ++m) {
    MetricDef def{names[m], PlainSpec(rng.Next()), 0};
    if (m >= 2) def.spec.kind = req::service::EngineKind::kSharded;
    w.metrics.push_back(def);
  }
  const size_t items = size_t{2} * kIngestPoolBatches * kIngestBatch;
  w.values.resize(items);
  for (double& v : w.values) v = rng.Lognormal();
  HeadBuilder heads(&w);
  w.conn_ops.resize(2);
  for (uint32_t c = 0; c < 2; ++c) {
    for (uint32_t j = 0; j < kIngestPoolBatches; ++j) {
      Op op;
      op.conn = static_cast<uint8_t>(c);
      // Connection c starts two metrics further along, so at any time
      // the two connections write different metrics and every metric
      // gets both writers over each cycle of four.
      op.metric = (j + 2 * c) % 4;
      op.count = kIngestBatch;
      op.value_off = (uint64_t{c} * kIngestPoolBatches + j) * kIngestBatch;
      heads.AppendHead(op.metric, op.count, &op);
      w.conn_ops[c].push_back(op);
    }
  }
  return w;
}

inline Workload MakeDurable(uint64_t seed) {
  Workload w;
  w.name = "durable";
  w.seed = seed;
  w.connections = 2;
  Rng rng(seed ^ 0xd0ab1e);
  for (uint32_t m = 0; m < kDurableMetrics; ++m) {
    char name[16];
    std::snprintf(name, sizeof(name), "dur.%02u", m);
    w.metrics.push_back(
        MetricDef{name, PlainSpec(rng.Next()), static_cast<uint8_t>(m % 2)});
  }
  w.values.resize(size_t{kDurablePoolBatches} * kDurableBatch);
  for (double& v : w.values) v = rng.Lognormal();
  HeadBuilder heads(&w);
  w.conn_ops.resize(2);
  for (uint32_t i = 0; i < kDurableBatchesPerMetric; ++i) {
    for (uint32_t m = 0; m < kDurableMetrics; ++m) {
      Op op;
      op.conn = static_cast<uint8_t>(m % 2);
      op.metric = m;
      op.count = kDurableBatch;
      op.value_off =
          uint64_t{(m * 64 + i) % kDurablePoolBatches} * kDurableBatch;
      heads.AppendHead(m, op.count, &op);
      w.conn_ops[op.conn].push_back(op);
    }
  }
  return w;
}

// `seconds` of measured schedule after a kDashWarmupS warm-up.
inline Workload MakeDashboard(uint64_t seed, double seconds) {
  Workload w;
  w.name = "dashboard";
  w.seed = seed;
  w.connections = 4;
  Rng rng(seed ^ 0xda5b0a2d);
  for (uint32_t m = 0; m < kDashMetrics; ++m) {
    char name[16];
    std::snprintf(name, sizeof(name), "dash.%05u", m);
    w.metrics.push_back(
        MetricDef{name, PlainSpec(rng.Next()), static_cast<uint8_t>(m % 4)});
  }
  // Popularity rank -> metric id, shuffled so hot metrics spread over
  // registry shards and connections. Every 8th rank is windowed: the
  // kind follows popularity, not the seed, so the mix of hot plain and
  // hot windowed metrics is the same for every seed.
  std::vector<uint32_t> by_rank(kDashMetrics);
  for (uint32_t i = 0; i < kDashMetrics; ++i) by_rank[i] = i;
  for (uint32_t i = kDashMetrics - 1; i > 0; --i) {
    std::swap(by_rank[i], by_rank[rng.Below(i + 1)]);
  }
  for (uint32_t rank = 7; rank < kDashMetrics; rank += 8) {
    req::service::MetricSpec& spec = w.metrics[by_rank[rank]].spec;
    spec.kind = req::service::EngineKind::kWindowed;
    spec.num_buckets = 8;
    spec.bucket_items = 4096;
  }
  const Zipf zipf(kDashMetrics, kDashZipf);
  HeadBuilder heads(&w);
  w.conn_ops.resize(1);
  std::vector<Op>& ops = w.conn_ops[0];
  const double total_s = kDashWarmupS + seconds;
  const size_t expected = static_cast<size_t>(kDashRate * total_s);
  ops.reserve(expected + expected / 8);
  w.values.reserve(expected * 32);
  std::vector<uint32_t> recent;  // ring of recently written metrics
  size_t recent_next = 0;
  const double mean_gap_ns = 1e9 / kDashRate;
  double due = 0;
  while (true) {
    due += rng.Exponential(mean_gap_ns);
    if (due >= total_s * 1e9) break;
    Op op;
    op.due_ns = static_cast<int64_t>(due);
    if (!recent.empty() && rng.Uniform() < kDashQueryShare) {
      op.metric = recent[rng.Below(recent.size())];
      op.conn = w.metrics[op.metric].writer;
      req::service::Request r;
      r.metric = w.metrics[op.metric].name;
      if (rng.Below(10) == 0) {
        op.kind = OpKind::kRank;
        r.op = req::service::Opcode::kRank;
        for (int i = 0; i < 4; ++i) r.values.push_back(rng.Lognormal());
      } else {
        op.kind = OpKind::kQuantiles;
        r.op = req::service::Opcode::kQuantiles;
        r.values = DashboardQs();
      }
      // Query points are kept with the op for the in-process replay.
      op.value_off = w.values.size();
      w.values.insert(w.values.end(), r.values.begin(), r.values.end());
      heads.WholeFrame(r, &op);
      op.count = 0;
      ops.push_back(op);
      continue;
    }
    op.kind = OpKind::kAppend;
    op.metric = by_rank[zipf.Sample(rng)];
    op.conn = w.metrics[op.metric].writer;
    op.count = 16 + static_cast<uint32_t>(rng.Below(33));
    op.value_off = w.values.size();
    for (uint32_t i = 0; i < op.count; ++i) w.values.push_back(rng.Lognormal());
    heads.AppendHead(op.metric, op.count, &op);
    ops.push_back(op);
    if (recent.size() < 256) {
      recent.push_back(op.metric);
    } else {
      recent[recent_next++ % 256] = op.metric;
    }
  }
  return w;
}

// Number of query points a query op carries (for the in-process replay).
inline uint32_t QueryPoints(const Op& op) {
  return op.kind == OpKind::kRank ? 4u
                                  : static_cast<uint32_t>(DashboardQs().size());
}

inline Workload MakeWorkload(const std::string& name, uint64_t seed,
                             double seconds) {
  if (name == "ingest") return MakeIngest(seed);
  if (name == "dashboard") return MakeDashboard(seed, seconds);
  if (name == "durable") return MakeDurable(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
