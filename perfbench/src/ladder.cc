// The traced run: one workload's pre-generated requests replayed through
// a ladder of rungs, each calling one more layer's public functions:
//
//   compactor   standalone RelativeCompactor Insert + Compact
//   core        ReqSketch::Update (per-shard sketches for sharded
//               metrics, WindowedReqSketch for windowed ones) and the
//               query-after-write copy + PrepareSortedView + query
//   registry    SketchRegistry engines: Require + Append / query
//   persist     the same plus a DurabilityManager (MetricLog per metric,
//               fsync never: the rung measures CPU, not the device)
//   wire        frames -> FrameDecoder -> ParseRequest -> registry ->
//               AppendResponseFrame -> ParseResponse, in process
//   loopback1   reqd child, one ReqClient connection, closed loop
//   connections reqd child, the workload's own connections and loop
//
// Repetitions are interleaved (every rung once per round) so drift hits
// every rung alike; each figure is the median over rounds. A layer's
// cost is its rung's CPU per item minus the rung below; reqd CPU for the
// two socket rungs comes from /proc/<pid>/stat. Spans around the calls
// into each layer are kept in memory and written to spans.jsonl at the
// end; their self times give the per-call figures.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>

#include "bench.h"
#include "core/relative_compactor.h"
#include "core/req_sketch.h"
#include "persist/durability.h"
#include "procfs.h"
#include "service/req_client.h"
#include "service/sketch_registry.h"
#include "util/random.h"
#include "window/windowed_req_sketch.h"

namespace perfbench {
namespace {

using req::service::EngineKind;
using req::service::Opcode;
using req::service::Request;
using req::service::Response;
using req::service::SketchRegistry;
using Sketch = req::ReqSketch<double>;
using Window = req::window::WindowedReqSketch<double>;

constexpr int kRounds = 3;
constexpr size_t kLadderAppendItems = size_t{1} << 20;  // per workload
constexpr size_t kDashLadderOps = 20000;
constexpr int kQueryProbesPerMetric = 16;
constexpr int64_t kIngestE2eNs = 2000000000;

struct RungSample {
  double cpu_ns = 0;   // thread CPU (in-process) or reqd CPU (sockets)
  double wall_ns = 0;
  uint64_t items = 0;
};

// The ladder's input: a prefix of the workload in send order, plus (for
// the closed-loop workloads, which send no queries) per-metric query
// probes replayed after the appends and timed apart from them.
struct LadderInput {
  std::vector<Op> ops;
  std::vector<std::vector<Op>> lists;  // per connection, for the socket rung
  uint64_t items = 0;
  bool probes = false;  // run query probes after the appends
};

LadderInput MakeLadderInput(const Workload& w) {
  LadderInput in;
  if (w.name == "dashboard") {
    const std::vector<Op>& all = w.conn_ops[0];
    in.ops.assign(all.begin(),
                  all.begin() + static_cast<ptrdiff_t>(
                                    std::min(all.size(), kDashLadderOps)));
    in.lists.assign(1, in.ops);
  } else {
    in.lists.resize(w.conn_ops.size());
    for (size_t j = 0; in.items < kLadderAppendItems; ++j) {
      for (size_t c = 0; c < w.conn_ops.size(); ++c) {
        const Op& op = w.conn_ops[c][j % w.conn_ops[c].size()];
        in.ops.push_back(op);
        in.lists[c].push_back(op);
        in.items += op.count;
      }
    }
    in.probes = true;
  }
  in.items = 0;
  for (const Op& op : in.ops) in.items += op.count;
  return in;
}

const double* Values(const Workload& w, const Op& op) {
  return w.values.data() + op.value_off;
}

std::vector<double> QueryPoints(const Workload& w, const Op& op) {
  const double* v = Values(w, op);
  return std::vector<double>(v, v + perfbench::QueryPoints(op));
}

// Spans of one rung run: a root span plus named children.
struct Tracer {
  SpanRecorder* rec;
  int64_t root = -1;
  template <typename F>
  auto Time(const char* name, uint64_t request, F&& f) {
    const int64_t s = rec->Begin(name, root, request);
    struct Closer {
      SpanRecorder* r;
      int64_t s;
      ~Closer() { r->End(s); }
    } closer{rec, s};
    return f();
  }
};

// --- rung: standalone compactor ---------------------------------------------

RungSample RunCompactor(const Workload& w, const LadderInput& in,
                        uint64_t* compactions) {
  std::vector<std::unique_ptr<req::RelativeCompactor<double>>> levels(
      w.metrics.size());
  req::util::Xoshiro256 rng(w.seed);
  std::vector<double> promoted;
  const int64_t c0 = ThreadCpuNs(), t0 = NowNs();
  for (const Op& op : in.ops) {
    if (op.kind != OpKind::kAppend) continue;
    auto& level = levels[op.metric];
    if (!level) {
      const Sketch geometry(w.metrics[op.metric].spec.base);
      level = std::make_unique<req::RelativeCompactor<double>>(
          geometry.section_size(), geometry.num_sections(),
          req::RankAccuracy::kHighRanks, req::SchedulePolicy::kExponential,
          req::CoinMode::kRandom);
    }
    level->Insert(Values(w, op), op.count);
    while (level->IsFull()) level->Compact(rng, &promoted);
  }
  RungSample s{static_cast<double>(ThreadCpuNs() - c0),
               static_cast<double>(NowNs() - t0), in.items};
  *compactions = 0;
  for (const auto& level : levels) {
    if (level) *compactions += level->num_compactions();
  }
  return s;
}

// --- rung: core sketches -----------------------------------------------------

struct CoreState {
  std::vector<std::vector<Sketch>> shards;  // plain: 1, sharded: num_shards
  std::vector<size_t> next_shard;
  std::vector<std::unique_ptr<Window>> windows;
  std::vector<std::shared_ptr<const Sketch>> views;  // query-after-write cache
};

std::shared_ptr<const Sketch> CoreView(const Workload& w, CoreState* st,
                                       uint32_t m, Tracer* tr, uint64_t req) {
  if (st->views[m]) return st->views[m];
  return st->views[m] = tr->Time("core.view_build", req, [&] {
    Sketch snap = [&] {
      if (st->windows[m]) {
        return st->windows[m]->is_empty()
                   ? Sketch(w.metrics[m].spec.base)
                   : st->windows[m]->MergedSnapshot();
      }
      if (st->shards[m].size() == 1) return st->shards[m][0];
      Sketch merged(w.metrics[m].spec.base);
      for (const Sketch& s : st->shards[m]) merged.Merge(s);
      return merged;
    }();
    snap.PrepareSortedView();
    return std::make_shared<const Sketch>(std::move(snap));
  });
}

RungSample RunCore(const Workload& w, const LadderInput& in, SpanRecorder* rec,
                   uint64_t* compactions) {
  CoreState st;
  const size_t nm = w.metrics.size();
  st.shards.resize(nm);
  st.next_shard.assign(nm, 0);
  st.windows.resize(nm);
  st.views.resize(nm);
  for (size_t m = 0; m < nm; ++m) {
    const req::service::MetricSpec& spec = w.metrics[m].spec;
    if (spec.kind == EngineKind::kWindowed) {
      req::window::WindowedReqConfig config;
      config.num_buckets = spec.num_buckets;
      config.bucket_items = spec.bucket_items;
      config.base = spec.base;
      st.windows[m] = std::make_unique<Window>(config);
    } else {
      const uint32_t n = spec.kind == EngineKind::kSharded ? spec.num_shards : 1;
      for (uint32_t i = 0; i < n; ++i) {
        req::ReqConfig config = spec.base;
        config.seed = spec.base.seed + (n > 1 ? i : 0);
        st.shards[m].emplace_back(config);
      }
    }
  }
  Tracer tr{rec, rec->Begin("rung.core", -1, 0)};
  const int64_t c0 = ThreadCpuNs(), t0 = NowNs();
  for (size_t i = 0; i < in.ops.size(); ++i) {
    const Op& op = in.ops[i];
    if (op.kind == OpKind::kAppend) {
      if (st.windows[op.metric]) {
        st.windows[op.metric]->Update(Values(w, op), op.count);
      } else {
        auto& shards = st.shards[op.metric];
        shards[st.next_shard[op.metric]++ % shards.size()].Update(
            Values(w, op), op.count);
      }
      st.views[op.metric].reset();
      continue;
    }
    const auto view = CoreView(w, &st, op.metric, &tr, i);
    const std::vector<double> points = QueryPoints(w, op);
    tr.Time("core.query", i, [&] {
      if (op.kind == OpKind::kQuantiles) return view->GetQuantiles(points).size();
      return view->GetRanks(points).size();
    });
  }
  RungSample s{static_cast<double>(ThreadCpuNs() - c0),
               static_cast<double>(NowNs() - t0), in.items};
  if (in.probes) {
    for (uint32_t m = 0; m < nm; ++m) {
      for (int p = 0; p < kQueryProbesPerMetric; ++p) {
        const auto view = CoreView(w, &st, m, &tr, m);
        tr.Time("core.query", m, [&] { return view->GetQuantiles(DashboardQs()).size(); });
      }
    }
  }
  rec->End(tr.root);
  *compactions = 0;
  for (size_t m = 0; m < nm; ++m) {
    for (const Sketch& s2 : st.shards[m]) *compactions += s2.NumCompactions();
  }
  return s;
}

// --- rungs: registry, + persist, + wire (in process) ------------------------

Request ToRequest(const Workload& w, const Op& op) {
  Request r;
  r.metric = w.metrics[op.metric].name;
  r.values.assign(Values(w, op), Values(w, op) + (op.kind == OpKind::kAppend
                                                      ? op.count
                                                      : perfbench::QueryPoints(op)));
  r.op = op.kind == OpKind::kAppend      ? Opcode::kAppend
         : op.kind == OpKind::kQuantiles ? Opcode::kQuantiles
                                         : Opcode::kRank;
  return r;
}

// What reqd's dispatch does for the ops the workloads send.
Response Dispatch(SketchRegistry* reg, const Request& r, Tracer* tr,
                  uint64_t id) {
  Response resp;
  const SketchRegistry::EnginePtr engine =
      tr->Time("registry.require", id, [&] { return reg->Require(r.metric); });
  if (r.op == Opcode::kAppend) {
    engine->Append(r.values.data(), r.values.size());
    resp.n = engine->AcceptedN();
    engine->MaybeCheckpoint();
  } else if (r.op == Opcode::kQuantiles) {
    resp.values = tr->Time("registry.query", id,
                           [&] { return engine->GetQuantiles(r.values, req::Criterion::kInclusive); });
  } else {
    resp.ranks = tr->Time("registry.query", id,
                          [&] { return engine->GetRanks(r.values, req::Criterion::kInclusive); });
  }
  return resp;
}

// The registry is declared last so it is destroyed first: its engines
// hold the logs the durability manager opened.
struct InProcess {
  std::unique_ptr<req::persist::DurabilityManager> durability;
  SketchRegistry reg;
};

void Populate(const Workload& w, InProcess* p, const std::string& data_dir) {
  if (!data_dir.empty()) {
    std::filesystem::remove_all(data_dir);
    req::persist::DurabilityOptions options;
    options.fsync = req::persist::FsyncPolicy::kNever;
    options.checkpoint_bytes = uint64_t{1} << 40;  // no rotation mid-rung
    p->durability = std::make_unique<req::persist::DurabilityManager>(
        data_dir, options);
    p->durability->RecoverInto(&p->reg);
  }
  for (const MetricDef& m : w.metrics) p->reg.Create(m.name, m.spec);
}

struct WireStats {
  std::vector<double> dispatch_append_ns, dispatch_query_ns;  // per request
};

// kind 0: registry, 1: registry + persist, 2: wire (+ persist when the
// workload is durable).
RungSample RunInProcess(const Workload& w, const LadderInput& in, int kind,
                        const std::string& data_dir, SpanRecorder* rec,
                        std::unique_ptr<InProcess>* keep, WireStats* wire) {
  auto p = std::make_unique<InProcess>();
  const bool durable = kind == 1 || (kind == 2 && w.name == "durable");
  Populate(w, p.get(), durable ? data_dir : "");
  static const char* kRoots[3] = {"rung.registry", "rung.persist", "rung.wire"};
  Tracer tr{rec, rec->Begin(kRoots[kind], -1, 0)};
  std::vector<Request> requests;
  if (kind < 2) {
    requests.reserve(in.ops.size());
    for (const Op& op : in.ops) requests.push_back(ToRequest(w, op));
  }
  req::service::FrameDecoder decoder;
  std::vector<uint8_t> payload, out;
  const int64_t c0 = ThreadCpuNs(), t0 = NowNs();
  for (size_t i = 0; i < in.ops.size(); ++i) {
    if (kind < 2) {
      Dispatch(&p->reg, requests[i], &tr, i);
      continue;
    }
    const int64_t d0 = NowNs();
    const WireFrame f = w.Frame(in.ops[i]);
    const Request request = tr.Time("wire.decode", i, [&] {
      decoder.Feed(f.head, f.head_len);
      if (f.count > 0) {
        decoder.Feed(reinterpret_cast<const uint8_t*>(f.values),
                     sizeof(double) * f.count);
      }
      decoder.Next(&payload);
      return req::service::ParseRequest(payload);
    });
    const Response resp = Dispatch(&p->reg, request, &tr, i);
    tr.Time("wire.encode_response", i, [&] {
      out.clear();
      req::service::AppendResponseFrame(request.op, resp, &out);
      return out.size();
    });
    tr.Time("wire.decode_response", i, [&] {
      payload.assign(out.begin() + 4, out.end());
      return req::service::ParseResponse(request.op, payload).n;
    });
    const double ns = static_cast<double>(NowNs() - d0);
    (request.op == Opcode::kAppend ? wire->dispatch_append_ns
                                   : wire->dispatch_query_ns)
        .push_back(ns);
  }
  RungSample s{static_cast<double>(ThreadCpuNs() - c0),
               static_cast<double>(NowNs() - t0), in.items};
  if (in.probes) {
    for (const MetricDef& m : w.metrics) {
      Request q;
      q.op = Opcode::kQuantiles;
      q.metric = m.name;
      q.values = DashboardQs();
      for (int i = 0; i < kQueryProbesPerMetric; ++i) {
        const int64_t d0 = NowNs();
        Dispatch(&p->reg, q, &tr, 0);
        if (kind == 2) wire->dispatch_query_ns.push_back(static_cast<double>(NowNs() - d0));
      }
    }
  }
  rec->End(tr.root);
  if (keep != nullptr) *keep = std::move(p);
  return s;
}

// --- rungs over sockets -------------------------------------------------------

struct SocketStats {
  std::vector<double> rtt_append_us, rtt_query_us;
  uint64_t frames = 0, deadline = 0, shed = 0;
  int64_t client_cpu_ns = 0;
  double late_p99_us = 0;
};

std::map<std::string, uint64_t> ServerStats(uint16_t port) {
  req::service::ReqClient client;
  client.Connect("127.0.0.1", port);
  std::map<std::string, uint64_t> out;
  for (const auto& [k, v] : client.Stats()) out[k] = v;
  return out;
}

RungSample RunLoopback1(const Workload& w, const LadderInput& in,
                        const RunOptions& opt, SpanRecorder* rec,
                        SocketStats* st) {
  const std::string dir = w.name == "durable" ? opt.work_dir + "/ladder-reqd" : "";
  if (!dir.empty()) std::filesystem::remove_all(dir);
  Server server;
  StartServer(w, opt, dir, &server);
  const auto before = ServerStats(server.child.port());
  req::service::ReqClient client;
  client.Connect("127.0.0.1", server.child.port());
  Tracer tr{rec, rec->Begin("rung.loopback1", -1, 0)};
  const uint64_t s0 = ProcessSchedNs(server.child.pid()).value_or(0);
  const int64_t c0 = ThreadCpuNs(), t0 = NowNs();
  for (size_t i = 0; i < in.ops.size(); ++i) {
    const Op& op = in.ops[i];
    const std::string& name = w.metrics[op.metric].name;
    const int64_t r0 = NowNs();
    tr.Time("client.request", i, [&] {
      if (op.kind == OpKind::kAppend) return client.Append(name, Values(w, op), op.count);
      if (op.kind == OpKind::kQuantiles) {
        return static_cast<uint64_t>(client.GetQuantiles(name, QueryPoints(w, op)).size());
      }
      return static_cast<uint64_t>(client.GetRanks(name, QueryPoints(w, op)).size());
    });
    (op.kind == OpKind::kAppend ? st->rtt_append_us : st->rtt_query_us)
        .push_back(static_cast<double>(NowNs() - r0) / 1e3);
  }
  RungSample s{static_cast<double>(ProcessSchedNs(server.child.pid()).value_or(0) - s0),
               static_cast<double>(NowNs() - t0), in.items};
  st->client_cpu_ns += ThreadCpuNs() - c0;
  if (in.probes) {
    for (const MetricDef& m : w.metrics) {
      for (int i = 0; i < kQueryProbesPerMetric; ++i) {
        const int64_t r0 = NowNs();
        client.GetQuantiles(m.name, DashboardQs());
        st->rtt_query_us.push_back(static_cast<double>(NowNs() - r0) / 1e3);
      }
    }
  }
  rec->End(tr.root);
  const auto after = ServerStats(server.child.port());
  st->frames += after.at("frames_served") - before.at("frames_served");
  st->deadline += after.at("deadline_exceeded") - before.at("deadline_exceeded");
  st->shed += after.at("shed_connections") - before.at("shed_connections");
  if (!dir.empty()) {
    server.child.Kill();
    std::filesystem::remove_all(dir);
  }
  return s;
}

// The workload's own connections and loop shape over the ladder input.
RungSample RunConnections(const Workload& w, const LadderInput& in,
                          const RunOptions& opt, SpanRecorder* spans,
                          SocketStats* st, double* gen_cpu_ns) {
  const std::string dir = w.name == "durable" ? opt.work_dir + "/ladder-reqd" : "";
  if (!dir.empty()) std::filesystem::remove_all(dir);
  Server server;
  StartServer(w, opt, dir, &server);
  RungSample s;
  s.items = in.items;
  if (w.name == "dashboard") {
    const OpenLoop run = RunOpenLoop(w, in.ops, server.child.pid(),
                                     server.child.port(), 0);
    s.cpu_ns = static_cast<double>(run.server_cpu1 - run.server_cpu0);
    s.wall_ns = static_cast<double>(run.end - run.base);
    *gen_cpu_ns = static_cast<double>(run.generator_cpu_ns);
    std::vector<double> late;
    for (size_t i = 0; i < in.ops.size(); ++i) {
      late.push_back(static_cast<double>(run.sent_ns[i] - (run.base + in.ops[i].due_ns)) / 1e3);
    }
    st->late_p99_us = PercentileWithTail(&late, 0.99).value_or(std::nan(""));
    if (spans != nullptr && spans->enabled()) {
      for (size_t i = 0; i < in.ops.size(); ++i) {
        Span sp;
        sp.name = "loadgen.request";
        sp.start_ns = run.base + in.ops[i].due_ns;
        sp.end_ns = run.recv_ns[i];
        sp.request = i;
        spans->Add(sp);
      }
    }
  } else {
    const ClosedLoop loop =
        RunClosedLoop(w, in.lists, server.child.pid(), server.child.port(),
                      /*cycle=*/false, 0, 0, /*check_n=*/w.name == "durable",
                      spans);
    s.cpu_ns = static_cast<double>(loop.server_cpu_ns);
    s.wall_ns = static_cast<double>(loop.window_ns);
    *gen_cpu_ns = static_cast<double>(loop.generator_cpu_ns);
  }
  if (!dir.empty()) {
    server.child.Kill();
    std::filesystem::remove_all(dir);
  }
  return s;
}

// Two threads appending to one plain metric: the contended staging path.
double ContendedAppendNsPerItem(const Workload& w, const LadderInput& in) {
  SketchRegistry reg;
  req::service::MetricSpec spec = w.metrics[0].spec;
  spec.kind = EngineKind::kPlain;
  reg.Create("contended", spec);
  std::vector<const Op*> appends;
  for (const Op& op : in.ops) {
    if (op.kind == OpKind::kAppend) appends.push_back(&op);
  }
  int64_t cpu[2] = {0, 0};
  uint64_t items[2] = {0, 0};
  std::thread threads[2];
  for (int t = 0; t < 2; ++t) {
    threads[t] = std::thread([&, t] {
      const int64_t c0 = ThreadCpuNs();
      for (size_t i = static_cast<size_t>(t); i < appends.size(); i += 2) {
        reg.Require("contended")->Append(Values(w, *appends[i]), appends[i]->count);
        items[t] += appends[i]->count;
      }
      cpu[t] = ThreadCpuNs() - c0;
    });
  }
  for (std::thread& t : threads) t.join();
  return static_cast<double>(cpu[0] + cpu[1]) / static_cast<double>(items[0] + items[1]);
}

uint64_t DirBytes(const std::string& dir, const char* prefix) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file() &&
        e.path().filename().string().rfind(prefix, 0) == 0) {
      bytes += e.file_size();
    }
  }
  return bytes;
}

double MedianOf(const std::vector<RungSample>& samples, bool wall) {
  std::vector<double> v;
  for (const RungSample& s : samples) {
    v.push_back((wall ? s.wall_ns : s.cpu_ns) / static_cast<double>(s.items));
  }
  return Median(v);
}

double SpanMeanNs(const std::map<std::string, SpanTotals>& totals,
                  const std::string& name, bool self) {
  const auto it = totals.find(name);
  if (it == totals.end() || it->second.count == 0) return std::nan("");
  return static_cast<double>(self ? it->second.self_ns : it->second.total_ns) /
         static_cast<double>(it->second.count);
}

}  // namespace

RunResult RunLadder(const Workload& w, const RunOptions& opt) {
  RunResult r;
  const LadderInput in = MakeLadderInput(w);
  SpanRecorder spans(true);
  SpanRecorder off(false);
  enum { kCompactor, kCore, kRegistry, kPersist, kWire, kLoop1, kConns, kRungs };
  static const char* kNames[kRungs] = {"compactor", "core", "registry", "persist",
                                       "wire", "loopback1", "connections"};
  std::vector<RungSample> rung[kRungs];
  std::vector<double> gen_off, gen_on;
  uint64_t compactions = 0, core_compactions = 0;
  WireStats wire;
  SocketStats sock;
  std::unique_ptr<InProcess> persisted;
  const std::string pdir = opt.work_dir + "/ladder-persist";
  for (int round = 0; round < kRounds; ++round) {
    // Spans are kept for the last round only (the earlier ones warm up).
    SpanRecorder* rec = round + 1 == kRounds ? &spans : &off;
    rung[kCompactor].push_back(RunCompactor(w, in, &compactions));
    rung[kCore].push_back(RunCore(w, in, rec, &core_compactions));
    rung[kRegistry].push_back(RunInProcess(w, in, 0, "", rec, nullptr, &wire));
    rung[kPersist].push_back(RunInProcess(
        w, in, 1, pdir, rec, round + 1 == kRounds ? &persisted : nullptr, &wire));
    rung[kWire].push_back(RunInProcess(w, in, 2, pdir + "-wire", rec, nullptr, &wire));
    rung[kLoop1].push_back(RunLoopback1(w, in, opt, rec, &sock));
    double gen = 0;
    rung[kConns].push_back(RunConnections(w, in, opt, nullptr, &sock, &gen));
    gen_off.push_back(gen / static_cast<double>(in.items));
    // The same rung with generator spans on: the tracing overhead.
    SpanRecorder scratch(true);
    RunConnections(w, in, opt, rec == &spans ? &spans : &scratch, &sock, &gen);
    gen_on.push_back(gen / static_cast<double>(in.items));
  }

  // persist: WAL bytes (exact), then recovery and checkpoints on the
  // last round's durable registry.
  const uint64_t wal_bytes = DirBytes(pdir, "wal-");
  uint64_t logged_items = 0;
  for (const MetricDef& m : w.metrics) {
    logged_items += persisted->reg.Require(m.name)->AcceptedN();
  }
  persisted.reset();  // closes the logs, no checkpoint
  double recover_items_per_s = 0;
  std::vector<double> checkpoint_ms;
  {
    InProcess recovered;
    req::persist::DurabilityOptions options;
    options.fsync = req::persist::FsyncPolicy::kNever;
    const int64_t t0 = NowNs();
    recovered.durability =
        std::make_unique<req::persist::DurabilityManager>(pdir, options);
    recovered.durability->RecoverInto(&recovered.reg);
    recover_items_per_s = static_cast<double>(logged_items) /
                          (static_cast<double>(NowNs() - t0) / 1e9);
    size_t done = 0;
    for (const MetricDef& m : w.metrics) {
      auto engine = recovered.reg.Require(m.name);
      if (engine->AcceptedN() == 0 || done++ >= 64) continue;
      const int64_t c0 = NowNs();
      engine->ForceCheckpoint();
      checkpoint_ms.push_back(static_cast<double>(NowNs() - c0) / 1e6);
    }
  }
  std::filesystem::remove_all(pdir);
  std::filesystem::remove_all(pdir + "-wire");

  // wire: client-side request encode per item, per-frame overhead on
  // empty frames, and bytes per item (exact).
  double encode_ns_per_item = 0;
  {
    uint64_t items = 0;
    size_t bytes = 0;  // consumed below so the encode is not optimized out
    const int64_t c0 = ThreadCpuNs();
    for (const Op& op : in.ops) {
      if (op.kind != OpKind::kAppend) continue;
      bytes += EncodeFrame(ToRequest(w, op)).size();
      items += op.count;
    }
    encode_ns_per_item = static_cast<double>(ThreadCpuNs() - c0) / items;
    if (bytes == 0) r.Fail("encoded no APPEND frames");
  }
  double frame_overhead_ns = 0;
  {
    Request ping;
    ping.op = Opcode::kPing;
    const std::vector<uint8_t> frame = EncodeFrame(ping);
    req::service::FrameDecoder decoder;
    std::vector<uint8_t> payload, out;
    Response resp;
    constexpr int kFrames = 200000;
    const int64_t c0 = ThreadCpuNs();
    for (int i = 0; i < kFrames; ++i) {
      decoder.Feed(frame.data(), frame.size());
      decoder.Next(&payload);
      const Request q = req::service::ParseRequest(payload);
      out.clear();
      req::service::AppendResponseFrame(q.op, resp, &out);
    }
    frame_overhead_ns = static_cast<double>(ThreadCpuNs() - c0) / kFrames;
  }
  uint64_t append_bytes = 0;
  for (const Op& op : in.ops) {
    if (op.kind == OpKind::kAppend) append_bytes += w.Frame(op).size();
  }

  // registry footprint per metric after a full ladder replay.
  double bytes_per_metric = 0;
  {
    InProcess p;
    Populate(w, &p, "");
    for (const Op& op : in.ops) {
      if (op.kind == OpKind::kAppend) {
        p.reg.Require(w.metrics[op.metric].name)->Append(Values(w, op), op.count);
      }
    }
    size_t total = 0;
    for (const MetricDef& m : w.metrics) total += p.reg.Require(m.name)->MemoryFootprint();
    bytes_per_metric = static_cast<double>(total) / static_cast<double>(w.metrics.size());
  }
  const double contended = ContendedAppendNsPerItem(w, in);

  // The real workload's reqd CPU per item, for the unattributed remainder
  // (ingest: a short cycle of the actual run; the other workloads' socket
  // rung already is their workload shape).
  double e2e_cpu_per_item = MedianOf(rung[kConns], false);
  if (w.name == "ingest") {
    Server server;
    StartServer(w, opt, "", &server);
    const ClosedLoop loop = RunClosedLoop(
        w, w.conn_ops, server.child.pid(), server.child.port(), true,
        kIngestE2eNs / 4, kIngestE2eNs, false, nullptr);
    e2e_cpu_per_item =
        SummarizeWindows(loop.samples, loop.cpu_marks, loop.window_start)
            .cpu_ns_per_item;
  }

  const auto totals = TotalsByName(spans.spans());
  std::vector<double> cpu(kRungs), wall(kRungs);
  for (int k = 0; k < kRungs; ++k) {
    cpu[k] = MedianOf(rung[k], false);
    wall[k] = MedianOf(rung[k], true);
  }
  const bool durable = w.name == "durable";
  const double below_wire = durable ? cpu[kPersist] : cpu[kRegistry];
  MetricSet& m = r.metrics;
  const double items_total = static_cast<double>(in.items);
  m.Set("core.compact_ns_per_item", cpu[kCompactor], "ns");
  m.Set("core.update_ns_per_item", cpu[kCore], "ns");
  m.Set("core.compactions_per_mitem",
        static_cast<double>(core_compactions) / items_total * 1e6, "count");
  m.Set("core.view_build_us", SpanMeanNs(totals, "core.view_build", false) / 1e3, "us");
  m.Set("core.quantiles_ns", SpanMeanNs(totals, "core.query", false), "ns");
  m.Set("registry.append_ns_per_item", cpu[kRegistry] - cpu[kCore], "ns");
  m.Set("registry.append_contended_ns_per_item", contended, "ns");
  m.Set("registry.require_ns", SpanMeanNs(totals, "registry.require", false), "ns");
  m.Set("registry.query_after_write_us", SpanMeanNs(totals, "registry.query", false) / 1e3, "us");
  m.Set("registry.bytes_per_metric", bytes_per_metric, "bytes");
  m.Set("persist.wal_append_ns_per_item", cpu[kPersist] - cpu[kRegistry], "ns");
  m.Set("persist.wal_bytes_per_item",
        logged_items ? static_cast<double>(wal_bytes) / logged_items : 0, "bytes");
  m.Set("persist.checkpoint_ms", Median(checkpoint_ms), "ms");
  m.Set("persist.recover_items_per_s", recover_items_per_s, "items/s");
  m.Set("wire.encode_ns_per_item", encode_ns_per_item, "ns");
  m.Set("wire.decode_ns_per_item",
        static_cast<double>(totals.count("wire.decode") ? totals.at("wire.decode").total_ns : 0) /
            items_total, "ns");
  m.Set("wire.frame_overhead_ns", frame_overhead_ns, "ns");
  m.Set("wire.bytes_per_item", static_cast<double>(append_bytes) / items_total, "bytes");
  m.Set("reactor.rtt_minus_dispatch_append_us",
        Median(sock.rtt_append_us) - Median(wire.dispatch_append_ns) / 1e3, "us");
  m.Set("reactor.rtt_minus_dispatch_quantiles_us",
        Median(sock.rtt_query_us) - Median(wire.dispatch_query_ns) / 1e3, "us");
  m.Set("reactor.frames_served", static_cast<double>(sock.frames), "count");
  m.Set("reactor.deadline_exceeded", static_cast<double>(sock.deadline), "count");
  m.Set("reactor.shed_connections", static_cast<double>(sock.shed), "count");
  std::vector<double> rtt = sock.rtt_append_us;
  rtt.insert(rtt.end(), sock.rtt_query_us.begin(), sock.rtt_query_us.end());
  m.Set("client.rtt_us", Median(rtt), "us");
  m.Set("loadgen.late_p99_us", sock.late_p99_us, "us");
  m.Set("loadgen.cpu_ns_per_item", Median(gen_off), "ns");
  m.Set("trace.overhead_pct", 100.0 * (Median(gen_on) / Median(gen_off) - 1.0), "%");
  for (int k = 0; k < kRungs; ++k) {
    m.Set(std::string("ladder.") + kNames[k] + "_cpu_ns_per_item", cpu[k], "ns");
    m.Set(std::string("ladder.") + kNames[k] + "_wall_ns_per_item", wall[k], "ns");
  }
  // Attribution of reqd CPU per item, layer by layer; the rungs telescope
  // to the socket rung, and what the full run costs beyond it is left
  // unattributed.
  m.Set("attrib.core_ns_per_item", cpu[kCore], "ns");
  m.Set("attrib.registry_ns_per_item", cpu[kRegistry] - cpu[kCore], "ns");
  m.Set("attrib.persist_ns_per_item", durable ? cpu[kPersist] - cpu[kRegistry] : 0, "ns");
  m.Set("attrib.wire_ns_per_item", cpu[kWire] - below_wire, "ns");
  m.Set("attrib.reactor_ns_per_item", cpu[kLoop1] - cpu[kWire], "ns");
  m.Set("attrib.connections_ns_per_item", cpu[kConns] - cpu[kLoop1], "ns");
  m.Set("attrib.unattributed_ns_per_item", e2e_cpu_per_item - cpu[kConns], "ns");
  m.Set("attrib.e2e_server_cpu_ns_per_item", e2e_cpu_per_item, "ns");

  char note[256];
  std::snprintf(note, sizeof(note),
                "ladder: %zu requests, %llu items, %d interleaved rounds; "
                "standalone compactions %llu",
                in.ops.size(), static_cast<unsigned long long>(in.items), kRounds,
                static_cast<unsigned long long>(compactions));
  r.notes.push_back(note);
  for (int k = 0; k < kRungs; ++k) {
    std::snprintf(note, sizeof(note), "rung %-11s cpu %9.1f ns/item  wall %9.1f ns/item",
                  kNames[k], cpu[k], wall[k]);
    r.notes.push_back(note);
  }
  const std::string span_path = opt.work_dir + "/spans.jsonl";
  if (!spans.WriteJsonl(span_path)) r.Fail("cannot write " + span_path);
  r.notes.push_back("spans: " + std::to_string(spans.spans().size()) + " written to " +
                    span_path);
  r.attempted = in.ops.size() * kRungs * kRounds;
  return r;
}

}  // namespace perfbench
