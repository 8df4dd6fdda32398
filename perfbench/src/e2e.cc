// End-to-end runs: reqd as a child process, driven over loopback with
// the workload's pre-generated frames, then checked against in-process
// replays and exact ranks.
#include <poll.h>
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "core/req_serde.h"
#include "core/req_sketch.h"
#include "procfs.h"
#include "window/windowed_req_sketch.h"

namespace perfbench {

using req::service::Opcode;
using req::service::Request;
using req::service::Response;
using Sketch = req::ReqSketch<double>;
using Window = req::window::WindowedReqSketch<double>;

namespace {

// E7 measured the relative rank-error sigma at about 0.1 / k_base at
// every k it sweeps (sigma*k between 0.06 and 0.1); the ingest gate
// allows six of those sigmas for the largest error over its grid.
constexpr double kE7SigmaTimesK = 0.1;
constexpr double kEnvelopeSigmas = 6.0;

// Set-ups and restarts per run whose median is reported: many when they
// take milliseconds (memory-only), few when they replay a data directory.
constexpr int kSetupReps = 5;
constexpr int kFastSetupReps = 15;
constexpr int kRestartReps = 3;
constexpr int kFastRestartReps = 15;
constexpr int64_t kIngestWarmNs = 500000000;
constexpr int64_t kSpinBelowNs = 200000;

Response RoundTrip(RawConn& conn, const Request& request) {
  conn.SendBytes(EncodeFrame(request));
  std::vector<uint8_t> payload;
  conn.Receive(&payload);
  return req::service::ParseResponse(request.op, payload);
}

std::vector<double> ServedQuantiles(RawConn& conn, const std::string& metric,
                                    const std::vector<double>& qs,
                                    RunResult* r) {
  Request q;
  q.op = Opcode::kQuantiles;
  q.metric = metric;
  q.values = qs;
  ++r->attempted;
  const Response resp = RoundTrip(conn, q);
  if (resp.status != req::service::Status::kOk ||
      resp.values.size() != qs.size()) {
    r->Fail("QUANTILES on " + metric + " refused: " + resp.error);
    return {};
  }
  return resp.values;
}

// Percentile under the ten-beyond rule; a missing one fails the run.
double Pct(std::vector<double> samples, double p, const std::string& what,
           RunResult* r) {
  const size_t n = samples.size();
  const auto v = PercentileWithTail(&samples, p);
  char note[160];
  std::snprintf(note, sizeof(note), "%s: %zu samples", what.c_str(), n);
  r->notes.push_back(note);
  if (!v) {
    r->Fail("too few samples for " + what);
    return std::nan("");
  }
  return *v;
}

// Median set-up time over kSetupReps fresh starts. The last server is
// handed back through `keep` when given (memory-only workloads measure
// on it); durable set-ups each get, and then remove, a fresh directory.
double MedianSetup(const Workload& w, const RunOptions& opt,
                   const std::string& data_dir_prefix,
                   std::unique_ptr<Server>* keep, int reps) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    std::string dir;
    if (!data_dir_prefix.empty()) {
      dir = data_dir_prefix + "-setup" + std::to_string(i);
      std::filesystem::remove_all(dir);
    }
    auto s = std::make_unique<Server>();
    StartServer(w, opt, dir, s.get());
    samples.push_back(s->setup_s);
    if (i + 1 == reps && keep != nullptr) {
      *keep = std::move(s);
      break;
    }
    s->child.Kill();
    if (!dir.empty()) std::filesystem::remove_all(dir);
  }
  return Median(samples);
}

// SIGKILL, respawn on the same state, and time until the first answered
// query that shows every acked item (memory-only: the first PING).
double TimeRestart(const Workload& w, const RunOptions& opt,
                   const std::string& data_dir,
                   const std::vector<uint64_t>& acked, ReqdChild* child,
                   RunResult* r) {
  std::vector<uint8_t> probe;
  for (const MetricDef& m : w.metrics) {
    if (data_dir.empty()) break;
    Request f;
    f.op = Opcode::kFlush;
    f.metric = m.name;
    const std::vector<uint8_t> frame = EncodeFrame(f);
    probe.insert(probe.end(), frame.begin(), frame.end());
  }
  if (data_dir.empty()) {
    Request ping;
    ping.op = Opcode::kPing;
    probe = EncodeFrame(ping);
  }
  child->Kill();
  const int64_t t0 = NowNs();
  child->Start(opt.reqd, ReqdArgs(data_dir));
  RawConn conn;
  conn.Connect(child->port());
  conn.SendBytes(probe);
  std::vector<uint8_t> payload;
  const size_t answers = data_dir.empty() ? 1 : w.metrics.size();
  for (size_t i = 0; i < answers; ++i) {
    conn.Receive(&payload);
    ++r->attempted;
    if (payload.empty() || payload[0] != 0) {
      r->Fail("restart probe refused");
      continue;
    }
    if (!data_dir.empty()) {
      uint64_t n = 0;
      if (payload.size() == 9) std::memcpy(&n, payload.data() + 1, 8);
      if (n < acked[i]) {
        r->Fail("recovered n " + std::to_string(n) + " < acked " +
                std::to_string(acked[i]) + " on " + w.metrics[i].name);
      }
    }
  }
  return static_cast<double>(NowNs() - t0) / 1e9;
}

// Closed-loop QUANTILES round-robin over the workload's metrics.
std::vector<double> RunQueryPhase(const Workload& w, uint16_t port,
                                  RunResult* r) {
  std::vector<std::vector<uint8_t>> frames;
  for (const MetricDef& m : w.metrics) {
    Request q;
    q.op = Opcode::kQuantiles;
    q.metric = m.name;
    q.values = DashboardQs();
    frames.push_back(EncodeFrame(q));
  }
  RawConn conn;
  conn.Connect(port);
  std::vector<double> lat;
  lat.reserve(kQueryPhaseRequests);
  std::vector<uint8_t> payload;
  for (uint32_t i = 0; i < kQueryPhaseRequests; ++i) {
    const int64_t ts = NowNs();
    conn.SendBytes(frames[i % frames.size()]);
    conn.Receive(&payload);
    lat.push_back(static_cast<double>(NowNs() - ts) / 1e3);
    ++r->attempted;
    if (payload.empty() || payload[0] != 0) r->Fail("query refused");
  }
  return lat;
}

// p99 as the median of per-window p99s (each window holding enough
// samples for one); fails the run when no window does.
double WindowedP99(const std::vector<double>& p99s, const std::string& what,
                   RunResult* r) {
  r->notes.push_back(what + ": median of " + std::to_string(p99s.size()) +
                     " per-window p99s");
  if (p99s.empty()) {
    r->Fail("too few samples for " + what);
    return std::nan("");
  }
  return Median(p99s);
}

// p99 of consecutive chunks of `chunk` samples, in arrival order.
std::vector<double> ChunkP99s(const std::vector<double>& lat, size_t chunk) {
  std::vector<double> p99s;
  for (size_t i = 0; i + chunk <= lat.size(); i += chunk) {
    std::vector<double> c(lat.begin() + static_cast<ptrdiff_t>(i),
                          lat.begin() + static_cast<ptrdiff_t>(i + chunk));
    if (const auto p = PercentileWithTail(&c, 0.99)) p99s.push_back(*p);
  }
  return p99s;
}

struct Latencies {
  std::vector<double> append_us, append_p99s, query_us, query_p99s;
};

void SetCommon(RunResult* r, double setup_s, const WindowStats& ws,
               const Latencies& lat, double rank_err, double recovery_s,
               double rss_bytes) {
  MetricSet& m = r->metrics;
  m.Set("setup_s", setup_s, "s");
  m.Set("ingest_items_per_s", ws.items_per_s, "items/s");
  m.Set("server_cpu_ns_per_item", ws.cpu_ns_per_item, "ns");
  m.Set("server_cpu_us_per_req", ws.cpu_us_per_req, "us");
  r->notes.push_back("throughput and CPU: medians over " +
                     std::to_string(ws.windows) + " one-second windows");
  m.Set("append_p50_us", Pct(lat.append_us, 0.50, "append_p50_us", r), "us");
  m.Set("append_p99_us", WindowedP99(lat.append_p99s, "append_p99_us", r), "us");
  m.Set("query_p50_us", Pct(lat.query_us, 0.50, "query_p50_us", r), "us");
  m.Set("query_p99_us", WindowedP99(lat.query_p99s, "query_p99_us", r), "us");
  m.Set("rank_rel_err_max", rank_err, "ratio");
  m.Set("recovery_s", recovery_s, "s");
  m.Set("server_rss_mib", rss_bytes / (1024.0 * 1024.0), "MiB");
}

double PeakRss(pid_t pid) {
  const auto rss = ProcessPeakRssBytes(pid);
  return rss ? static_cast<double>(*rss) : std::nan("");
}

void NoteGenerator(RunResult* r, int64_t gen_cpu_ns, uint64_t items,
                   double window_s) {
  char note[200];
  std::snprintf(note, sizeof(note),
                "generator: %.1f ns CPU/item, %.1f%% of one core",
                items ? static_cast<double>(gen_cpu_ns) / items : 0.0,
                window_s > 0 ? 100.0 * gen_cpu_ns / 1e9 / window_s : 0.0);
  r->notes.push_back(note);
}

// --- ingest ----------------------------------------------------------------

void RunIngest(const Workload& w, const RunOptions& opt, RunResult* r) {
  std::unique_ptr<Server> kept;
  const double setup_s = MedianSetup(w, opt, "", &kept, kFastSetupReps);
  Server& server = *kept;
  const ClosedLoop loop = RunClosedLoop(
      w, w.conn_ops, server.child.pid(), server.child.port(), /*cycle=*/true,
      kIngestWarmNs, static_cast<int64_t>(opt.seconds * 1e9),
      /*check_n=*/false, nullptr);
  r->attempted += loop.total_requests;
  for (uint64_t i = 0; i < loop.failed; ++i) r->Fail("APPEND refused");
  NoteGenerator(r, loop.generator_cpu_ns, loop.total_items,
                static_cast<double>(loop.window_ns + kIngestWarmNs) / 1e9);

  // Gate 1: FLUSH n equals the items sent to each metric.
  RawConn conn;
  conn.Connect(server.child.port());
  for (size_t m = 0; m < w.metrics.size(); ++m) {
    Request f;
    f.op = Opcode::kFlush;
    f.metric = w.metrics[m].name;
    ++r->attempted;
    const Response resp = RoundTrip(conn, f);
    if (resp.status != req::service::Status::kOk ||
        resp.n != loop.sent_items[m]) {
      r->Fail("FLUSH n " + std::to_string(resp.n) + " != sent " +
              std::to_string(loop.sent_items[m]) + " on " +
              w.metrics[m].name);
    }
  }
  // Gate 2: high-end rank error inside the E7-calibrated envelope. Each
  // pool batch always goes to the same metric, so a metric's stream is
  // its batches with known multiplicities.
  std::vector<double> errs;
  for (size_t m = 0; m < w.metrics.size(); ++m) {
    std::vector<std::pair<double, uint64_t>> items;
    // Per connection, requests are sent in list order, so the number of
    // acked requests fixes each batch's multiplicity.
    for (int c = 0; c < w.connections; ++c) {
      const std::vector<Op>& ops = w.conn_ops[c];
      const uint64_t done = loop.sent_per_conn[c];
      for (size_t b = 0; b < ops.size(); ++b) {
        if (ops[b].metric != m) continue;
        const uint64_t mult = done / ops.size() + (b < done % ops.size());
        if (mult == 0) continue;
        const double* v = w.values.data() + ops[b].value_off;
        for (uint32_t i = 0; i < ops[b].count; ++i) items.emplace_back(v[i], mult);
      }
    }
    ExactStream exact;
    exact.Build(std::move(items));
    const std::vector<double> grid = HighRankGrid(exact.n());
    const std::vector<double> served =
        ServedQuantiles(conn, w.metrics[m].name, grid, r);
    if (served.size() != grid.size()) continue;
    errs.push_back(MaxHighRankRelError(exact, grid, served));
  }
  const double envelope =
      kEnvelopeSigmas * kE7SigmaTimesK / w.metrics[0].spec.base.k_base;
  const double err_max = errs.empty() ? 0 : *std::max_element(errs.begin(), errs.end());
  char note[160];
  std::snprintf(note, sizeof(note),
                "rank error: max %.5f over 4 metrics x grid, envelope %.5f",
                err_max, envelope);
  r->notes.push_back(note);
  if (err_max > envelope) r->Fail("high-rank error outside the envelope");

  Latencies lat;
  lat.append_us = loop.append_us;
  lat.append_p99s = WindowP99s(loop.samples, loop.window_start,
                               loop.cpu_marks.size() - 1);
  lat.query_us = RunQueryPhase(w, server.child.port(), r);
  lat.query_p99s = ChunkP99s(lat.query_us, kP99Samples);
  const double rss = PeakRss(server.child.pid());
  std::vector<double> restarts;
  for (int i = 0; i < kFastRestartReps; ++i) {
    restarts.push_back(TimeRestart(w, opt, "", {}, &server.child, r));
  }
  SetCommon(r, setup_s,
            SummarizeWindows(loop.samples, loop.cpu_marks, loop.window_start),
            lat, Mean(errs), Median(restarts), rss);
}

// --- durable ---------------------------------------------------------------

void RunDurable(const Workload& w, const RunOptions& opt, RunResult* r) {
  std::vector<double> setup, items_per_s, cpu_item, cpu_req, recovery, rss;
  Latencies lat;
  std::vector<double> errs;
  const int64_t budget_ns = static_cast<int64_t>(opt.seconds * 1e9);
  int64_t measured_ns = 0;
  for (int cycle = 0; cycle == 0 || measured_ns < budget_ns; ++cycle) {
    const std::string dir =
        opt.work_dir + "/durable-data" + std::to_string(cycle);
    std::filesystem::remove_all(dir);
    // Start from a clean page cache: write back whatever earlier runs
    // left dirty, so it is not flushed during this one.
    sync();
    setup.push_back(MedianSetup(w, opt, dir, nullptr, kSetupReps));
    Server server;
    StartServer(w, opt, dir, &server);
    setup.push_back(server.setup_s);
    const ClosedLoop loop =
        RunClosedLoop(w, w.conn_ops, server.child.pid(), server.child.port(),
                      /*cycle=*/false, 0, 0, /*check_n=*/true, nullptr);
    measured_ns += loop.window_ns;
    r->attempted += loop.total_requests;
    for (uint64_t i = 0; i < loop.failed; ++i) r->Fail("APPEND refused or n mismatch");
    const double window_s = static_cast<double>(loop.window_ns) / 1e9;
    NoteGenerator(r, loop.generator_cpu_ns, loop.total_items, window_s);
    const WindowStats ws =
        SummarizeWindows(loop.samples, loop.cpu_marks, loop.window_start);
    items_per_s.push_back(ws.items_per_s);
    cpu_item.push_back(ws.cpu_ns_per_item);
    cpu_req.push_back(ws.cpu_us_per_req);
    lat.append_us.insert(lat.append_us.end(), loop.append_us.begin(),
                         loop.append_us.end());
    const std::vector<double> p99s = WindowP99s(
        loop.samples, loop.window_start, loop.cpu_marks.size() - 1);
    lat.append_p99s.insert(lat.append_p99s.end(), p99s.begin(), p99s.end());
    const std::vector<double> q = RunQueryPhase(w, server.child.port(), r);
    lat.query_us.insert(lat.query_us.end(), q.begin(), q.end());
    const std::vector<double> qp99s = ChunkP99s(q, kP99Samples);
    lat.query_p99s.insert(lat.query_p99s.end(), qp99s.begin(), qp99s.end());
    rss.push_back(PeakRss(server.child.pid()));
    for (int i = 0; i < kRestartReps; ++i) {
      recovery.push_back(
          TimeRestart(w, opt, dir, loop.sent_items, &server.child, r));
    }
    // Gates on the recovered server: SNAPSHOT bytes equal an in-process
    // sketch fed the acked stream, and high-end rank error vs exact.
    RawConn conn;
    conn.Connect(server.child.port());
    for (size_t m = 0; m < w.metrics.size(); ++m) {
      const MetricDef& def = w.metrics[m];
      Sketch sketch(def.spec.base);
      std::vector<std::pair<double, uint64_t>> items;
      for (uint32_t i = 0; i < kDurableBatchesPerMetric; ++i) {
        const double* v =
            w.values.data() +
            uint64_t{(m * 64 + i) % kDurablePoolBatches} * kDurableBatch;
        sketch.Update(v, kDurableBatch);
        for (uint32_t j = 0; j < kDurableBatch; ++j) items.emplace_back(v[j], 1);
      }
      std::vector<uint8_t> expected{
          static_cast<uint8_t>(req::service::EngineKind::kPlain)};
      const std::vector<uint8_t> bytes = req::SerializeSketch(sketch);
      expected.insert(expected.end(), bytes.begin(), bytes.end());
      Request snap;
      snap.op = Opcode::kSnapshot;
      snap.metric = def.name;
      ++r->attempted;
      const Response resp = RoundTrip(conn, snap);
      if (resp.status != req::service::Status::kOk || resp.blob != expected) {
        r->Fail("SNAPSHOT of " + def.name + " differs from in-process");
      }
      ExactStream exact;
      exact.Build(std::move(items));
      const std::vector<double> grid = HighRankGrid(exact.n());
      const std::vector<double> served = ServedQuantiles(conn, def.name, grid, r);
      if (served.size() == grid.size()) {
        errs.push_back(MaxHighRankRelError(exact, grid, served));
      }
    }
    server.child.Kill();
    std::filesystem::remove_all(dir);
  }
  r->notes.push_back("durable cycles: " + std::to_string(items_per_s.size()));
  WindowStats ws;
  ws.items_per_s = Median(items_per_s);
  ws.cpu_ns_per_item = Median(cpu_item);
  ws.cpu_us_per_req = Median(cpu_req);
  ws.windows = lat.append_p99s.size();
  SetCommon(r, Median(setup), ws, lat, Mean(errs), Median(recovery),
            Median(rss));
}

// --- dashboard -------------------------------------------------------------

}  // namespace

struct OpenLoopConn {
  RawConn conn;
  std::vector<uint8_t> out;
  size_t out_off = 0;
  std::deque<uint32_t> inflight;
};

// Open loop over `ops` (sorted by due time): one thread sends each frame
// when it is due on its connection's pipeline, whatever is in flight,
// and matches answers in order per connection.
OpenLoop RunOpenLoop(const Workload& w, const std::vector<Op>& ops, pid_t pid,
                     uint16_t port, int64_t warm_ns) {
  const size_t n_ops = ops.size();
  OpenLoop run;
  std::vector<int64_t>& recv_ns = run.recv_ns;
  std::vector<int64_t>& sent_ns = run.sent_ns;
  std::vector<uint8_t>& status = run.status;
  std::vector<uint64_t>& ack_n = run.ack_n;
  recv_ns.assign(n_ops, 0);
  sent_ns.assign(n_ops, 0);
  status.assign(n_ops, 0xff);
  ack_n.assign(n_ops, 0);
  std::vector<OpenLoopConn> conns(static_cast<size_t>(w.connections));
  for (OpenLoopConn& c : conns) {
    c.conn.Connect(port);
    c.conn.SetNonBlocking();
    c.out.reserve(1 << 20);
  }
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  const int64_t base = NowNs() + 5000000;
  const int64_t m_start = base + warm_ns;
  uint64_t cpu0 = 0;
  bool cpu0_taken = false;
  int64_t next_mark = 0;
  const int64_t gen0 = ThreadCpuNs();
  size_t next = 0;
  size_t done = 0;
  std::vector<uint8_t> payload;
  while (done < n_ops) {
    int64_t now = NowNs();
    if (!cpu0_taken && now >= m_start) {
      cpu0 = ProcessSchedNs(pid).value_or(0);
      cpu0_taken = true;
      run.cpu_marks.push_back(cpu0);
      next_mark = m_start + kWindowNs;
    }
    if (cpu0_taken && now >= next_mark) {
      run.cpu_marks.push_back(ProcessSchedNs(pid).value_or(0));
      next_mark += kWindowNs;
    }
    while (next < n_ops && base + ops[next].due_ns <= now) {
      const Op& op = ops[next];
      OpenLoopConn& c = conns[op.conn];
      const WireFrame f = w.Frame(op);
      c.out.insert(c.out.end(), f.head, f.head + f.head_len);
      if (f.count > 0) {
        const uint8_t* v = reinterpret_cast<const uint8_t*>(f.values);
        c.out.insert(c.out.end(), v, v + sizeof(double) * f.count);
      }
      c.inflight.push_back(static_cast<uint32_t>(next));
      sent_ns[next] = now;
      ++next;
    }
    pollfd fds[8];
    for (size_t i = 0; i < conns.size(); ++i) {
      OpenLoopConn& c = conns[i];
      if (c.out_off < c.out.size()) {
        const ssize_t sent =
            send(c.conn.fd(), c.out.data() + c.out_off, c.out.size() - c.out_off,
                 MSG_NOSIGNAL | MSG_DONTWAIT);
        if (sent > 0) c.out_off += static_cast<size_t>(sent);
        if (sent < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
          throw std::runtime_error("send to reqd failed");
        }
        if (c.out_off == c.out.size()) {
          c.out.clear();
          c.out_off = 0;
        }
      }
      fds[i].fd = c.conn.fd();
      fds[i].events = static_cast<short>(
          POLLIN | (c.out_off < c.out.size() ? POLLOUT : 0));
      fds[i].revents = 0;
    }
    // Sleep only when the next send is far off: waking from a timed
    // sleep on this VM can take hundreds of microseconds, so short gaps
    // are spun through (ppoll with a zero timeout) to keep sends on time.
    int64_t wait_ns = 100000000;
    if (next < n_ops) {
      wait_ns = base + ops[next].due_ns - NowNs();
      wait_ns = wait_ns > kSpinBelowNs ? wait_ns - kSpinBelowNs : 0;
    }
    timespec to{static_cast<time_t>(wait_ns / 1000000000),
                static_cast<long>(wait_ns % 1000000000)};
    ppoll(fds, conns.size(), &to, nullptr);
    for (size_t i = 0; i < conns.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      OpenLoopConn& c = conns[i];
      if (!c.conn.ReadSome(/*blocking=*/false)) {
        throw std::runtime_error("reqd closed a dashboard connection");
      }
      while (c.conn.Next(&payload)) {
        if (c.inflight.empty()) throw std::runtime_error("unsolicited frame");
        const uint32_t idx = c.inflight.front();
        c.inflight.pop_front();
        recv_ns[idx] = NowNs();
        status[idx] = payload.empty() ? 0xfe : payload[0];
        if (ops[idx].kind == OpKind::kAppend) {
          if (payload.size() == 9) std::memcpy(&ack_n[idx], payload.data() + 1, 8);
        } else {
          run.answers.emplace(idx, payload);
        }
        ++done;
      }
    }
  }
  run.server_cpu1 = ProcessSchedNs(pid).value_or(0);
  run.end = NowNs();
  run.generator_cpu_ns = ThreadCpuNs() - gen0;
  run.server_cpu0 = cpu0;
  run.base = base;
  return run;

}

namespace {

void RunDashboard(const Workload& w, const RunOptions& opt, RunResult* r) {
  std::unique_ptr<Server> kept;
  const double setup_s = MedianSetup(w, opt, "", &kept, kSetupReps);
  Server& server = *kept;
  const pid_t pid = server.child.pid();
  const std::vector<Op>& ops = w.conn_ops[0];
  const size_t n_ops = ops.size();
  const int64_t warm_ns = static_cast<int64_t>(kDashWarmupS * 1e9);
  OpenLoop run = RunOpenLoop(w, ops, pid, server.child.port(), warm_ns);
  const int64_t base = run.base;
  const int64_t m_start = base + warm_ns;
  const int64_t end = run.end;
  const int64_t gen_cpu = run.generator_cpu_ns;
  const std::vector<int64_t>& recv_ns = run.recv_ns;
  const std::vector<int64_t>& sent_ns = run.sent_ns;
  const std::vector<uint8_t>& status = run.status;
  const std::vector<uint64_t>& ack_n = run.ack_n;
  const auto& answers = run.answers;
  r->attempted += n_ops;

  std::vector<double> append_us, query_us, late_us;
  std::vector<ReqSample> all, appends, queries;
  uint64_t total_items = 0;
  for (size_t i = 0; i < n_ops; ++i) {
    const Op& op = ops[i];
    total_items += op.count;
    if (base + op.due_ns < m_start) continue;
    const double lat = static_cast<double>(recv_ns[i] - (base + op.due_ns)) / 1e3;
    late_us.push_back(static_cast<double>(sent_ns[i] - (base + op.due_ns)) / 1e3);
    const ReqSample sample{recv_ns[i], lat, op.count};
    all.push_back(sample);
    if (op.kind == OpKind::kAppend) {
      append_us.push_back(lat);
      appends.push_back(sample);
    }
    if (op.kind == OpKind::kQuantiles) {
      query_us.push_back(lat);
      queries.push_back(sample);
    }
  }

  NoteGenerator(r, gen_cpu, total_items,
                static_cast<double>(end - base) / 1e9);
  {
    std::vector<double> late = late_us;
    const auto p99 = PercentileWithTail(&late, 0.99);
    char note[160];
    std::snprintf(note, sizeof(note),
                  "generator lateness p99: %.1f us over %zu sends",
                  p99.value_or(std::nan("")), late_us.size());
    r->notes.push_back(note);
  }

  // Gate: every answer equals an in-process replay of the metric's acked
  // stream, bit for bit (plain: ReqSketch; windowed: WindowedReqSketch).
  std::vector<std::unique_ptr<Sketch>> plain(w.metrics.size());
  std::vector<std::unique_ptr<Window>> windowed(w.metrics.size());
  std::vector<uint64_t> n(w.metrics.size(), 0);
  for (size_t m = 0; m < w.metrics.size(); ++m) {
    // The spec as reqd parses it from the CREATE frame.
    Request create;
    create.op = Opcode::kCreate;
    create.metric = w.metrics[m].name;
    create.spec = w.metrics[m].spec;
    const req::service::MetricSpec spec =
        req::service::ParseRequest(req::service::EncodeRequest(create)).spec;
    if (spec.kind == req::service::EngineKind::kWindowed) {
      req::window::WindowedReqConfig config;
      config.num_buckets = spec.num_buckets;
      config.bucket_items = spec.bucket_items;
      config.base = spec.base;
      windowed[m] = std::make_unique<Window>(config);
    } else {
      plain[m] = std::make_unique<Sketch>(spec.base);
    }
  }
  uint64_t mismatches = 0;
  for (size_t i = 0; i < n_ops; ++i) {
    const Op& op = ops[i];
    if (status[i] != 0) {
      r->Fail("request refused with status " + std::to_string(status[i]));
      continue;
    }
    const double* v = w.values.data() + op.value_off;
    if (op.kind == OpKind::kAppend) {
      if (plain[op.metric]) {
        plain[op.metric]->Update(v, op.count);
      } else {
        windowed[op.metric]->Update(v, op.count);
      }
      n[op.metric] += op.count;
      if (ack_n[i] != n[op.metric]) r->Fail("APPEND ack n mismatch");
      continue;
    }
    Sketch snap = plain[op.metric] ? *plain[op.metric]
                                   : windowed[op.metric]->MergedSnapshot();
    snap.PrepareSortedView();
    const std::vector<double> points(v, v + QueryPoints(op));
    const auto it = answers.find(static_cast<uint32_t>(i));
    bool same = false;
    if (op.kind == OpKind::kQuantiles) {
      const Response resp =
          req::service::ParseResponse(Opcode::kQuantiles, it->second);
      const std::vector<double> expected = snap.GetQuantiles(points);
      same = resp.values.size() == expected.size() &&
             std::memcmp(resp.values.data(), expected.data(),
                         sizeof(double) * expected.size()) == 0;
    } else {
      const Response resp = req::service::ParseResponse(Opcode::kRank, it->second);
      same = resp.ranks == snap.GetRanks(points);
    }
    if (!same) {
      ++mismatches;
      r->Fail("served answer differs from in-process replay on " +
              w.metrics[op.metric].name);
    }
  }
  // Working set: the in-process replay holds the same sketches reqd does.
  size_t bytes = 0;
  for (size_t m = 0; m < w.metrics.size(); ++m) {
    bytes += plain[m] ? plain[m]->MemoryBytes() : windowed[m]->MemoryBytes();
  }
  char note[200];
  std::snprintf(note, sizeof(note),
                "working set: %.1f MiB of sketches over %zu metrics; %llu "
                "answers checked bit-exact, %llu mismatches",
                bytes / (1024.0 * 1024.0), w.metrics.size(),
                static_cast<unsigned long long>(answers.size()),
                static_cast<unsigned long long>(mismatches));
  r->notes.push_back(note);

  // Accuracy: the 64 busiest plain metrics against exact ranks.
  std::vector<uint32_t> busiest;
  for (uint32_t m = 0; m < w.metrics.size(); ++m) {
    if (plain[m] && n[m] >= 1000) busiest.push_back(m);
  }
  std::sort(busiest.begin(), busiest.end(),
            [&](uint32_t a, uint32_t b) { return n[a] > n[b]; });
  if (busiest.size() > 64) busiest.resize(64);
  std::vector<std::vector<std::pair<double, uint64_t>>> streams(w.metrics.size());
  for (const Op& op : ops) {
    if (op.kind != OpKind::kAppend || !plain[op.metric] || n[op.metric] < 1000) continue;
    const double* v = w.values.data() + op.value_off;
    for (uint32_t j = 0; j < op.count; ++j) streams[op.metric].emplace_back(v[j], 1);
  }
  RawConn conn;
  conn.Connect(server.child.port());
  std::vector<double> errs;
  for (uint32_t m : busiest) {
    ExactStream exact;
    exact.Build(std::move(streams[m]));
    const std::vector<double> grid = HighRankGrid(exact.n());
    const std::vector<double> served =
        ServedQuantiles(conn, w.metrics[m].name, grid, r);
    if (served.size() == grid.size()) {
      errs.push_back(MaxHighRankRelError(exact, grid, served));
    }
  }
  const double rss = PeakRss(pid);
  std::vector<double> restarts;
  for (int i = 0; i < kFastRestartReps; ++i) {
    restarts.push_back(TimeRestart(w, opt, "", {}, &server.child, r));
  }
  const double query_p99 = Median(WindowP99s(queries, m_start, run.cpu_marks.size() - 1));
  std::snprintf(note, sizeof(note),
                "offered %.0f req/s; query p99 %.1f us vs limit %.0f us: %s",
                kDashRate, query_p99, kDashQueryP99LimitUs,
                query_p99 <= kDashQueryP99LimitUs ? "met" : "MISSED");
  r->notes.push_back(note);
  const size_t windows = run.cpu_marks.size() - 1;
  Latencies lat;
  lat.append_us = append_us;
  lat.append_p99s = WindowP99s(appends, m_start, windows);
  lat.query_us = query_us;
  lat.query_p99s = WindowP99s(queries, m_start, windows);
  SetCommon(r, setup_s, SummarizeWindows(all, run.cpu_marks, m_start), lat,
            Mean(errs), Median(restarts), rss);
}

}  // namespace

std::vector<std::string> ReqdArgs(const std::string& data_dir) {
  std::vector<std::string> args{"--port", "0", "--workers", "2"};
  if (!data_dir.empty()) {
    args.push_back("--data-dir");
    args.push_back(data_dir);
  }
  return args;
}

void StartServer(const Workload& w, const RunOptions& opt,
                 const std::string& data_dir, Server* server) {
  const std::vector<uint8_t> frames = w.SetupFrames();
  const int64_t t0 = NowNs();
  server->child.Start(opt.reqd, ReqdArgs(data_dir));
  RawConn conn;
  conn.Connect(server->child.port());
  conn.SendBytes(frames);
  std::vector<uint8_t> payload;
  for (size_t i = 0; i <= w.metrics.size(); ++i) {
    conn.Receive(&payload);
    if (payload.empty() || payload[0] != 0) {
      throw std::runtime_error("reqd refused a set-up request");
    }
  }
  server->setup_s = static_cast<double>(NowNs() - t0) / 1e9;
}

ClosedLoop RunClosedLoop(const Workload& w,
                         const std::vector<std::vector<Op>>& lists,
                         pid_t server_pid, uint16_t port, bool cycle,
                         int64_t warm_ns, int64_t measure_ns, bool check_n,
                         SpanRecorder* spans) {
  const size_t nc = lists.size();
  struct PerThread {
    std::vector<double> lat;
    uint64_t items = 0, reqs = 0;
    uint64_t acked = 0, failed = 0;
    int64_t cpu = 0, last_recv = 0;
    std::vector<uint64_t> sent;
    std::vector<ReqSample> samples;
    SpanRecorder spans;
  };
  std::vector<PerThread> pt(nc);
  std::vector<RawConn> conns(nc);
  for (size_t c = 0; c < nc; ++c) {
    conns[c].Connect(port);
    pt[c].sent.assign(w.metrics.size(), 0);
    pt[c].spans = SpanRecorder(spans != nullptr && spans->enabled());
    pt[c].lat.reserve(1 << 20);
  }
  std::atomic<bool> stop{false};
  std::atomic<size_t> finished{0};
  const int64_t start = NowNs() + 2000000;
  const int64_t m_start = start + warm_ns;
  const int64_t m_end = cycle ? m_start + measure_ns : INT64_MAX;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < nc; ++c) {
    threads.emplace_back([&, c] {
      PerThread& t = pt[c];
      const std::vector<Op>& list = lists[c];
      RawConn& conn = conns[c];
      std::vector<uint8_t> payload;
      while (NowNs() < start) {
      }
      const int64_t cpu0 = ThreadCpuNs();
      for (size_t j = 0;; ++j) {
        if (cycle ? stop.load(std::memory_order_relaxed) : j >= list.size()) {
          break;
        }
        const Op& op = list[j % list.size()];
        const int64_t span = t.spans.Begin("loadgen.request", -1, j);
        const int64_t ts = NowNs();
        conn.Send(w.Frame(op));
        conn.Receive(&payload);
        const int64_t tr = NowNs();
        t.spans.End(span);
        t.last_recv = tr;
        ++t.reqs;
        if (payload.empty() || payload[0] != 0 ||
            (op.kind == OpKind::kAppend && payload.size() != 9)) {
          ++t.failed;
          continue;
        }
        ++t.acked;
        if (op.kind == OpKind::kAppend) {
          uint64_t n = 0;
          std::memcpy(&n, payload.data() + 1, 8);
          t.sent[op.metric] += op.count;
          t.items += op.count;
          if (check_n && n != t.sent[op.metric]) ++t.failed;
        }
        if (ts >= m_start && tr <= m_end) {
          t.lat.push_back(static_cast<double>(tr - ts) / 1e3);
          if (op.kind == OpKind::kAppend) {
            t.samples.push_back(ReqSample{tr, t.lat.back(), op.count});
          }
        }
        if (tr >= m_end) break;
      }
      t.cpu = ThreadCpuNs() - cpu0;
      finished.fetch_add(1);
    });
  }
  ClosedLoop out;
  auto sleep_until = [](int64_t t) {
    const int64_t now = NowNs();
    if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
  };
  sleep_until(m_start);
  const uint64_t cpu0 = ProcessSchedNs(server_pid).value_or(0);
  const int64_t t0 = NowNs();
  out.window_start = m_start;
  out.cpu_marks.push_back(cpu0);
  // reqd CPU at every window boundary until the loop ends.
  for (int64_t next = m_start + kWindowNs;;) {
    if (cycle && next > m_end) break;
    while (NowNs() < next && finished.load() < nc) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (finished.load() == nc) break;
    out.cpu_marks.push_back(ProcessSchedNs(server_pid).value_or(0));
    next += kWindowNs;
  }
  if (cycle) {
    sleep_until(m_end);
    out.server_cpu_ns = ProcessSchedNs(server_pid).value_or(0) - cpu0;
    out.window_ns = NowNs() - t0;
    stop.store(true);
    for (std::thread& t : threads) t.join();
  } else {
    for (std::thread& t : threads) t.join();
    out.server_cpu_ns = ProcessSchedNs(server_pid).value_or(0) - cpu0;
    int64_t last = 0;
    for (const PerThread& t : pt) last = std::max(last, t.last_recv);
    out.window_ns = last - start;
  }
  out.sent_items.assign(w.metrics.size(), 0);
  for (size_t c = 0; c < nc; ++c) {
    PerThread& t = pt[c];
    out.append_us.insert(out.append_us.end(), t.lat.begin(), t.lat.end());
    out.samples.insert(out.samples.end(), t.samples.begin(), t.samples.end());
    out.total_items += t.items;
    out.total_requests += t.reqs;
    out.failed += t.failed;
    out.generator_cpu_ns += t.cpu;
    out.sent_per_conn.push_back(t.acked);
    for (size_t m = 0; m < w.metrics.size(); ++m) out.sent_items[m] += t.sent[m];
    if (spans != nullptr) {
      for (const Span& s : t.spans.spans()) spans->Add(s);
    }
  }
  return out;
}

RunResult RunEndToEnd(const Workload& w, const RunOptions& opt) {
  RunResult r;
  if (w.name == "ingest") {
    RunIngest(w, opt, &r);
  } else if (w.name == "dashboard") {
    RunDashboard(w, opt, &r);
  } else {
    RunDurable(w, opt, &r);
  }
  return r;
}

WindowStats SummarizeWindows(const std::vector<ReqSample>& samples,
                             const std::vector<uint64_t>& cpu, int64_t start) {
  WindowStats out;
  if (cpu.size() < 2) return out;
  const size_t n = cpu.size() - 1;
  std::vector<uint64_t> items(n, 0), reqs(n, 0);
  for (const ReqSample& s : samples) {
    if (s.t_end < start) continue;
    const size_t k = static_cast<size_t>((s.t_end - start) / kWindowNs);
    if (k >= n) continue;
    items[k] += s.items;
    ++reqs[k];
  }
  std::vector<double> rate, per_item, per_req;
  for (size_t k = 0; k < n; ++k) {
    if (items[k] == 0) continue;
    const double c = static_cast<double>(cpu[k + 1] - cpu[k]);
    rate.push_back(static_cast<double>(items[k]) * 1e9 / kWindowNs);
    per_item.push_back(c / static_cast<double>(items[k]));
    per_req.push_back(c / 1e3 / static_cast<double>(reqs[k]));
  }
  out.windows = rate.size();
  out.items_per_s = Median(rate);
  out.cpu_ns_per_item = Median(per_item);
  out.cpu_us_per_req = Median(per_req);
  return out;
}

std::vector<double> WindowP99s(const std::vector<ReqSample>& samples,
                               int64_t start, size_t windows) {
  std::vector<std::vector<double>> lat(windows);
  for (const ReqSample& s : samples) {
    if (s.t_end < start) continue;
    const size_t k = static_cast<size_t>((s.t_end - start) / kWindowNs);
    if (k < windows) lat[k].push_back(s.lat_us);
  }
  std::vector<double> p99s, group;
  for (const std::vector<double>& l : lat) {
    group.insert(group.end(), l.begin(), l.end());
    if (group.size() < kP99Samples) continue;
    if (const auto p = PercentileWithTail(&group, 0.99)) p99s.push_back(*p);
    group.clear();
  }
  return p99s;
}

void ExactStream::Build(std::vector<std::pair<double, uint64_t>> items) {
  std::sort(items.begin(), items.end());
  values_.clear();
  cum_.clear();
  uint64_t total = 0;
  for (const auto& [v, mult] : items) {
    total += mult;
    if (!values_.empty() && values_.back() == v) {
      cum_.back() = total;
    } else {
      values_.push_back(v);
      cum_.push_back(total);
    }
  }
}

uint64_t ExactStream::CountLess(double x) const {
  const size_t i = static_cast<size_t>(
      std::lower_bound(values_.begin(), values_.end(), x) - values_.begin());
  return i == 0 ? 0 : cum_[i - 1];
}

uint64_t ExactStream::CountLeq(double x) const {
  const size_t i = static_cast<size_t>(
      std::upper_bound(values_.begin(), values_.end(), x) - values_.begin());
  return i == 0 ? 0 : cum_[i - 1];
}

double MaxHighRankRelError(const ExactStream& stream,
                           const std::vector<double>& qs,
                           const std::vector<double>& served) {
  const double n = static_cast<double>(stream.n());
  double worst = 0;
  for (size_t i = 0; i < qs.size() && i < served.size(); ++i) {
    // An exact answer is the item of rank ceil(q n).
    const double target = std::ceil(qs[i] * n - 1e-9);
    const double lo = static_cast<double>(stream.CountLess(served[i]));
    const double hi = static_cast<double>(stream.CountLeq(served[i]));
    const double miss = target < lo ? lo - target : (target > hi ? target - hi : 0);
    worst = std::max(worst, miss / ((1.0 - qs[i]) * n));
  }
  return worst;
}

std::vector<double> HighRankGrid(uint64_t n) {
  constexpr int kPoints = 24;
  const double top = 0.5;
  const double bottom = std::max(1000.0 / static_cast<double>(n), 1e-7);
  std::vector<double> qs;
  if (bottom >= top) return {0.5};
  for (int i = 0; i < kPoints; ++i) {
    const double tail = top * std::pow(bottom / top, i / (kPoints - 1.0));
    qs.push_back(1.0 - tail);
  }
  return qs;
}

}  // namespace perfbench
