// Entry points shared by the end-to-end run (e2e.cc) and the traced
// layer ladder (ladder.cc).
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "reqd_child.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string reqd;      // path of the reqd binary
  std::string work_dir;  // scratch space inside the checkout
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricSet metrics;
  std::vector<std::string> notes;  // printed before the result line

  void Fail(const std::string& why) {
    correct = false;
    ++failed;
    if (notes.size() < 50) notes.push_back("FAIL: " + why);
  }
};

// A reqd child that has every metric of `w` created and has answered a
// PING; `setup_s` is the wall time from spawn to that answer.
struct Server {
  ReqdChild child;
  double setup_s = 0;
};

std::vector<std::string> ReqdArgs(const std::string& data_dir);

// Spawns reqd and creates the workload's metrics over one connection.
void StartServer(const Workload& w, const RunOptions& opt,
                 const std::string& data_dir, Server* server);

// One answered request: when its answer arrived, its latency, its items.
struct ReqSample {
  int64_t t_end = 0;
  double lat_us = 0;
  uint32_t items = 0;
};

// Per-window figures of a run cut into short windows; each is the median
// over the windows, so a hiccup of the machine moves one window, not the
// run's figure.
struct WindowStats {
  double items_per_s = 0;
  double cpu_ns_per_item = 0;
  double cpu_us_per_req = 0;
  size_t windows = 0;
};

inline constexpr int64_t kWindowNs = 250000000;

// `cpu[k]` is reqd's CPU at start + k * kWindowNs; window k holds the
// samples answered in [start + k w, start + (k + 1) w).
WindowStats SummarizeWindows(const std::vector<ReqSample>& samples,
                             const std::vector<uint64_t>& cpu, int64_t start);

// p99 latencies of consecutive windows, each merged with the windows
// after it until it holds kP99Samples answers (a p99 with ten beyond).
inline constexpr size_t kP99Samples = 1000;
std::vector<double> WindowP99s(const std::vector<ReqSample>& samples,
                               int64_t start, size_t windows);

// Result of driving connections in a closed loop.
struct ClosedLoop {
  std::vector<ReqSample> samples;  // answered APPENDs inside the window
  std::vector<uint64_t> cpu_marks;  // reqd CPU at each window boundary
  int64_t window_start = 0;
  std::vector<double> append_us;  // latencies inside the measured window
  int64_t window_ns = 0;
  uint64_t server_cpu_ns = 0;  // reqd CPU over the window
  int64_t generator_cpu_ns = 0;
  uint64_t total_items = 0;
  uint64_t total_requests = 0;
  uint64_t failed = 0;
  std::vector<uint64_t> sent_items;  // per metric, every acked APPEND
  std::vector<uint64_t> sent_per_conn;  // acked requests per connection
};

// Drives one thread and connection per list. `cycle`: replay each list
// round-robin until warm_ns + measure_ns have passed (the window is the
// part after warm_ns); otherwise send each list once and measure all of
// it. `check_n`: single-writer metrics, so each APPEND's acked total
// must equal the items sent so far.
ClosedLoop RunClosedLoop(const Workload& w,
                         const std::vector<std::vector<Op>>& lists,
                         pid_t server_pid, uint16_t port, bool cycle,
                         int64_t warm_ns, int64_t measure_ns, bool check_n,
                         SpanRecorder* spans);

// Result of an open-loop run; per-op vectors are indexed like `ops`.
struct OpenLoop {
  std::vector<int64_t> recv_ns, sent_ns;
  std::vector<uint64_t> cpu_marks;  // reqd CPU each kWindowNs from base + warm
  std::vector<uint8_t> status;
  std::vector<uint64_t> ack_n;
  std::unordered_map<uint32_t, std::vector<uint8_t>> answers;  // queries
  int64_t base = 0;  // absolute time of due_ns == 0
  int64_t end = 0;
  uint64_t server_cpu0 = 0, server_cpu1 = 0;  // at base + warm_ns, end
  int64_t generator_cpu_ns = 0;
};

OpenLoop RunOpenLoop(const Workload& w, const std::vector<Op>& ops, pid_t pid,
                     uint16_t port, int64_t warm_ns);

// End-to-end run of one workload (tracing off).
RunResult RunEndToEnd(const Workload& w, const RunOptions& opt);

// Traced layer ladder of one workload.
RunResult RunLadder(const Workload& w, const RunOptions& opt);

// A metric's exact stream as sorted values with multiplicities, for
// exact ranks.
class ExactStream {
 public:
  // (value, multiplicity) pairs in any order.
  void Build(std::vector<std::pair<double, uint64_t>> items);
  uint64_t n() const { return cum_.empty() ? 0 : cum_.back(); }
  uint64_t CountLess(double x) const;
  uint64_t CountLeq(double x) const;

 private:
  std::vector<double> values_;
  std::vector<uint64_t> cum_;  // cum_[i] = multiplicity of values_[0..i]
};

// Exact-rank accuracy at the high end: the largest rank error of the
// served quantiles at `qs`, relative to the distance from the top
// ((1 - q) n), the quantity the paper's high-rank guarantee bounds.
double MaxHighRankRelError(const ExactStream& stream,
                           const std::vector<double>& qs,
                           const std::vector<double>& served);

// The high-rank quantile grid for a metric of n items: from 0.5 up to
// where 1000 items remain above.
std::vector<double> HighRankGrid(uint64_t n);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
