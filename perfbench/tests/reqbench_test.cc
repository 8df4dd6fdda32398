// Tests of the benchmark's own arithmetic: percentile selection under the
// ten-beyond rule, span self times, the /proc parsers, and exact-rank
// error. Build and run:
//
//   cmake --build .bench_build --target reqbench_test
//   .bench_build/reqbench_test
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "bench_util.h"
#include "procfs.h"
#include "spans.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

using perfbench::Span;

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentileNeedsTenBeyond() {
  // p99 of 1000 samples is the 990th; ten lie beyond it.
  std::vector<double> s = Ramp(1000);
  const auto p99 = perfbench::PercentileWithTail(&s, 0.99);
  CHECK(p99.has_value() && *p99 == 990);
  // 999 samples: nearest rank 990 of 999 leaves nine beyond -> refused.
  s = Ramp(999);
  CHECK(!perfbench::PercentileWithTail(&s, 0.99).has_value());
  // The median of 20 samples is the 10th and leaves ten beyond; of 19
  // it is also the 10th and leaves nine.
  s = Ramp(20);
  const auto p50 = perfbench::PercentileWithTail(&s, 0.5);
  CHECK(p50.has_value() && *p50 == 10);
  s = Ramp(19);
  CHECK(!perfbench::PercentileWithTail(&s, 0.5).has_value());
  s.clear();
  CHECK(!perfbench::PercentileWithTail(&s, 0.5).has_value());
}

void TestMedian() {
  CHECK(perfbench::Median({3, 1, 2}) == 2);
  CHECK(perfbench::Median({4, 1, 3, 2}) == 2.5);
}

Span MakeSpan(int64_t start, int64_t end, int64_t parent) {
  Span s;
  s.name = "x";
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

void TestSelfTimes() {
  // Root [0,100) with children [10,30) and [20,50) (overlapping: covered
  // 10..50 = 40) and [90,120) (clipped to 90..100 = 10).
  std::vector<Span> spans{MakeSpan(0, 100, -1), MakeSpan(10, 30, 0),
                          MakeSpan(20, 50, 0), MakeSpan(90, 120, 0),
                          MakeSpan(12, 18, 1)};
  const std::vector<int64_t> self = perfbench::SelfTimes(spans);
  CHECK(self[0] == 100 - 40 - 10);
  CHECK(self[1] == 20 - 6);  // grandchild only counts against its parent
  CHECK(self[2] == 30);
  CHECK(self[3] == 30);
  CHECK(self[4] == 6);
  spans[1].name = "y";
  const auto totals = perfbench::TotalsByName(spans);
  CHECK(totals.at("x").count == 4);
  CHECK(totals.at("x").self_ns == 50 + 30 + 30 + 6);
  CHECK(totals.at("y").total_ns == 20);
}

void TestProcStat() {
  // A command name with spaces and a ')' must not shift the fields.
  const std::string stat =
      "4242 (re qd) x) S 1 4242 4242 0 -1 4194560 100 0 0 0 "
      "1234 567 0 0 20 0 5 0 99 1000 200";
  const auto t = perfbench::ParseProcStat(stat);
  CHECK(t.has_value() && t->utime == 1234 && t->stime == 567);
  CHECK(!perfbench::ParseProcStat("garbage").has_value());
  CHECK(!perfbench::ParseProcStat("1 (a) S 1 2").has_value());
}

void TestStatusAndCpuinfo() {
  const std::string status =
      "Name:\treqd\nVmPeak:\t  200 kB\nVmHWM:\t   9216 kB\nVmRSS:\t 8000 kB\n";
  CHECK(perfbench::ParseStatusKb(status, "VmHWM") == 9216u);
  CHECK(perfbench::ParseStatusKb(status, "VmRSS") == 8000u);
  CHECK(!perfbench::ParseStatusKb(status, "VmSwap").has_value());
  const std::string cpuinfo =
      "processor\t: 0\nvendor_id\t: GenuineIntel\n"
      "model name\t: Intel(R) Xeon(R) Processor\nflags\t: fpu\n";
  CHECK(perfbench::ParseCpuModel(cpuinfo) == "Intel(R) Xeon(R) Processor");
  CHECK(perfbench::ParseCpuModel("") == "unknown");
}

void TestLiveProc() {
  // This process: its own stat parses and its CPU never runs backwards.
  const pid_t self = getpid();
  const auto a = perfbench::ProcessSchedNs(self);
  volatile double sink = 0;
  for (int i = 0; i < 2000000; ++i) sink = sink + std::sqrt(i);
  const auto b = perfbench::ProcessSchedNs(self);
  CHECK(a.has_value() && b.has_value() && *b > *a);
  CHECK(perfbench::ProcessCpuNs(self).has_value());
  CHECK(perfbench::ProcessPeakRssBytes(self).value_or(0) > 0);
}

void TestExactRankError() {
  perfbench::ExactStream s;
  std::vector<std::pair<double, uint64_t>> items;
  for (int i = 1; i <= 1000; ++i) items.emplace_back(i, 1);
  items.emplace_back(500, 1);  // a duplicate widens 500's rank interval
  s.Build(items);
  CHECK(s.n() == 1001);
  CHECK(s.CountLess(500) == 499 && s.CountLeq(500) == 501);
  // Exact answers have zero error; one item off at q = 0.9 is 1 / 100.1.
  const std::vector<double> qs{0.5, 0.9};
  CHECK(perfbench::MaxHighRankRelError(s, qs, {500, 900}) == 0);
  const double err = perfbench::MaxHighRankRelError(s, {0.9}, {902});
  CHECK(std::fabs(err - 1.0 / (0.1 * 1001)) < 1e-12);
  const std::vector<double> grid = perfbench::HighRankGrid(1000000);
  CHECK(grid.size() == 24 && grid.front() == 0.5);
  CHECK(std::fabs((1 - grid.back()) * 1000000 - 1000) < 1e-6);
}

}  // namespace

int main() {
  TestPercentileNeedsTenBeyond();
  TestMedian();
  TestSelfTimes();
  TestProcStat();
  TestStatusAndCpuinfo();
  TestLiveProc();
  TestExactRankError();
  if (failures == 0) std::printf("reqbench_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
