// reqbench: the reqd benchmark driver.
//
//   reqbench --workload ingest|dashboard|durable --seed N --seconds S
//            --trace 0|1 --reqd PATH --work-dir DIR
//
// Generates the workload from the seed, then runs it end to end (trace
// 0: the end-to-end metrics) or through the layer ladder (trace 1: the
// per-layer metrics). Prints notes, then one JSON result line:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Exits 1 when a correctness gate failed, 2 on bad usage or a crash.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.h"
#include "procfs.h"

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--reqd") {
      opt.reqd = value;
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else {
      std::fprintf(stderr, "reqbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (opt.workload.empty() || opt.reqd.empty() || opt.work_dir.empty() ||
      opt.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: reqbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --reqd PATH --work-dir DIR\n");
    return 2;
  }
  try {
    std::filesystem::create_directories(opt.work_dir);
    const perfbench::MachineFacts facts = perfbench::CollectMachineFacts();
    std::printf("machine: nproc=%u cpu=\"%s\" kernel=%s perf_counters=%s\n",
                facts.nproc, facts.cpu_model.c_str(), facts.kernel.c_str(),
                facts.perf_counters ? "available" : "unavailable");
    const int64_t g0 = perfbench::NowNs();
    const perfbench::Workload w =
        perfbench::MakeWorkload(opt.workload, opt.seed, opt.seconds);
    std::printf("workload %s seed %llu: %zu metrics, %.1f MiB of inputs "
                "generated in %.2f s\n",
                w.name.c_str(), static_cast<unsigned long long>(opt.seed),
                w.metrics.size(),
                (w.values.size() * sizeof(double) + w.heads.size()) /
                    (1024.0 * 1024.0),
                static_cast<double>(perfbench::NowNs() - g0) / 1e9);
    const perfbench::RunResult r = opt.trace
                                       ? perfbench::RunLadder(w, opt)
                                       : perfbench::RunEndToEnd(w, opt);
    for (const std::string& note : r.notes) std::printf("%s\n", note.c_str());
    const double frac = r.attempted > 0 ? static_cast<double>(r.failed) /
                                              static_cast<double>(r.attempted)
                                        : 1.0;
    std::printf("failed_frac: %.6g (%llu of %llu operations)\n", frac,
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted));
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                r.correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                perfbench::MetricsJson(r.metrics).c_str());
    std::fflush(stdout);
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "reqbench: %s\n", e.what());
    return 2;
  }
}
