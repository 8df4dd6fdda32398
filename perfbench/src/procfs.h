// /proc readers and machine facts. The parsers take file contents as
// strings so the tests can feed them fixed text.
#ifndef PERFBENCH_PROCFS_H_
#define PERFBENCH_PROCFS_H_

#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

inline std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct ProcCpuTicks {
  uint64_t utime = 0;
  uint64_t stime = 0;
};

// Parses /proc/<pid>/stat. The command name (field 2) is parenthesized
// and may itself contain spaces and parentheses, so fields are counted
// from the LAST ')'. utime and stime are fields 14 and 15.
inline std::optional<ProcCpuTicks> ParseProcStat(const std::string& stat) {
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return std::nullopt;
  std::istringstream rest(stat.substr(close + 1));
  std::vector<std::string> fields;
  std::string field;
  while (rest >> field) fields.push_back(field);
  // fields[0] is field 3 (state); utime is field 14 -> index 11.
  if (fields.size() < 13) return std::nullopt;
  try {
    ProcCpuTicks ticks;
    ticks.utime = std::stoull(fields[11]);
    ticks.stime = std::stoull(fields[12]);
    return ticks;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

// Value of a "Key:   1234 kB" line of /proc/<pid>/status, in kB.
inline std::optional<uint64_t> ParseStatusKb(const std::string& status,
                                             const std::string& key) {
  std::istringstream in(status);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size() + 1, key + ":") != 0) continue;
    std::istringstream value(line.substr(key.size() + 1));
    uint64_t kb = 0;
    if (value >> kb) return kb;
    return std::nullopt;
  }
  return std::nullopt;
}

// First "model name" of /proc/cpuinfo.
inline std::string ParseCpuModel(const std::string& cpuinfo) {
  std::istringstream in(cpuinfo);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, 10, "model name") != 0) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    size_t start = colon + 1;
    while (start < line.size() && line[start] == ' ') ++start;
    return line.substr(start);
  }
  return "unknown";
}

// user+system CPU of a whole process (all threads), in nanoseconds.
inline std::optional<uint64_t> ProcessCpuNs(pid_t pid) {
  const auto ticks =
      ParseProcStat(ReadFile("/proc/" + std::to_string(pid) + "/stat"));
  if (!ticks) return std::nullopt;
  const long hz = sysconf(_SC_CLK_TCK);
  return (ticks->utime + ticks->stime) * (1000000000ULL / static_cast<uint64_t>(hz));
}

// On-CPU time of a whole process in nanoseconds, summed over its live
// threads' /proc/<pid>/task/<tid>/schedstat (first field). Finer than
// the clock ticks of /proc/<pid>/stat, for short measurements; threads
// that already exited are not counted.
inline std::optional<uint64_t> ProcessSchedNs(pid_t pid) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  std::error_code ec;
  uint64_t total = 0;
  bool any = false;
  for (const auto& task : std::filesystem::directory_iterator(dir, ec)) {
    std::istringstream in(ReadFile(task.path().string() + "/schedstat"));
    uint64_t ns = 0;
    if (in >> ns) {
      total += ns;
      any = true;
    }
  }
  if (!any) return std::nullopt;
  return total;
}

// Peak resident set (VmHWM) of a process, in bytes.
inline std::optional<uint64_t> ProcessPeakRssBytes(pid_t pid) {
  const auto kb = ParseStatusKb(
      ReadFile("/proc/" + std::to_string(pid) + "/status"), "VmHWM");
  if (!kb) return std::nullopt;
  return *kb * 1024;
}

// Whether this process may open a hardware cycle counter. Many VMs
// refuse (no PMU passthrough, or perf_event_paranoid), which is why the
// benchmark times with clocks and /proc instead.
inline bool HardwarePerfCountersAvailable() {
  perf_event_attr attr{};
  attr.type = PERF_TYPE_HARDWARE;
  attr.size = sizeof(attr);
  attr.config = PERF_COUNT_HW_INSTRUCTIONS;
  attr.disabled = 1;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  const long fd = syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
  if (fd < 0) return false;
  close(static_cast<int>(fd));
  return true;
}

struct MachineFacts {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string kernel;
  bool perf_counters = false;
};

inline MachineFacts CollectMachineFacts() {
  MachineFacts facts;
  facts.nproc = std::thread::hardware_concurrency();
  facts.cpu_model = ParseCpuModel(ReadFile("/proc/cpuinfo"));
  utsname u{};
  facts.kernel = uname(&u) == 0 ? std::string(u.release) : "unknown";
  facts.perf_counters = HardwarePerfCountersAvailable();
  return facts;
}

}  // namespace perfbench

#endif  // PERFBENCH_PROCFS_H_
