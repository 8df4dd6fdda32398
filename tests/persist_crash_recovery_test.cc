// End-to-end crash/recovery test against a real reqd process: load 1M
// items across 4 durable metrics, SIGKILL the daemon at a random moment
// mid-load, restart it on the same data dir, and require that
//
//   * every acknowledged item survived (recovered_n >= acked_n, and the
//     recovered count is a batch-sequence prefix of what was sent), and
//   * the served state is BYTE-IDENTICAL to an in-process reference
//     sketch fed exactly the recovered prefix -- the paper-level
//     determinism guarantee carried through WAL replay;
//
// then finish the load on the recovered daemon, shut it down gracefully
// (SIGTERM: drain + final checkpoint), and verify the full-stream state
// survives a third boot with an empty replay tail.
//
// Needs the reqd binary next to the test's working directory (how ctest
// runs in the build tree); set REQD_BIN to override, or the test skips.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "persist/log_file.h"
#include "service/req_client.h"
#include "service/sketch_registry.h"
#include "util/random.h"

namespace req {
namespace service {
namespace {

constexpr size_t kMetrics = 4;
constexpr size_t kItemsPerMetric = 250000;  // 1M total
constexpr size_t kBatch = 2048;
constexpr uint32_t kKBase = 32;

std::string ReqdBinary() {
  const char* env = std::getenv("REQD_BIN");
  if (env != nullptr) return env;
  return "./reqd";
}

std::string MetricName(size_t m) { return "crash/m" + std::to_string(m); }

std::vector<double> MetricStream(size_t m) {
  util::Xoshiro256 rng(9000 + m);
  std::vector<double> values(kItemsPerMetric);
  for (double& v : values) v = rng.NextDouble() * 1e6;
  return values;
}

class DaemonProcess {
 public:
  ~DaemonProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      Reap();
    }
  }

  // Starts reqd on an ephemeral port and blocks until its --port-file
  // appears. Returns the bound port, or 0 on failure.
  uint16_t Start(const std::string& data_dir) {
    const std::string port_file = data_dir + "/port";
    std::filesystem::remove(port_file);
    pid_ = ::fork();
    if (pid_ == 0) {
      // Child: silence the daemon's stdout chatter, keep stderr.
      std::freopen("/dev/null", "w", stdout);
      std::vector<std::string> args = {
          ReqdBinary(), "--bind",      "127.0.0.1",
          "--port",     "0",           "--data-dir",
          data_dir,     "--fsync",     "always",
          "--port-file", port_file};
      for (size_t m = 0; m < kMetrics; ++m) {
        args.push_back("--create");
        args.push_back(MetricName(m) + ":plain:" + std::to_string(kKBase));
      }
      std::vector<char*> argv;
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      std::perror("execv reqd");
      ::_exit(127);
    }
    for (int tries = 0; tries < 200; ++tries) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      std::ifstream in(port_file);
      int port = 0;
      if (in >> port && port > 0) return static_cast<uint16_t>(port);
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return 0;  // daemon died during startup
      }
    }
    return 0;
  }

  void Kill() {
    ::kill(pid_, SIGKILL);
    Reap();
  }

  // SIGTERM + wait; returns the daemon's exit code (graceful == 0).
  int Terminate() {
    ::kill(pid_, SIGTERM);
    return Reap();
  }

  pid_t pid() const { return pid_; }

 private:
  int Reap() {
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
  }

  pid_t pid_ = -1;
};

// The acknowledged-item count per metric must be a prefix of the batch
// sequence; returns whether `n` sits on a batch boundary of the stream.
bool IsBatchPrefix(uint64_t n) {
  if (n > kItemsPerMetric) return false;
  const uint64_t full = kItemsPerMetric / kBatch * kBatch;
  return n <= full ? n % kBatch == 0 : n == kItemsPerMetric;
}

std::vector<uint8_t> ReferenceSnapshot(size_t m, uint64_t n) {
  MetricSpec spec;
  spec.kind = EngineKind::kPlain;
  spec.base.k_base = kKBase;
  SketchRegistry registry;
  auto engine = registry.Create(MetricName(m), spec);
  const std::vector<double> stream = MetricStream(m);
  for (size_t i = 0; i < n; i += kBatch) {
    const size_t len = std::min(kBatch, static_cast<size_t>(n) - i);
    engine->Append(stream.data() + i, len);
  }
  return engine->Snapshot();
}

TEST(CrashRecovery, KilledDaemonRecoversAckedStateBitIdentically) {
  if (::access(ReqdBinary().c_str(), X_OK) != 0) {
    GTEST_SKIP() << "reqd binary not found at " << ReqdBinary()
                 << " (set REQD_BIN)";
  }
  const std::string data_dir = ::testing::TempDir() + "req_crash_" +
                               std::to_string(::getpid());
  std::filesystem::remove_all(data_dir);
  std::filesystem::create_directories(data_dir);

  // The kill moment is random; print the seed so a failure reproduces.
  uint64_t seed = std::random_device{}();
  if (const char* env = std::getenv("REQ_CRASH_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  std::printf("crash seed: %llu (rerun with REQ_CRASH_SEED=%llu)\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seed));
  // Flush before the daemon forks, or the children replay this buffer.
  std::fflush(stdout);
  std::mt19937_64 rng(seed);

  // --- phase 1: load, then SIGKILL mid-append -------------------------------
  DaemonProcess daemon;
  const uint16_t port = daemon.Start(data_dir);
  ASSERT_NE(port, 0) << "reqd failed to start";

  std::vector<std::vector<double>> streams;
  for (size_t m = 0; m < kMetrics; ++m) streams.push_back(MetricStream(m));

  std::vector<uint64_t> acked(kMetrics, 0);
  {
    ReqClient client;
    client.Connect("127.0.0.1", port);
    // Kill somewhere inside the load: after a random number of batch
    // round-robins, from a separate thread while appends are in flight,
    // so the daemon can die holding half-written frames and WAL tails.
    const uint64_t total_rounds = (kItemsPerMetric + kBatch - 1) / kBatch;
    const uint64_t kill_round =
        std::uniform_int_distribution<uint64_t>(1, total_rounds - 1)(rng);
    const uint64_t kill_jitter_us =
        std::uniform_int_distribution<uint64_t>(0, 5000)(rng);
    std::atomic<bool> reached_kill_round{false};
    std::thread killer([&] {
      while (!reached_kill_round.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      std::this_thread::sleep_for(std::chrono::microseconds(kill_jitter_us));
      ::kill(daemon.pid(), SIGKILL);
    });
    try {
      for (uint64_t round = 0; round < total_rounds; ++round) {
        if (round == kill_round) {
          reached_kill_round.store(true, std::memory_order_release);
        }
        for (size_t m = 0; m < kMetrics; ++m) {
          const size_t offset = static_cast<size_t>(round) * kBatch;
          if (offset >= kItemsPerMetric) continue;
          const size_t len = std::min(kBatch, kItemsPerMetric - offset);
          acked[m] = client.Append(MetricName(m),
                                   streams[m].data() + offset, len);
        }
      }
      // The whole load landed before the kill fired: still a valid run
      // (the kill then tests recovery of the complete state).
      reached_kill_round.store(true, std::memory_order_release);
    } catch (const std::exception&) {
      // connection died at the kill point, as intended
    }
    killer.join();
  }
  daemon.Kill();  // idempotent if the killer already got it

  // --- phase 2: restart, verify the recovered prefix ------------------------
  const uint16_t port2 = daemon.Start(data_dir);
  ASSERT_NE(port2, 0) << "reqd failed to recover";
  std::vector<uint64_t> recovered(kMetrics, 0);
  {
    ClientOptions options;
    options.reconnect_enabled = true;
    ReqClient client;
    client.Connect("127.0.0.1", port2, options);
    for (size_t m = 0; m < kMetrics; ++m) {
      recovered[m] = client.Flush(MetricName(m));
      EXPECT_GE(recovered[m], acked[m])
          << MetricName(m) << " lost acknowledged items";
      EXPECT_TRUE(IsBatchPrefix(recovered[m]))
          << MetricName(m) << " recovered a partial batch: "
          << recovered[m];
      EXPECT_EQ(client.Snapshot(MetricName(m)),
                ReferenceSnapshot(m, recovered[m]))
          << MetricName(m)
          << " state is not bit-identical to the acked prefix";
    }

    // --- phase 3: finish the load on the recovered daemon -------------------
    for (size_t m = 0; m < kMetrics; ++m) {
      for (size_t i = static_cast<size_t>(recovered[m]);
           i < kItemsPerMetric; i += kBatch) {
        const size_t len = std::min(kBatch, kItemsPerMetric - i);
        client.Append(MetricName(m), streams[m].data() + i, len);
      }
      EXPECT_EQ(client.Flush(MetricName(m)), kItemsPerMetric);
    }
  }

  // --- phase 4: graceful shutdown, third boot, full-state check -------------
  EXPECT_EQ(daemon.Terminate(), 0) << "SIGTERM shutdown was not clean";
  // The final checkpoint leaves every WAL segment empty (header only):
  // the next boot replays nothing.
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(data_dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (persist::ParseLsnFileName(name, "wal-", ".log")) {
      EXPECT_EQ(entry.file_size(), 16u)
          << entry.path() << " has a non-empty tail after graceful stop";
    }
  }

  const uint16_t port3 = daemon.Start(data_dir);
  ASSERT_NE(port3, 0) << "reqd failed to boot after graceful stop";
  {
    ReqClient client;
    client.Connect("127.0.0.1", port3);
    for (size_t m = 0; m < kMetrics; ++m) {
      EXPECT_EQ(client.Flush(MetricName(m)), kItemsPerMetric);
      EXPECT_EQ(client.Snapshot(MetricName(m)),
                ReferenceSnapshot(m, kItemsPerMetric))
          << MetricName(m) << " diverged across graceful restart";
    }
  }
  EXPECT_EQ(daemon.Terminate(), 0);
  std::filesystem::remove_all(data_dir);
}

// Satellite: SIGTERM *under load*. The daemon must drain in-flight
// connections, flush staging, and write the final checkpoint even while
// a client is mid-append -- exiting 0, losing nothing acknowledged, and
// leaving an empty replay tail.
TEST(CrashRecovery, SigtermUnderLoadCheckpointsEveryAckedItem) {
  if (::access(ReqdBinary().c_str(), X_OK) != 0) {
    GTEST_SKIP() << "reqd binary not found at " << ReqdBinary()
                 << " (set REQD_BIN)";
  }
  const std::string data_dir = ::testing::TempDir() + "req_sigterm_" +
                               std::to_string(::getpid());
  std::filesystem::remove_all(data_dir);
  std::filesystem::create_directories(data_dir);

  DaemonProcess daemon;
  const uint16_t port = daemon.Start(data_dir);
  ASSERT_NE(port, 0) << "reqd failed to start";

  std::atomic<uint64_t> acked{0};
  std::atomic<bool> done{false};
  std::thread loader([&] {
    try {
      ReqClient client;
      client.Connect("127.0.0.1", port);
      const std::vector<double> stream = MetricStream(0);
      for (size_t i = 0; i < kItemsPerMetric; i += kBatch) {
        const size_t len = std::min(kBatch, kItemsPerMetric - i);
        acked.store(client.Append(MetricName(0), stream.data() + i, len),
                    std::memory_order_release);
      }
    } catch (const std::exception&) {
      // the daemon dropped the connection during shutdown: expected
    }
    done.store(true, std::memory_order_release);
  });
  // Fire the SIGTERM once appends are demonstrably in flight (or the
  // whole load landed first on a fast machine -- still a valid run).
  while (acked.load(std::memory_order_acquire) < 8 * kBatch &&
         !done.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const int exit_code = daemon.Terminate();
  loader.join();
  EXPECT_EQ(exit_code, 0) << "SIGTERM under load was not a clean exit";
  const uint64_t acked_n = acked.load();

  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(data_dir)) {
    if (!entry.is_regular_file()) continue;
    if (persist::ParseLsnFileName(entry.path().filename().string(), "wal-",
                                  ".log")) {
      EXPECT_EQ(entry.file_size(), 16u)
          << entry.path() << " kept a replay tail past the final checkpoint";
    }
  }

  const uint16_t port2 = daemon.Start(data_dir);
  ASSERT_NE(port2, 0) << "reqd failed to boot after SIGTERM under load";
  {
    ReqClient client;
    client.Connect("127.0.0.1", port2);
    const uint64_t recovered_n = client.Flush(MetricName(0));
    EXPECT_GE(recovered_n, acked_n) << "shutdown lost acknowledged items";
    EXPECT_TRUE(IsBatchPrefix(recovered_n));
    EXPECT_EQ(client.Snapshot(MetricName(0)),
              ReferenceSnapshot(0, recovered_n))
        << "state diverged across SIGTERM-under-load restart";
  }
  EXPECT_EQ(daemon.Terminate(), 0);
  std::filesystem::remove_all(data_dir);
}

}  // namespace
}  // namespace service
}  // namespace req
