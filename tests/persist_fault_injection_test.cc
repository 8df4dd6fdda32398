// Fault-injection tests for the durability layer: injected short (torn)
// writes, outright write failures, and fsync failures at every I/O
// operation of a scripted workload. The invariant under test is the WAL
// contract: after ANY crash point, recovery restores a state that
// contains every acknowledged batch (it may contain a logged-but-unacked
// suffix), bit-identical to a reference engine fed the same prefix.
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "persist/durability.h"
#include "persist/io_injector.h"
#include "persist/log_file.h"
#include "persist/metric_log.h"
#include "service/sketch_registry.h"
#include "util/random.h"

namespace req {
namespace persist {
namespace {

using service::EngineKind;
using service::MetricSpec;
using service::SketchRegistry;

std::string MakeTempDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "req_fault_" + tag + "_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

MetricSpec PlainSpec() {
  MetricSpec spec;
  spec.kind = EngineKind::kPlain;
  spec.base.k_base = 32;
  return spec;
}

// Deterministic batch b of metric m (the sweep's replay oracle).
std::vector<double> ScriptBatch(size_t metric, size_t batch) {
  util::Xoshiro256 rng(1000 * metric + batch);
  std::vector<double> values(50);
  for (double& v : values) v = rng.NextDouble() * 1e6;
  return values;
}

// --- AppendFile through the injector ---------------------------------------

TEST(FaultInjection, WriteFailureTripsAndStaysTripped) {
  const std::string dir = MakeTempDir("trip");
  FaultInjector injector;
  injector.Reset();
  injector.FailAfterOps(2);
  AppendFile file(dir + "/f", /*truncate=*/true, &injector);
  const uint8_t bytes[16] = {};
  file.Append(bytes, sizeof(bytes));
  file.Append(bytes, sizeof(bytes));
  EXPECT_THROW(file.Append(bytes, sizeof(bytes)), IoError);
  EXPECT_THROW(file.Append(bytes, sizeof(bytes)), IoError);  // stays dead
  EXPECT_EQ(std::filesystem::file_size(dir + "/f"), 32u);
}

TEST(FaultInjection, TornWritePersistsStrictPrefix) {
  const std::string dir = MakeTempDir("torn");
  FaultInjector injector;
  injector.Reset();
  injector.FailAfterOps(0, /*torn_write=*/true);
  AppendFile file(dir + "/f", /*truncate=*/true, &injector);
  const uint8_t bytes[16] = {};
  EXPECT_THROW(file.Append(bytes, sizeof(bytes)), IoError);
  EXPECT_EQ(std::filesystem::file_size(dir + "/f"), 8u);  // half landed
}

// --- MetricLog poisoning ----------------------------------------------------

TEST(FaultInjection, PoisonedLogRefusesAppendsUntilRotation) {
  const std::string dir = MakeTempDir("poison");
  FaultInjector injector;
  injector.Reset();
  MetricLogOptions options;
  options.fsync = FsyncPolicy::kNever;
  options.io = &injector;
  MetricLog log(dir, "m", 0, options);
  const std::vector<double> batch = {1.0, 2.0, 3.0};
  ASSERT_EQ(log.AppendBatch(batch.data(), batch.size()), 0u);

  // Tear the next record's write: the batch is NOT logged (no LSN), and
  // the segment is poisoned -- appending past the tear would strand any
  // later acknowledged record beyond recovery's reach.
  injector.FailAfterOps(injector.ops(), /*torn_write=*/true);
  EXPECT_THROW(log.AppendBatch(batch.data(), batch.size()), IoError);
  injector.Reset();
  EXPECT_THROW(log.AppendBatch(batch.data(), batch.size()), IoError);
  EXPECT_EQ(log.next_lsn(), 1u);

  // Recovery of the poisoned dir sees exactly the pre-fault prefix.
  EXPECT_EQ(ReadMetricState(dir, "m").batches.size(), 1u);

  // A checkpoint rotates to a fresh segment and clears the poison.
  log.WriteCheckpoint(log.next_lsn(), 3, {7, 7});
  ASSERT_EQ(log.AppendBatch(batch.data(), batch.size()), 1u);
  const RecoveredMetricState state = ReadMetricState(dir, "m");
  EXPECT_EQ(state.snapshot_lsn, 1u);
  EXPECT_EQ(state.batches.size(), 1u);
  EXPECT_EQ(state.next_lsn, 2u);
}

TEST(FaultInjection, FsyncFailureSurfacesAsIoErrorBeforeAck) {
  const std::string dir = MakeTempDir("fsync");
  FaultInjector injector;
  injector.Reset();
  MetricLogOptions options;
  options.fsync = FsyncPolicy::kAlways;
  options.io = &injector;
  MetricLog log(dir, "m", 0, options);
  const std::vector<double> batch = {4.0, 5.0};
  ASSERT_EQ(log.AppendBatch(batch.data(), batch.size()), 0u);
  injector.FailFsyncs(true);
  EXPECT_THROW(log.AppendBatch(batch.data(), batch.size()), IoError);
  // The record reached the file but was never acknowledged; recovery
  // resurrecting it is the allowed direction (recovered >= acked).
  injector.FailFsyncs(false);
  EXPECT_GE(ReadMetricState(dir, "m").batches.size(), 1u);
}

// --- engine-level semantics -------------------------------------------------

TEST(FaultInjection, EngineAppendFailureAcknowledgesNothing) {
  const std::string dir = MakeTempDir("engine");
  FaultInjector injector;
  injector.Reset();
  DurabilityOptions options;
  options.fsync = FsyncPolicy::kNever;
  options.io = &injector;
  DurabilityManager manager(dir, options);
  SketchRegistry registry;
  manager.RecoverInto(&registry);
  auto engine = registry.Create("m", PlainSpec());

  const std::vector<double> batch = ScriptBatch(0, 0);
  engine->Append(batch.data(), batch.size());
  const uint64_t acked = engine->AcceptedN();

  injector.FailAfterOps(injector.ops());
  EXPECT_THROW(engine->Append(batch.data(), batch.size()), IoError);
  EXPECT_EQ(engine->AcceptedN(), acked) << "failed append must not ack";
  // Queries keep working on the already-acknowledged state.
  EXPECT_NO_THROW(engine->GetQuantiles({0.5}, Criterion::kInclusive));

  // Clearing the fault and checkpointing (fresh segment) restores the
  // append path -- the server does this via ForceCheckpoint on demand.
  injector.Reset();
  engine->ForceCheckpoint();
  engine->Append(batch.data(), batch.size());
  EXPECT_EQ(engine->AcceptedN(), acked + batch.size());
}

// --- crash-point sweep ------------------------------------------------------

// Runs the scripted workload against a fresh data dir, with `injector`
// (nullable) wired through the whole stack. Individual IoErrors are
// swallowed the way a serving daemon swallows them (error response, keep
// serving); `acked` records per-metric acknowledged item counts.
void RunScript(const std::string& dir, FaultInjector* injector,
               std::map<std::string, uint64_t>* acked) {
  DurabilityOptions options;
  options.fsync = FsyncPolicy::kAlways;  // exercise fsync crash points
  options.io = injector;
  SketchRegistry registry;
  std::unique_ptr<DurabilityManager> manager;
  try {
    manager = std::make_unique<DurabilityManager>(dir, options);
    manager->RecoverInto(&registry);
  } catch (const IoError&) {
    return;  // crashed before the directory even opened
  }
  const std::vector<std::string> names = {"sweep/a", "sweep/b"};
  for (const std::string& name : names) {
    try {
      registry.Create(name, PlainSpec());
    } catch (const IoError&) {
    }
  }
  for (size_t round = 0; round < 6; ++round) {
    for (size_t m = 0; m < names.size(); ++m) {
      auto engine = registry.Find(names[m]);
      if (!engine) continue;
      const std::vector<double> batch = ScriptBatch(m, round);
      try {
        engine->Append(batch.data(), batch.size());
        (*acked)[names[m]] += batch.size();
      } catch (const IoError&) {
      }
    }
    if (round == 3) {
      for (const std::string& name : names) {
        auto engine = registry.Find(name);
        if (!engine) continue;
        try {
          engine->ForceCheckpoint();
        } catch (const IoError&) {
        }
      }
    }
  }
}

TEST(FaultInjection, CrashPointSweepPreservesAckedPrefix) {
  // Dry run: count the script's total I/O operations.
  FaultInjector counter;
  counter.Reset();
  uint64_t total_ops = 0;
  {
    const std::string dir = MakeTempDir("sweep_dry");
    std::map<std::string, uint64_t> acked;
    RunScript(dir, &counter, &acked);
    total_ops = counter.ops();
    ASSERT_GT(total_ops, 20u);
    std::filesystem::remove_all(dir);
  }

  // Sweep every crash point; alternate clean failures and torn writes.
  for (uint64_t k = 0; k < total_ops; ++k) {
    const std::string dir =
        MakeTempDir("sweep_k" + std::to_string(k));
    FaultInjector injector;
    injector.Reset();
    injector.FailAfterOps(k, /*torn_write=*/(k % 2) == 1);
    std::map<std::string, uint64_t> acked;
    RunScript(dir, &injector, &acked);

    // Recovery runs on healthy I/O (the next boot's disk works).
    DurabilityOptions options;
    options.fsync = FsyncPolicy::kNever;
    DurabilityManager manager(dir, options);
    SketchRegistry recovered;
    manager.RecoverInto(&recovered);

    for (const auto& [name, n] : acked) {
      auto engine = recovered.Find(name);
      ASSERT_NE(engine, nullptr)
          << "metric " << name << " acked " << n
          << " items but vanished (crash point " << k << ")";
      const uint64_t recovered_n = engine->AcceptedN();
      EXPECT_GE(recovered_n, n) << "lost acked items at crash point " << k;
      EXPECT_EQ(recovered_n % 50, 0u) << "partial batch at crash point "
                                      << k;

      // Bit-identical to a reference engine fed the recovered prefix.
      const size_t metric_index = name == "sweep/a" ? 0 : 1;
      SketchRegistry reference;
      auto ref_engine = reference.Create(name, PlainSpec());
      for (size_t b = 0; b < recovered_n / 50; ++b) {
        const std::vector<double> batch = ScriptBatch(metric_index, b);
        ref_engine->Append(batch.data(), batch.size());
      }
      EXPECT_EQ(engine->Snapshot(), ref_engine->Snapshot())
          << "state diverged at crash point " << k << " for " << name;
    }
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace persist
}  // namespace req
