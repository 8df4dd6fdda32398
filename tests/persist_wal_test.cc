// Durability-layer unit tests: CRC framing, segment/checkpoint file
// round trips and torn-tail semantics, MetricLog append/checkpoint/
// rotation/GC, and full DurabilityManager + SketchRegistry recovery --
// including the bit-identical-state guarantee for all three engine
// kinds (tests/persist_crash_recovery_test.cc proves the same invariant
// against a SIGKILLed daemon process).
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "persist/crc32c.h"
#include "persist/durability.h"
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
  const std::string dir = ::testing::TempDir() + "req_persist_" + tag +
                          "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<double> TestStream(uint64_t seed, size_t count) {
  util::Xoshiro256 rng(seed);
  std::vector<double> values(count);
  for (double& v : values) v = rng.NextDouble() * 1e6;
  return values;
}

MetricLogOptions TestLogOptions() {
  MetricLogOptions options;
  options.fsync = FsyncPolicy::kNever;  // unit tests need no durability
  return options;
}

void TruncateFile(const std::string& path, size_t new_size) {
  ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(new_size)), 0);
}

// --- crc32c -----------------------------------------------------------------

TEST(Crc32c, KnownAnswers) {
  // The canonical CRC32C check vector (RFC 3720 appendix B.4).
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  const std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
}

TEST(Crc32c, DetectsSingleBitFlips) {
  std::vector<uint8_t> data(100);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 37);
  }
  const uint32_t clean = Crc32c(data.data(), data.size());
  for (size_t byte = 0; byte < data.size(); byte += 7) {
    data[byte] ^= 0x10;
    EXPECT_NE(Crc32c(data.data(), data.size()), clean);
    data[byte] ^= 0x10;
  }
}

// --- file naming ------------------------------------------------------------

TEST(LogFileNames, RoundTrip) {
  EXPECT_EQ(SegmentFileName(0), "wal-0000000000000000.log");
  EXPECT_EQ(CheckpointFileName(0x1234abcd), "ckpt-000000001234abcd.snap");
  EXPECT_EQ(ParseLsnFileName(SegmentFileName(42), "wal-", ".log"),
            std::optional<uint64_t>(42));
  EXPECT_EQ(ParseLsnFileName(CheckpointFileName(~uint64_t{0}), "ckpt-",
                             ".snap"),
            std::optional<uint64_t>(~uint64_t{0}));
  EXPECT_FALSE(ParseLsnFileName("wal-123.log", "wal-", ".log"));
  EXPECT_FALSE(ParseLsnFileName("wal-000000000000000G.log", "wal-", ".log"));
  EXPECT_FALSE(ParseLsnFileName("ckpt-0000000000000000.snap", "wal-",
                                ".log"));
}

// --- segment files ----------------------------------------------------------

TEST(SegmentFile, RoundTrip) {
  const std::string dir = MakeTempDir("segment_roundtrip");
  const std::string path = dir + "/" + SegmentFileName(7);
  {
    AppendFile file = CreateSegmentFile(path, kSegmentMagic, 7, nullptr);
    AppendRecord(&file, {1, 2, 3});
    AppendRecord(&file, {0xff});
    AppendRecord(&file, std::vector<uint8_t>(1000, 0xab));
  }
  const auto contents = ReadSegmentFile(path, kSegmentMagic);
  ASSERT_TRUE(contents.has_value());
  EXPECT_EQ(contents->first_lsn, 7u);
  EXPECT_TRUE(contents->clean_tail);
  ASSERT_EQ(contents->records.size(), 3u);
  EXPECT_EQ(contents->records[0], (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(contents->records[2], std::vector<uint8_t>(1000, 0xab));

  EXPECT_FALSE(ReadSegmentFile(path, kManifestMagic).has_value());
  EXPECT_FALSE(ReadSegmentFile(dir + "/nope", kSegmentMagic).has_value());
}

TEST(SegmentFile, TornTailYieldsLongestValidPrefix) {
  const std::string dir = MakeTempDir("segment_torn");
  const std::string path = dir + "/" + SegmentFileName(0);
  {
    AppendFile file = CreateSegmentFile(path, kSegmentMagic, 0, nullptr);
    AppendRecord(&file, std::vector<uint8_t>(64, 1));
    AppendRecord(&file, std::vector<uint8_t>(64, 2));
    AppendRecord(&file, std::vector<uint8_t>(64, 3));
  }
  const size_t full = std::filesystem::file_size(path);
  // Cut into the third record's payload: two records survive.
  TruncateFile(path, full - 10);
  auto contents = ReadSegmentFile(path, kSegmentMagic);
  ASSERT_TRUE(contents.has_value());
  EXPECT_EQ(contents->records.size(), 2u);
  EXPECT_FALSE(contents->clean_tail);
  // Cut into the second record's 8-byte frame header: one record.
  TruncateFile(path, 16 + 8 + 64 + 3);
  contents = ReadSegmentFile(path, kSegmentMagic);
  ASSERT_TRUE(contents.has_value());
  EXPECT_EQ(contents->records.size(), 1u);
  // Cut into the 16-byte file header: no usable file at all.
  TruncateFile(path, 9);
  EXPECT_FALSE(ReadSegmentFile(path, kSegmentMagic).has_value());
}

// --- checkpoint files -------------------------------------------------------

TEST(CheckpointFile, RoundTripAndAllOrNothing) {
  const std::string dir = MakeTempDir("ckpt");
  CheckpointContents contents;
  contents.lsn = 12;
  contents.accepted_n = 34567;
  contents.blob = std::vector<uint8_t>(257, 0x5c);
  WriteCheckpointFile(dir, CheckpointFileName(12), contents, nullptr);
  const std::string path = dir + "/" + CheckpointFileName(12);

  const auto loaded = ReadCheckpointFile(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->lsn, 12u);
  EXPECT_EQ(loaded->accepted_n, 34567u);
  EXPECT_EQ(loaded->blob, contents.blob);
  // The tmp file must not linger after the rename.
  EXPECT_FALSE(std::filesystem::exists(dir + "/ckpt.tmp"));

  // Truncation anywhere rejects the whole checkpoint.
  const size_t full = std::filesystem::file_size(path);
  TruncateFile(path, full - 1);
  EXPECT_FALSE(ReadCheckpointFile(path).has_value());
  TruncateFile(path, 20);
  EXPECT_FALSE(ReadCheckpointFile(path).has_value());
}

// --- MetricLog --------------------------------------------------------------

TEST(MetricLog, AppendsRecoverInOrder) {
  const std::string dir = MakeTempDir("mlog_basic");
  const std::vector<double> b0 = {1.0, 2.0, 3.0};
  const std::vector<double> b1 = {4.5};
  const std::vector<double> b2 = {6.0, 7.0};
  {
    MetricLog log(dir, "m", /*next_lsn=*/0, TestLogOptions());
    EXPECT_EQ(log.AppendBatch(b0.data(), b0.size()), 0u);
    EXPECT_EQ(log.AppendBatch(b1.data(), b1.size()), 1u);
    EXPECT_EQ(log.AppendBatch(b2.data(), b2.size()), 2u);
    EXPECT_EQ(log.next_lsn(), 3u);
  }
  const RecoveredMetricState state = ReadMetricState(dir, "m");
  EXPECT_TRUE(state.snapshot_blob.empty());
  EXPECT_EQ(state.snapshot_lsn, 0u);
  ASSERT_EQ(state.batches.size(), 3u);
  EXPECT_EQ(state.batches[0], b0);
  EXPECT_EQ(state.batches[1], b1);
  EXPECT_EQ(state.batches[2], b2);
  EXPECT_EQ(state.next_lsn, 3u);
}

TEST(MetricLog, CheckpointRotatesAndCollectsGarbage) {
  const std::string dir = MakeTempDir("mlog_ckpt");
  const std::vector<double> batch = {1.0, 2.0};
  const std::vector<uint8_t> blob = {9, 9, 9, 9};
  {
    MetricLog log(dir, "m", 0, TestLogOptions());
    log.AppendBatch(batch.data(), batch.size());
    log.AppendBatch(batch.data(), batch.size());
    log.WriteCheckpoint(log.next_lsn(), /*accepted_n=*/4, blob);
    // The pre-checkpoint segment and any older checkpoint are gone.
    EXPECT_FALSE(
        std::filesystem::exists(dir + "/" + SegmentFileName(0)));
    EXPECT_TRUE(std::filesystem::exists(dir + "/" + SegmentFileName(2)));
    EXPECT_TRUE(
        std::filesystem::exists(dir + "/" + CheckpointFileName(2)));
    log.AppendBatch(batch.data(), batch.size());
  }
  const RecoveredMetricState state = ReadMetricState(dir, "m");
  EXPECT_EQ(state.snapshot_blob, blob);
  EXPECT_EQ(state.snapshot_lsn, 2u);
  EXPECT_EQ(state.snapshot_accepted_n, 4u);
  ASSERT_EQ(state.batches.size(), 1u);  // only the post-checkpoint tail
  EXPECT_EQ(state.next_lsn, 3u);
}

TEST(MetricLog, RecoveryContinuesAcrossSegmentBoundary) {
  const std::string dir = MakeTempDir("mlog_boundary");
  const std::vector<double> batch = {3.25};
  {
    MetricLog log(dir, "m", 0, TestLogOptions());
    for (int i = 0; i < 3; ++i) log.AppendBatch(batch.data(), batch.size());
  }
  // A second log generation starting where the first left off -- the
  // shape a recovery (which opens a fresh segment at next_lsn) leaves.
  {
    MetricLog log(dir, "m", 3, TestLogOptions());
    for (int i = 0; i < 2; ++i) log.AppendBatch(batch.data(), batch.size());
  }
  RecoveredMetricState state = ReadMetricState(dir, "m");
  EXPECT_EQ(state.batches.size(), 5u);
  EXPECT_EQ(state.next_lsn, 5u);

  // A GAP between segments (lost file) stops the scan at the gap:
  // nothing past it was ever acknowledged contiguously.
  {
    MetricLog log(dir, "m", 9, TestLogOptions());
    log.AppendBatch(batch.data(), batch.size());
  }
  state = ReadMetricState(dir, "m");
  EXPECT_EQ(state.batches.size(), 5u);
  EXPECT_EQ(state.next_lsn, 5u);
}

TEST(MetricLog, TornTailIsDiscardedOnRecovery) {
  const std::string dir = MakeTempDir("mlog_torn");
  const std::vector<double> batch = {1.0, 2.0, 3.0, 4.0};
  {
    MetricLog log(dir, "m", 0, TestLogOptions());
    for (int i = 0; i < 4; ++i) log.AppendBatch(batch.data(), batch.size());
  }
  const std::string seg = dir + "/" + SegmentFileName(0);
  TruncateFile(seg, std::filesystem::file_size(seg) - 5);
  const RecoveredMetricState state = ReadMetricState(dir, "m");
  EXPECT_EQ(state.batches.size(), 3u);
  EXPECT_EQ(state.next_lsn, 3u);
}

// --- DurabilityManager + SketchRegistry ------------------------------------

MetricSpec SpecOf(EngineKind kind) {
  MetricSpec spec;
  spec.kind = kind;
  spec.base.k_base = 32;
  return spec;
}

DurabilityOptions TestDurabilityOptions() {
  DurabilityOptions options;
  options.fsync = FsyncPolicy::kNever;
  return options;
}

TEST(Durability, RecoversAllEngineKindsBitIdentically) {
  const std::string dir = MakeTempDir("recover_all_kinds");
  const std::vector<std::pair<std::string, EngineKind>> metrics = {
      {"svc/plain", EngineKind::kPlain},
      {"svc/sharded", EngineKind::kSharded},
      {"svc/window", EngineKind::kWindowed},
  };
  std::vector<std::vector<uint8_t>> reference(metrics.size());
  std::vector<uint64_t> reference_n(metrics.size());
  {
    DurabilityManager manager(dir, TestDurabilityOptions());
    SketchRegistry registry;
    manager.RecoverInto(&registry);  // empty dir: just wires the hook
    for (const auto& [name, kind] : metrics) {
      registry.Create(name, SpecOf(kind));
    }
    // Interleave batches across metrics; checkpoint ONE metric midway so
    // recovery exercises both snapshot+tail and pure-replay paths.
    for (size_t round = 0; round < 20; ++round) {
      for (size_t m = 0; m < metrics.size(); ++m) {
        const std::vector<double> batch =
            TestStream(100 * m + round, 97 + 13 * m);
        registry.Require(metrics[m].first)
            ->Append(batch.data(), batch.size());
      }
      if (round == 11) {
        registry.Require(metrics[1].first)->ForceCheckpoint();
      }
    }
    for (size_t m = 0; m < metrics.size(); ++m) {
      auto engine = registry.Require(metrics[m].first);
      reference[m] = engine->Snapshot();
      reference_n[m] = engine->AcceptedN();
    }
    // No graceful shutdown: the registry and manager just go away, like
    // a crash with a cleanly flushed page cache.
  }
  {
    DurabilityManager manager(dir, TestDurabilityOptions());
    SketchRegistry registry;
    manager.RecoverInto(&registry);
    ASSERT_EQ(registry.size(), metrics.size());
    for (size_t m = 0; m < metrics.size(); ++m) {
      auto engine = registry.Require(metrics[m].first);
      EXPECT_EQ(engine->AcceptedN(), reference_n[m]) << metrics[m].first;
      EXPECT_EQ(engine->Snapshot(), reference[m])
          << "recovered state differs for " << metrics[m].first;
    }
  }
}

TEST(Durability, DropIsDurableAndRemovesFiles) {
  const std::string dir = MakeTempDir("drop");
  const std::vector<double> batch = {1.0, 2.0, 3.0};
  {
    DurabilityManager manager(dir, TestDurabilityOptions());
    SketchRegistry registry;
    manager.RecoverInto(&registry);
    registry.Create("keep", SpecOf(EngineKind::kPlain));
    registry.Create("drop-me", SpecOf(EngineKind::kPlain));
    registry.Require("drop-me")->Append(batch.data(), batch.size());
    ASSERT_TRUE(registry.Drop("drop-me"));
  }
  {
    DurabilityManager manager(dir, TestDurabilityOptions());
    SketchRegistry registry;
    manager.RecoverInto(&registry);
    EXPECT_EQ(registry.size(), 1u);
    EXPECT_NE(registry.Find("keep"), nullptr);
    EXPECT_EQ(registry.Find("drop-me"), nullptr);
  }
  // Exactly one metric directory remains after GC.
  size_t metric_dirs = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_directory()) ++metric_dirs;
  }
  EXPECT_EQ(metric_dirs, 1u);
}

TEST(Durability, CreateDropChurnSurvivesRepeatedRecovery) {
  const std::string dir = MakeTempDir("churn");
  const std::vector<double> batch = {42.0};
  for (int generation = 0; generation < 4; ++generation) {
    DurabilityManager manager(dir, TestDurabilityOptions());
    SketchRegistry registry;
    manager.RecoverInto(&registry);
    EXPECT_EQ(registry.size(), generation == 0 ? 0u : 1u);
    // Same NAME re-created each generation -- ids must not collide.
    if (generation > 0) {
      EXPECT_EQ(registry.Require("churn")->AcceptedN(),
                static_cast<uint64_t>(generation));
      registry.Drop("churn");
    }
    registry.Create("churn", SpecOf(EngineKind::kPlain));
    for (int i = 0; i <= generation; ++i) {
      registry.Require("churn")->Append(batch.data(), batch.size());
    }
  }
}

TEST(Durability, GracefulCheckpointLeavesEmptyReplayTail) {
  const std::string dir = MakeTempDir("graceful");
  std::vector<uint8_t> reference;
  {
    DurabilityManager manager(dir, TestDurabilityOptions());
    SketchRegistry registry;
    manager.RecoverInto(&registry);
    registry.Create("m", SpecOf(EngineKind::kPlain));
    auto engine = registry.Require("m");
    const std::vector<double> stream = TestStream(7, 5000);
    engine->Append(stream.data(), stream.size());
    engine->ForceCheckpoint();
    reference = engine->Snapshot();
  }
  // The WAL tail after a graceful shutdown is empty: recovery loads the
  // checkpoint and replays nothing.
  {
    const auto entries = std::filesystem::directory_iterator(dir);
    std::string metric_dir;
    for (const auto& entry : entries) {
      if (entry.is_directory()) metric_dir = entry.path().string();
    }
    ASSERT_FALSE(metric_dir.empty());
    const RecoveredMetricState state = ReadMetricState(metric_dir, "m");
    EXPECT_FALSE(state.snapshot_blob.empty());
    EXPECT_TRUE(state.batches.empty());
  }
  {
    DurabilityManager manager(dir, TestDurabilityOptions());
    SketchRegistry registry;
    manager.RecoverInto(&registry);
    EXPECT_EQ(registry.Require("m")->Snapshot(), reference);
  }
}

TEST(Durability, MetricNamesWithSlashesGetSafeDirectories) {
  const std::string dir = MakeTempDir("slashes");
  const std::vector<double> batch = {1.5, 2.5};
  {
    DurabilityManager manager(dir, TestDurabilityOptions());
    SketchRegistry registry;
    manager.RecoverInto(&registry);
    registry.Create("a/b/../c", SpecOf(EngineKind::kPlain));
    registry.Require("a/b/../c")->Append(batch.data(), batch.size());
  }
  {
    DurabilityManager manager(dir, TestDurabilityOptions());
    SketchRegistry registry;
    manager.RecoverInto(&registry);
    EXPECT_EQ(registry.Require("a/b/../c")->AcceptedN(), 2u);
  }
  // Nothing escaped the data dir (the metric dir is id-based).
  EXPECT_FALSE(std::filesystem::exists(dir + "/a"));
}

}  // namespace
}  // namespace persist
}  // namespace req
