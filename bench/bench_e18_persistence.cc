// E18: durability-subsystem overhead and recovery speed.
//
// Claim under test: the per-metric WAL (persist/) makes appends durable
// for a bounded, policy-dependent cost -- with fsync off the logging
// overhead is a modest fraction of the in-memory append path (the record
// is one buffered write of the already-encoded wire batch), and recovery
// replays the log at engine append speed, so startup time is linear in
// the un-checkpointed tail and collapses to snapshot-load time once a
// checkpoint exists.
//
// Setup (all in-process, no TCP -- the wire cost is E17's metric):
//   1. append `items` doubles in `batch`-sized batches into one plain
//      metric under four durability modes: none (no WAL wired),
//      wal_nosync (fsync=never), wal_interval (50ms), wal_always;
//   2. recovery sweep: build a data dir whose WAL holds B batches (with
//      and without a final checkpoint), then time DurabilityManager
//      construction + RecoverInto on a fresh registry.
//
// Gating: the `append_mups` of the `none` and `wal_nosync` rows and the
// summary `replay_mups` are the stable, CPU-bound figures the CI smoke
// gate compares; fsync costs and recovery wall times are reported as
// ungated `*_ms` fields (they track the runner's disk, not the code).
//
// Usage: bench_e18_persistence [--smoke] [--items N] [--out FILE]
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "persist/durability.h"
#include "service/sketch_registry.h"
#include "util/random.h"

namespace {

using req::bench::Clock;
using req::bench::JsonWriter;
using req::bench::SecondsSince;
using req::persist::DurabilityManager;
using req::persist::DurabilityOptions;
using req::persist::FsyncPolicy;
using req::service::EngineKind;
using req::service::MetricSpec;
using req::service::SketchRegistry;

constexpr uint32_t kKBase = 64;

MetricSpec PlainSpec() {
  MetricSpec spec;
  spec.kind = EngineKind::kPlain;
  spec.base.k_base = kKBase;
  return spec;
}

std::string FreshDir(const std::string& tag) {
  const std::string dir = std::filesystem::temp_directory_path().string() +
                          "/req_e18_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

// Appends `items` doubles in batches through `engine`, returns wall
// seconds.
template <typename Engine>
double TimedLoad(Engine* engine, size_t items, size_t batch) {
  req::util::Xoshiro256 rng(4242);
  std::vector<double> chunk(batch);
  const auto start = Clock::now();
  for (size_t sent = 0; sent < items; sent += chunk.size()) {
    const size_t len = std::min(chunk.size(), items - sent);
    for (size_t i = 0; i < len; ++i) chunk[i] = rng.NextDouble() * 1e6;
    engine->Append(chunk.data(), len);
  }
  req::bench::g_sink += engine->AcceptedN();
  return SecondsSince(start);
}

struct ModeResult {
  std::string mode;
  double wall_s = 0.0;
  double append_mups = 0.0;
  double batch_ms = 0.0;  // mean wall cost per acknowledged batch
  uint64_t wal_bytes = 0;
};

ModeResult RunMode(const std::string& mode, FsyncPolicy policy,
                   bool durable, size_t items, size_t batch) {
  ModeResult result;
  result.mode = mode;
  const size_t batches = (items + batch - 1) / batch;
  if (!durable) {
    SketchRegistry registry;
    auto engine = registry.Create("e18", PlainSpec());
    result.wall_s = TimedLoad(engine.get(), items, batch);
  } else {
    const std::string dir = FreshDir(mode);
    {
      DurabilityOptions options;
      options.fsync = policy;
      // No mid-run checkpoints: the append figure measures pure logging.
      options.checkpoint_bytes = uint64_t{1} << 40;
      DurabilityManager manager(dir, options);
      SketchRegistry registry;
      manager.RecoverInto(&registry);
      auto engine = registry.Create("e18", PlainSpec());
      result.wall_s = TimedLoad(engine.get(), items, batch);
      result.wal_bytes = DirBytes(dir);
    }
    std::filesystem::remove_all(dir);
  }
  result.append_mups = static_cast<double>(items) / result.wall_s / 1e6;
  result.batch_ms = result.wall_s * 1e3 / static_cast<double>(batches);
  return result;
}

struct RecoveryResult {
  uint64_t batches = 0;
  bool checkpoint = false;
  double recover_ms = 0.0;
  uint64_t recovered_items = 0;
  uint64_t tail_bytes = 0;
};

// Builds a data dir whose WAL tail holds `batches` batches (optionally
// checkpointed away at the end), then times a cold recovery of it.
RecoveryResult RunRecovery(uint64_t batches, bool checkpoint,
                           size_t batch) {
  const std::string dir = FreshDir(
      "rec_" + std::to_string(batches) + (checkpoint ? "_ckpt" : "_wal"));
  {
    DurabilityOptions options;
    options.fsync = FsyncPolicy::kNever;
    options.checkpoint_bytes = uint64_t{1} << 40;
    DurabilityManager manager(dir, options);
    SketchRegistry registry;
    manager.RecoverInto(&registry);
    auto engine = registry.Create("e18", PlainSpec());
    req::util::Xoshiro256 rng(99);
    std::vector<double> chunk(batch);
    for (uint64_t b = 0; b < batches; ++b) {
      for (double& v : chunk) v = rng.NextDouble() * 1e6;
      engine->Append(chunk.data(), chunk.size());
    }
    if (checkpoint) engine->ForceCheckpoint();
  }

  RecoveryResult result;
  result.batches = batches;
  result.checkpoint = checkpoint;
  result.tail_bytes = DirBytes(dir);
  const auto start = Clock::now();
  {
    DurabilityOptions options;
    options.fsync = FsyncPolicy::kNever;
    DurabilityManager manager(dir, options);
    SketchRegistry registry;
    manager.RecoverInto(&registry);
    result.recovered_items = registry.Require("e18")->AcceptedN();
  }
  result.recover_ms = SecondsSince(start) * 1e3;
  std::filesystem::remove_all(dir);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  req::bench::BenchArgs args = req::bench::ParseBenchArgs(
      argc, argv, "BENCH_e18_persistence.json");
  if (!args.ok) return 2;
  // Like E17, smoke shrinks the sweep but keeps per-mode volume large
  // enough that the gated Mups figures integrate over >= tens of ms.
  const size_t items = args.items > 0 ? args.items
                       : args.smoke   ? 500000
                                      : 2000000;
  const size_t batch = 2048;
  const std::vector<uint64_t> recovery_batches =
      args.smoke ? std::vector<uint64_t>{64, 256}
                 : std::vector<uint64_t>{64, 256, 1024};

  req::bench::PrintBanner(
      "E18: durability (per-metric WAL + checkpoints, persist/)",
      "WAL-on append overhead is bounded; recovery is linear in the "
      "un-checkpointed tail and ~free after a checkpoint");

  std::printf("%13s %12s %14s %12s %12s\n", "mode", "wall s",
              "append Mups", "ms/batch", "WAL MiB");
  const std::vector<std::pair<std::string, FsyncPolicy>> wal_modes = {
      {"wal_nosync", FsyncPolicy::kNever},
      {"wal_interval", FsyncPolicy::kInterval},
      {"wal_always", FsyncPolicy::kAlways},
  };
  std::vector<ModeResult> modes;
  modes.push_back(RunMode("none", FsyncPolicy::kNever, /*durable=*/false,
                          items, batch));
  for (const auto& [mode, policy] : wal_modes) {
    modes.push_back(RunMode(mode, policy, /*durable=*/true, items, batch));
  }
  for (const ModeResult& m : modes) {
    std::printf("%13s %12.4f %14.2f %12.4f %12.2f\n", m.mode.c_str(),
                m.wall_s, m.append_mups, m.batch_ms,
                static_cast<double>(m.wal_bytes) / (1 << 20));
  }

  std::printf("\n%10s %12s %14s %16s %12s\n", "batches", "checkpoint",
              "recover ms", "items replayed", "tail MiB");
  std::vector<RecoveryResult> recoveries;
  for (uint64_t b : recovery_batches) {
    for (bool checkpoint : {false, true}) {
      recoveries.push_back(RunRecovery(b, checkpoint, batch));
      const RecoveryResult& r = recoveries.back();
      std::printf("%10llu %12s %14.2f %16llu %12.2f\n",
                  static_cast<unsigned long long>(r.batches),
                  r.checkpoint ? "yes" : "no", r.recover_ms,
                  static_cast<unsigned long long>(r.recovered_items),
                  static_cast<double>(r.tail_bytes) / (1 << 20));
    }
  }

  // Summary: logging overhead (nosync vs none), the fsync=always batch
  // cost, and replay speed over the longest un-checkpointed tail.
  const double none_mups = modes[0].append_mups;
  const double nosync_mups = modes[1].append_mups;
  const double overhead_pct =
      none_mups > 0.0 ? (none_mups / nosync_mups - 1.0) * 100.0 : 0.0;
  double always_batch_ms = 0.0;
  for (const ModeResult& m : modes) {
    if (m.mode == "wal_always") always_batch_ms = m.batch_ms;
  }
  double replay_mups = 0.0;
  for (const RecoveryResult& r : recoveries) {
    if (!r.checkpoint && r.recover_ms > 0.0) {
      replay_mups = static_cast<double>(r.recovered_items) /
                    (r.recover_ms * 1e3);  // items / us == Mitems/s
    }
  }
  std::printf("\nWAL(nosync) overhead vs none: %.1f%%   "
              "fsync=always: %.4f ms/batch   replay: %.2f Mups\n",
              overhead_pct, always_batch_ms, replay_mups);

  JsonWriter json;
  json.BeginObject()
      .Field("experiment", "e18_persistence")
      .Field("items", static_cast<uint64_t>(items))
      .Field("batch", static_cast<uint64_t>(batch))
      .Field("smoke", args.smoke)
      .BeginArray("results");
  for (const ModeResult& m : modes) {
    // append_mups gates only where it measures code, not the disk: the
    // fsync modes report the ungated ms/batch figure instead.
    const bool gate = m.mode == "none" || m.mode == "wal_nosync";
    json.BeginObject().Field("mode", m.mode).Field("wall_s", m.wall_s);
    if (gate) {
      json.Field("append_mups", m.append_mups);
    } else {
      json.Field("append_rate", m.append_mups);  // no gated tag
    }
    json.Field("batch_cost_ms", m.batch_ms)
        .Field("wal_bytes", m.wal_bytes)
        .EndObject();
  }
  json.EndArray().BeginArray("recovery");
  for (const RecoveryResult& r : recoveries) {
    json.BeginObject()
        .Field("batches", r.batches)
        .Field("checkpoint", r.checkpoint)
        .Field("recover_ms", r.recover_ms)
        .Field("recovered_items", r.recovered_items)
        .Field("tail_bytes", r.tail_bytes)
        .EndObject();
  }
  json.EndArray().BeginArray("summary");
  json.BeginObject()
      .Field("wal_nosync_overhead_pct", overhead_pct)
      .Field("fsync_always_batch_ms", always_batch_ms)
      .Field("replay_mups", replay_mups)
      .EndObject();
  json.EndArray().EndObject();
  if (!json.WriteFile(args.out)) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", args.out.c_str());
  return 0;
}
