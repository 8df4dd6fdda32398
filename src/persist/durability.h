// DurabilityManager: the directory level of the persistence subsystem.
// Owns data_dir/, whose layout is
//
//   manifest.log     directory log: which metrics exist, their specs, and
//                    their directory ids. Records are
//                    u64 id | wire-encoded CREATE or DROP request -- the
//                    same encoding trick as the per-metric WAL, framed by
//                    the same CRC records (persist/log_file.h).
//   m<id>/           one directory per live metric (ids, not names:
//                    metric names are arbitrary printable ASCII and may
//                    contain '/'), managed by persist::MetricLog.
//
// A SketchRegistry with SetDurability() wired calls the manager's
// lifecycle methods (OnCreate/OnDrop under its exclusive directory lock,
// which doubles as the manifest's write serialization; OnEvict/
// OnRehydrate under the metric's lifecycle lock).
// Manifest appends are ALWAYS fsynced -- a lost data batch costs one
// batch, a lost CREATE orphans a whole metric directory.
//
// Recovery (RecoverInto, called before the server starts accepting):
//   1. replay the manifest's valid prefix -> the live id/name/spec map
//      (a torn manifest tail is an unacknowledged CREATE/DROP: dropped);
//   2. per metric, load the newest CRC-valid checkpoint and replay the
//      WAL tail through the registry's CreateRecovered engine -- the
//      engines' batch determinism plus ReqSerde v2's exact PRNG state
//      make the result bit-identical to the pre-crash engine state;
//   3. attach a fresh MetricLog AFTER replay (replayed batches must not
//      be re-logged), compact the manifest, and delete directories the
//      manifest no longer references.
#ifndef REQSKETCH_PERSIST_DURABILITY_H_
#define REQSKETCH_PERSIST_DURABILITY_H_

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "persist/io_injector.h"
#include "persist/log_file.h"
#include "persist/metric_log.h"
#include "service/wire_protocol.h"
#include "util/validation.h"

namespace req {
namespace persist {

struct DurabilityOptions {
  FsyncPolicy fsync = FsyncPolicy::kInterval;
  uint64_t fsync_interval_ms = 50;
  uint64_t checkpoint_bytes = uint64_t{4} << 20;
  IoInjector* io = nullptr;
};

// What OnRehydrate hands back for an evicted metric being touched again:
// the durable state to rebuild the engine from, plus a fresh WAL opened at
// the state's next LSN for the rebuilt engine to append to.
struct RehydratedMetric {
  RecoveredMetricState state;
  std::shared_ptr<MetricLog> log;
};

class DurabilityManager {
 public:
  // Opens (creating if absent) the data directory and loads the manifest.
  // Throws IoError when the directory cannot be created or written.
  DurabilityManager(std::string data_dir, const DurabilityOptions& options)
      : data_dir_(std::move(data_dir)), options_(options) {
    std::error_code ec;
    std::filesystem::create_directories(data_dir_, ec);
    if (ec) {
      throw IoError("cannot create data dir " + data_dir_ + ": " +
                    ec.message());
    }
    LoadManifest();
    // Rewrite immediately: appending after a torn manifest tail would
    // strand the new records behind unreachable bytes (the reader stops
    // at the tear). Compaction guarantees a clean-tailed, open manifest
    // before the first OnCreate.
    CompactManifest();
  }

  DurabilityManager(const DurabilityManager&) = delete;
  DurabilityManager& operator=(const DurabilityManager&) = delete;

  const std::string& data_dir() const { return data_dir_; }
  size_t live_metrics() const { return live_.size(); }

  // --- registry lifecycle ---------------------------------------------------

  // The name is known-free. Returns the new metric's WAL (never null);
  // throwing IoError aborts the CREATE before the registry publishes it.
  std::shared_ptr<MetricLog> OnCreate(const std::string& name,
                                      const service::MetricSpec& spec) {
    std::lock_guard<std::mutex> lock(mutex_);
    const uint64_t id = next_id_++;
    // Manifest first, then the directory: a manifest entry pointing at a
    // missing directory recovers as an empty metric (correct -- nothing
    // was ever appended), while an orphan directory would leak.
    AppendManifestRecord(id, MakeCreateRequest(name, spec));
    const std::string dir = MetricDirPath(id);
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      throw IoError("cannot create metric dir " + dir + ": " +
                    ec.message());
    }
    auto log = std::make_shared<MetricLog>(dir, name, /*next_lsn=*/0,
                                           LogOptions());
    live_.emplace(name, Entry{id, spec, log});
    return log;
  }

  void OnDrop(const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = live_.find(name);
    if (it == live_.end()) return;
    service::Request request;
    request.op = service::Opcode::kDrop;
    request.metric = name;
    AppendManifestRecord(it->second.id, request);
    // The drop is durable; in-flight engine handles go quiet and the
    // files go away (open fds keep working on POSIX until closed).
    if (it->second.log) it->second.log->MarkDropped();
    std::error_code ec;
    std::filesystem::remove_all(MetricDirPath(it->second.id), ec);
    live_.erase(it);
  }

  // The metric checkpointed and closed its WAL (idle eviction). Only the
  // manager's handle is released -- the metric stays manifest-live and
  // its directory keeps the checkpoint the next touch rehydrates from.
  void OnEvict(const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = live_.find(name);
    if (it != live_.end()) it->second.log.reset();
  }

  // An evicted metric was touched: reload its durable state and open a
  // fresh WAL at the recovered next LSN. The eviction checkpoint rotated
  // the WAL to an empty segment at that LSN, so the MetricLog
  // constructor's same-name truncation cannot discard acknowledged data
  // (the retired engine stopped appending before the checkpoint).
  RehydratedMetric OnRehydrate(const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = live_.find(name);
    if (it == live_.end()) {
      throw IoError("metric '" + name + "' is not manifest-live");
    }
    const std::string dir = MetricDirPath(it->second.id);
    RehydratedMetric rehydrated;
    rehydrated.state = ReadMetricState(dir, name);
    rehydrated.log = std::make_shared<MetricLog>(
        dir, name, rehydrated.state.next_lsn, LogOptions());
    it->second.log = rehydrated.log;
    return rehydrated;
  }

  // --- recovery -------------------------------------------------------------

  // Rebuilds every manifest-live metric inside `registry` (which must
  // expose CreateRecovered/SetDurability as SketchRegistry does), wires
  // this manager as its durability hook, and garbage-collects
  // unreferenced metric directories. Single-threaded, before serving.
  template <typename Registry>
  void RecoverInto(Registry* registry) {
    for (auto& [name, entry] : live_) {
      const std::string dir = MetricDirPath(entry.id);
      std::error_code ec;
      std::filesystem::create_directories(dir, ec);  // CREATE-crash case
      RecoveredMetricState state = ReadMetricState(dir, name);
      auto engine = registry->CreateRecovered(
          name, entry.spec, state.snapshot_blob, state.snapshot_accepted_n,
          state.snapshot_lsn);
      for (const auto& batch : state.batches) {
        engine->Append(batch.data(), batch.size());
      }
      // The log attaches only now: replay must not re-log its own input.
      entry.log = std::make_shared<MetricLog>(dir, name, state.next_lsn,
                                              LogOptions());
      engine->SetLog(entry.log);
    }
    CollectGarbageDirs();
    registry->SetDurability(this);
  }

 private:
  struct Entry {
    uint64_t id = 0;
    service::MetricSpec spec;
    std::shared_ptr<MetricLog> log;
  };

  MetricLogOptions LogOptions() const {
    MetricLogOptions log_options;
    log_options.fsync = options_.fsync;
    log_options.fsync_interval_ms = options_.fsync_interval_ms;
    log_options.checkpoint_bytes = options_.checkpoint_bytes;
    log_options.io = options_.io;
    return log_options;
  }

  std::string ManifestPath() const { return data_dir_ + "/manifest.log"; }
  std::string MetricDirPath(uint64_t id) const {
    return data_dir_ + "/m" + std::to_string(id);
  }

  static service::Request MakeCreateRequest(const std::string& name,
                                            const service::MetricSpec& spec) {
    service::Request request;
    request.op = service::Opcode::kCreate;
    request.metric = name;
    request.spec = spec;
    return request;
  }

  // manifest record payload := u64 id | wire-encoded CREATE/DROP request
  static std::vector<uint8_t> EncodeManifestRecord(
      uint64_t id, const service::Request& request) {
    std::vector<uint8_t> payload(8);
    std::memcpy(payload.data(), &id, 8);
    const std::vector<uint8_t> body = service::EncodeRequest(request);
    payload.insert(payload.end(), body.begin(), body.end());
    return payload;
  }

  void AppendManifestRecord(uint64_t id, const service::Request& request) {
    // A previous failure may have torn the manifest tail (records after a
    // tear are unreachable to the prefix-scanning reader) or lost the fd
    // mid-compaction. live_ is the in-memory truth, so rebuilding the
    // manifest from it restores a clean tail before logging anything new.
    if (manifest_failed_ || !manifest_.valid()) CompactManifest();
    manifest_failed_ = false;
    try {
      AppendRecord(&manifest_, EncodeManifestRecord(id, request));
      manifest_.Fsync();  // directory changes are always durable
    } catch (...) {
      manifest_failed_ = true;
      throw;
    }
  }

  // Replays the manifest's valid prefix into live_/next_id_. A later
  // CREATE of a dropped name simply maps the name to its newest id.
  void LoadManifest() {
    const auto contents = ReadSegmentFile(ManifestPath(), kManifestMagic);
    if (!contents) {
      // Missing or headerless manifest: an empty directory (first boot,
      // or a crash before the first CREATE's record landed).
      return;
    }
    for (const auto& record : contents->records) {
      util::CheckData(record.size() > 8, "manifest record too short");
      uint64_t id = 0;
      std::memcpy(&id, record.data(), 8);
      const service::Request request = service::ParseRequest(
          std::vector<uint8_t>(record.begin() + 8, record.end()));
      if (id >= next_id_) next_id_ = id + 1;
      if (request.op == service::Opcode::kCreate) {
        live_[request.metric] = Entry{id, request.spec, nullptr};
      } else if (request.op == service::Opcode::kDrop) {
        live_.erase(request.metric);
      } else {
        util::CheckData(false, "manifest record is not CREATE/DROP");
      }
    }
  }

  // Rewrites the manifest as one CREATE per live metric (tmp + fsync +
  // rename + dir fsync), so it never grows with churn and a half-written
  // historical tail cannot shadow the compacted truth.
  void CompactManifest() {
    const std::string tmp_path = data_dir_ + "/manifest.tmp";
    {
      AppendFile tmp = CreateSegmentFile(tmp_path, kManifestMagic,
                                         /*first_lsn=*/0, options_.io);
      for (const auto& [name, entry] : live_) {
        AppendRecord(&tmp,
                     EncodeManifestRecord(
                         entry.id, MakeCreateRequest(name, entry.spec)));
      }
      tmp.Fsync();
    }
    manifest_.CloseQuietly();
    if (::rename(tmp_path.c_str(), ManifestPath().c_str()) != 0) {
      throw IoError(PersistErrnoMessage("rename", ManifestPath()));
    }
    FsyncDir(data_dir_, options_.io);
    manifest_ = AppendFile(ManifestPath(), /*truncate=*/false, options_.io);
  }

  // Deletes m<id>/ directories (and stray tmp files) the compacted
  // manifest no longer references -- the debris of drops and of CREATEs
  // whose manifest record never became durable.
  void CollectGarbageDirs() {
    std::map<uint64_t, bool> referenced;
    for (const auto& [name, entry] : live_) {
      (void)name;
      referenced[entry.id] = true;
    }
    std::error_code ec;
    for (const auto& item :
         std::filesystem::directory_iterator(data_dir_, ec)) {
      const std::string name = item.path().filename().string();
      if (name.size() > 1 && name[0] == 'm' && item.is_directory(ec)) {
        uint64_t id = 0;
        bool numeric = true;
        for (size_t i = 1; i < name.size(); ++i) {
          if (name[i] < '0' || name[i] > '9') {
            numeric = false;
            break;
          }
          id = id * 10 + static_cast<uint64_t>(name[i] - '0');
        }
        if (numeric && !referenced.count(id)) {
          std::filesystem::remove_all(item.path(), ec);
        }
      } else if (name == "ckpt.tmp" || name == "manifest.tmp") {
        std::filesystem::remove(item.path(), ec);
      }
    }
  }

  const std::string data_dir_;
  const DurabilityOptions options_;
  // Serializes manifest writes and the live-metric table. The registry's
  // exclusive lock already serializes OnCreate/OnDrop; this guards
  // against direct DurabilityManager use in tests.
  std::mutex mutex_;
  AppendFile manifest_;
  bool manifest_failed_ = false;  // see AppendManifestRecord
  std::map<std::string, Entry> live_;
  uint64_t next_id_ = 0;
};

}  // namespace persist
}  // namespace req

#endif  // REQSKETCH_PERSIST_DURABILITY_H_
