// MetricLog: one metric's write-ahead log plus snapshot checkpoints, the
// per-metric half of the durability subsystem (persist/durability.h owns
// the directory-level manifest).
//
// A metric's directory (data_dir/m<id>/) holds:
//
//   wal-<first_lsn:016x>.log    segmented WAL; record payloads are the
//                               wire-encoded APPEND requests themselves
//                               (service/wire_protocol.h), so the log
//                               format inherits the protocol's versioning
//                               and its hardened parser for free
//   ckpt-<lsn:016x>.snap        engine snapshot (kind-tagged serde blob,
//                               identical bytes to a wire SNAPSHOT) taken
//                               at WAL position <lsn>
//
// The LSN is the count of APPEND BATCHES since CREATE -- not bytes, not
// items. Batches are the engines' replay unit: every engine's state is a
// pure function of the batch sequence (the sharded engine routes whole
// batches round-robin; ReqSerde v2 checkpoints carry exact PRNG state),
// so "snapshot at LSN c, replay batches c.." reconstructs the pre-crash
// state bit-identically.
//
// Write protocol per append: frame + CRC the batch, append to the live
// segment, fsync per policy -- all BEFORE the engine applies the items and
// the server acknowledges. A torn tail is therefore always an
// unacknowledged suffix, and recovery may legitimately resurrect slightly
// MORE than the client saw acknowledged (the record survived, the ack did
// not) but never less.
//
// Checkpoints (WriteCheckpoint) use tmp+fsync+rename+dir-fsync, then
// rotate the WAL to a fresh segment at the checkpoint LSN and delete the
// segments and older checkpoints it made obsolete. A crash between those
// steps only leaves garbage that the next recovery skips or the next
// checkpoint deletes -- never a state that parses wrong.
#ifndef REQSKETCH_PERSIST_METRIC_LOG_H_
#define REQSKETCH_PERSIST_METRIC_LOG_H_

#include <atomic>
#include <chrono>
#include <cstdint>
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
#include "service/wire_protocol.h"
#include "util/validation.h"

namespace req {
namespace persist {

// When appended records reach the disk.
//   kAlways:   fsync after every record. No acknowledged write is ever
//              lost, at the cost of a disk flush per APPEND.
//   kInterval: fsync when the configured interval has elapsed since the
//              last sync (checked on the append path). Bounds loss to the
//              final interval; the page cache absorbs the rest.
//   kNever:    the OS decides. Loss bounded only by the kernel's
//              writeback horizon; checkpoints and manifest appends are
//              STILL always fsynced (directory metadata must not lie).
enum class FsyncPolicy : uint8_t { kAlways = 0, kInterval = 1, kNever = 2 };

struct MetricLogOptions {
  FsyncPolicy fsync = FsyncPolicy::kInterval;
  uint64_t fsync_interval_ms = 50;
  // WAL bytes since the last checkpoint that trip ShouldCheckpoint().
  uint64_t checkpoint_bytes = uint64_t{4} << 20;
  IoInjector* io = nullptr;
};

class MetricLog {
 public:
  // Opens a FRESH segment at `next_lsn` (truncating a stale same-named
  // file: recovery re-creates rotation-produced empty segments in place).
  // Older segments/checkpoints in `dir` are left for WriteCheckpoint's
  // garbage collection.
  MetricLog(std::string dir, std::string metric_name, uint64_t next_lsn,
            const MetricLogOptions& options)
      : dir_(std::move(dir)),
        metric_name_(std::move(metric_name)),
        options_(options),
        next_lsn_(next_lsn),
        last_sync_(std::chrono::steady_clock::now()) {
    segment_ = CreateSegmentFile(dir_ + "/" + SegmentFileName(next_lsn),
                                 kSegmentMagic, next_lsn, options_.io);
    segment_.Fsync();
    FsyncDir(dir_, options_.io);
  }

  MetricLog(const MetricLog&) = delete;
  MetricLog& operator=(const MetricLog&) = delete;

  const std::string& dir() const { return dir_; }
  const std::string& metric_name() const { return metric_name_; }

  // LSN the next appended batch will get == batches logged since CREATE.
  uint64_t next_lsn() const {
    return next_lsn_.load(std::memory_order_acquire);
  }

  // Logs one append batch and returns its LSN. Caller context: the
  // engine's append mutex (one writer at a time per metric). Throws
  // IoError on failure, BEFORE the engine applies the batch -- nothing
  // unlogged is ever acknowledged.
  uint64_t AppendBatch(const double* data, size_t count) {
    if (dropped_.load(std::memory_order_acquire)) {
      return next_lsn_.load(std::memory_order_acquire);
    }
    service::Request request;
    request.op = service::Opcode::kAppend;
    request.metric = metric_name_;
    request.values.assign(data, data + count);
    const std::vector<uint8_t> payload = service::EncodeRequest(request);
    std::lock_guard<std::mutex> lock(mutex_);
    // A failed/torn write poisons the segment: appending more records
    // AFTER garbage bytes would put acknowledged data beyond the tear,
    // where recovery (prefix semantics) can never reach it. The log
    // refuses further appends until a checkpoint rotates to a fresh
    // segment; every refusal is an IoError the server answers as kError,
    // so nothing unrecoverable is ever acknowledged.
    if (failed_) {
      throw IoError("WAL segment failed; awaiting checkpoint rotation: " +
                    dir_);
    }
    try {
      AppendRecord(&segment_, payload);
      MaybeSyncLocked();
    } catch (...) {
      failed_ = true;
      throw;
    }
    bytes_since_checkpoint_.fetch_add(payload.size() + 8,
                                      std::memory_order_relaxed);
    return next_lsn_.fetch_add(1, std::memory_order_release);
  }

  // Cheap threshold probe for the post-append checkpoint hook.
  bool ShouldCheckpoint() const {
    return bytes_since_checkpoint_.load(std::memory_order_relaxed) >=
           options_.checkpoint_bytes;
  }

  // Persists `blob` (the engine snapshot at WAL position `lsn`), rotates
  // the WAL to a fresh segment at `lsn`, and deletes the now-covered
  // segments and superseded checkpoints. Caller context: the engine's
  // append mutex, with `lsn == next_lsn()` and `blob` serialized from the
  // state that position corresponds to.
  void WriteCheckpoint(uint64_t lsn, uint64_t accepted_n,
                       const std::vector<uint8_t>& blob) {
    if (dropped_.load(std::memory_order_acquire)) return;
    std::lock_guard<std::mutex> lock(mutex_);
    CheckpointContents contents;
    contents.lsn = lsn;
    contents.accepted_n = accepted_n;
    contents.blob = blob;
    WriteCheckpointFile(dir_, CheckpointFileName(lsn), contents,
                        options_.io);
    // The checkpoint is durable; everything before `lsn` is obsolete.
    // Rotate first (so a crash mid-GC still has a live segment), then
    // delete; deletion failures are retried by the next checkpoint.
    segment_ = CreateSegmentFile(dir_ + "/" + SegmentFileName(lsn),
                                 kSegmentMagic, lsn, options_.io);
    segment_.Fsync();
    FsyncDir(dir_, options_.io);
    failed_ = false;  // fresh segment: the poisoned bytes are obsolete
    bytes_since_checkpoint_.store(0, std::memory_order_relaxed);
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
      const std::string name = entry.path().filename().string();
      const auto seg_lsn = ParseLsnFileName(name, "wal-", ".log");
      if (seg_lsn && *seg_lsn < lsn) {
        std::filesystem::remove(entry.path(), ec);
        continue;
      }
      const auto ckpt_lsn = ParseLsnFileName(name, "ckpt-", ".snap");
      if (ckpt_lsn && *ckpt_lsn < lsn) {
        std::filesystem::remove(entry.path(), ec);
      }
    }
  }

  // Flushes the live segment to disk regardless of policy (graceful
  // shutdown, and tests that need a durable prefix without a checkpoint).
  void Sync() {
    if (dropped_.load(std::memory_order_acquire)) return;
    std::lock_guard<std::mutex> lock(mutex_);
    segment_.Fsync();
  }

  // After DROP: in-flight handles may still hold this log; every later
  // operation becomes a no-op instead of resurrecting files in a
  // directory the manifest already declared dead.
  void MarkDropped() { dropped_.store(true, std::memory_order_release); }

 private:
  void MaybeSyncLocked() {
    switch (options_.fsync) {
      case FsyncPolicy::kAlways:
        segment_.Fsync();
        break;
      case FsyncPolicy::kInterval: {
        const auto now = std::chrono::steady_clock::now();
        if (now - last_sync_ >=
            std::chrono::milliseconds(options_.fsync_interval_ms)) {
          segment_.Fsync();
          last_sync_ = now;
        }
        break;
      }
      case FsyncPolicy::kNever:
        break;
    }
  }

  const std::string dir_;
  const std::string metric_name_;
  const MetricLogOptions options_;
  // Serializes segment writes/rotation against Sync() (engine append
  // mutex already serializes writers; Sync may come from shutdown).
  std::mutex mutex_;
  AppendFile segment_;
  bool failed_ = false;  // guarded by mutex_; see AppendBatch
  std::atomic<uint64_t> next_lsn_;
  std::atomic<uint64_t> bytes_since_checkpoint_{0};
  std::chrono::steady_clock::time_point last_sync_;
  std::atomic<bool> dropped_{false};
};

// --- per-metric recovery ----------------------------------------------------

// Everything recovery learned from one metric directory.
struct RecoveredMetricState {
  // Newest checkpoint that passed its CRC; empty blob => none usable
  // (replay starts from an empty engine at LSN 0).
  std::vector<uint8_t> snapshot_blob;
  uint64_t snapshot_lsn = 0;
  uint64_t snapshot_accepted_n = 0;
  // WAL tail to replay on top of the snapshot, in LSN order.
  std::vector<std::vector<double>> batches;
  // LSN after the last replayed batch == the new MetricLog's next_lsn.
  uint64_t next_lsn = 0;
};

// Scans one metric directory: picks the newest valid checkpoint (falling
// back to older ones when the newest is torn/corrupt), then walks the
// segments for the contiguous batch run that follows it. The scan stops
// at the first torn record, CRC failure, or LSN gap WITHIN the run --
// prefix semantics, matching what was ever acknowledged -- but continues
// across a segment boundary when the next segment picks up at exactly the
// expected LSN (the shape a previous recovery's own torn-tail discard
// leaves behind). Corrupt records never throw; malformed APPEND payloads
// inside a CRC-valid record do (CRC says the bytes are what was written,
// so a parse failure means a software bug, not bit rot).
inline RecoveredMetricState ReadMetricState(const std::string& dir,
                                            const std::string& metric_name) {
  RecoveredMetricState state;
  std::map<uint64_t, std::string> checkpoints;  // lsn -> path
  std::map<uint64_t, std::string> segments;     // first_lsn -> path
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (const auto lsn = ParseLsnFileName(name, "ckpt-", ".snap")) {
      checkpoints.emplace(*lsn, entry.path().string());
    } else if (const auto first = ParseLsnFileName(name, "wal-", ".log")) {
      segments.emplace(*first, entry.path().string());
    }
  }
  for (auto it = checkpoints.rbegin(); it != checkpoints.rend(); ++it) {
    if (auto contents = ReadCheckpointFile(it->second)) {
      state.snapshot_blob = std::move(contents->blob);
      state.snapshot_lsn = contents->lsn;
      state.snapshot_accepted_n = contents->accepted_n;
      break;
    }
    // Torn/corrupt checkpoint (crash during rename-era GC, or bit rot):
    // fall back to the previous one; the WAL still covers the gap.
  }
  uint64_t next = state.snapshot_lsn;
  for (const auto& [first_lsn, path] : segments) {
    if (first_lsn > next) break;  // gap: nothing after it was acknowledged
    const auto contents = ReadSegmentFile(path, kSegmentMagic);
    if (!contents) continue;  // headerless stub: carries no records
    uint64_t lsn = contents->first_lsn;
    for (const auto& record : contents->records) {
      if (lsn++ < next) continue;  // already covered by the snapshot
      const service::Request request = service::ParseRequest(record);
      util::CheckData(request.op == service::Opcode::kAppend &&
                          request.metric == metric_name,
                      "WAL record is not an APPEND for this metric");
      state.batches.push_back(std::move(request.values));
      ++next;
    }
  }
  state.next_lsn = next;
  return state;
}

}  // namespace persist
}  // namespace req

#endif  // REQSKETCH_PERSIST_METRIC_LOG_H_
