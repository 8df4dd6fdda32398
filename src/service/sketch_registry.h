// SketchRegistry: the multi-tenant heart of the quantile service. Maps
// metric names to per-metric engines, each wrapping one of the repo's
// quantile primitives -- chosen once, at CREATE time:
//
//   kPlain    -> ReqSketch<double>: one deterministic sketch. Snapshots
//                serialize byte-identically to an in-process ReqSketch fed
//                the same stream with the same config (the loopback e2e
//                test holds this bit-exactly).
//   kSharded  -> num_shards independently seeded ReqSketch<double>s, whole
//                batches rotated, merged on query (Theorem 3); snapshots
//                use the SHRQ layout (detail::SerializeShards).
//   kWindowed -> WindowedReqSketch<double>: count-driven sliding window
//                (bucket_items per bucket, num_buckets buckets).
//
// Every kind is one Engine<State> over its structure; the only per-kind
// code is how the state is built and serialized.
//
// Ingest path: every engine serializes its appends on a per-engine append
// mutex (many connections may append to one metric; they take turns), so
// the WAL's batch order is the engine's apply order. Every engine applies
// each batch directly with one batch Update under the exclusive state
// lock -- the sharded engine into the next shard in rotation. Nothing is
// buffered: an acknowledged batch is already in the state.
//
// Query path: queries take the state lock shared and ask the state
// itself, so every APPEND acknowledged before the query is visible and no
// engine keeps a second copy of its state. The plain sketch repairs its
// memoized sorted view incrementally; the window memoizes the merge of its
// buckets; the shard rotation memoizes the merge of its shards. Any number
// of connections query one metric at once, but an append to a metric
// waits for its in-flight queries (and a query for an in-flight append).
//
// Tenancy spine (the million-metric refactor): the name->engine map is
// sharded by name hash into kRegistryShards independent mutex+map shards,
// each with its own epoch and its own sorted-name snapshot cache. A
// CREATE/DROP invalidates only its shard's listing; the global LIST is a
// lazy k-way concatenation of the per-shard caches, and the paged
// ListPage(prefix, offset, limit) form never materializes more than one
// page. Lifecycle: EvictIdle() checkpoints and closes the WAL of metrics
// idle past a TTL (their engines are dropped from memory and rebuilt
// bit-identically from the checkpoint on the next touch -- an acked item
// is never lost), or trims allocator slack when running memory-only.
// Metric-count and memory quotas (SetLimits) reject CREATEs with the
// typed QuotaExceeded below, which the server maps to kQuotaExceeded.
//
// Error model: engines and registry throw the repo's standard exception
// taxonomy (invalid_argument for bad arguments, logic_error for queries on
// empty state, runtime_error for corrupt data) plus the typed
// MetricNotFound / MetricExists / QuotaExceeded below, which the server
// maps to wire statuses. MetricRetired is internal backpressure: an append
// raced an eviction and the server transparently retries against the
// rehydrated engine.
#ifndef REQSKETCH_SERVICE_SKETCH_REGISTRY_H_
#define REQSKETCH_SERVICE_SKETCH_REGISTRY_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "concurrency/epoch_snapshot.h"
#include "core/req_serde.h"
#include "core/req_sketch.h"
#include "persist/durability.h"
#include "persist/metric_log.h"
#include "service/wire_protocol.h"
#include "util/serde.h"
#include "util/validation.h"
#include "window/windowed_req_sketch.h"

namespace req {
namespace service {

struct MetricNotFound : std::invalid_argument {
  explicit MetricNotFound(const std::string& name)
      : std::invalid_argument("metric not found: " + name) {}
};

struct MetricExists : std::invalid_argument {
  explicit MetricExists(const std::string& name)
      : std::invalid_argument("metric already exists: " + name) {}
};

// CREATE rejected by a registry quota (metric count or accounted memory).
// The server maps this to Status::kQuotaExceeded; clients must treat it as
// a definitive answer, never a transport failure to retry.
struct QuotaExceeded : std::runtime_error {
  explicit QuotaExceeded(const std::string& what) : std::runtime_error(what) {}
};

// An append raced an idle eviction: the engine handle was retired after
// the caller resolved it. Internal backpressure, never surfaced on the
// wire -- the server re-resolves the metric (rehydrating it) and retries.
struct MetricRetired : std::runtime_error {
  MetricRetired()
      : std::runtime_error("metric engine retired by eviction; re-resolve") {}
};

// Validates a CREATE spec before any engine is built, so a bad request
// fails with a precise message instead of surfacing from a constructor
// deep in the stack.
inline void ValidateMetricSpec(const MetricSpec& spec) {
  params::ValidateConfig(spec.base);
  util::CheckArg(spec.base.n_hint <= params::kMaxN,
                 "n_hint must not exceed 2^62");
  util::CheckArg(spec.buffer_capacity >= 1 &&
                     spec.buffer_capacity <= (uint64_t{1} << 32),
                 "buffer_capacity must be in [1, 2^32]");
  if (spec.kind == EngineKind::kSharded) {
    util::CheckArg(spec.num_shards >= 1 && spec.num_shards <= 4096,
                   "num_shards must be in [1, 4096]");
  }
  if (spec.kind == EngineKind::kWindowed) {
    util::CheckArg(spec.num_buckets >= 2 &&
                       spec.num_buckets <= (uint32_t{1} << 16),
                   "num_buckets must be in [2, 2^16]");
    // The wire protocol has no Rotate() injection, so service-managed
    // windows must be count-driven.
    util::CheckArg(spec.bucket_items >= 1,
                   "bucket_items must be >= 1 for service windows");
    util::CheckArg(
        spec.bucket_items <= params::kMaxN / spec.num_buckets,
        "num_buckets * bucket_items must not exceed 2^62");
  }
}

// One metric's engine. Thread safety: Append may be called from any number
// of connections concurrently (serialized internally); queries and
// Snapshot may run concurrently with appends and each other.
//
// Durability: when a WAL is attached (SetLog, done by the registry's
// durability manager or the recovery path), every Append logs its batch
// BEFORE applying it, under the same append mutex -- so the WAL's batch
// order IS the engine's apply order, and the engine's state at WAL
// position L is exactly "the first L batches applied". Snapshot() and the
// checkpoint hooks quiesce the append path to pin that correspondence.
class MetricEngine {
 public:
  virtual ~MetricEngine() = default;

  virtual EngineKind kind() const = 0;
  virtual const MetricSpec& spec() const = 0;

  // Total items accepted since CREATE (acknowledged appends; for windowed
  // metrics this is lifetime-accepted, not in-window).
  uint64_t AcceptedN() const {
    return accepted_n_.load(std::memory_order_acquire);
  }

  // Applies `count` items and returns AcceptedN() as of this batch (this
  // batch included, no later one); rejects NaN up front (strong
  // guarantee: nothing is applied on throw -- including a WAL write
  // failure, which surfaces as persist::IoError before any state change).
  virtual uint64_t Append(const double* data, size_t count) = 0;

  // Resident heap bytes this engine holds (sketch payloads, view
  // caches, allocator slack). The registry's quota accounting
  // charges this figure per metric; it is a measurement, not a contract,
  // and may be briefly stale against concurrent appends.
  virtual size_t MemoryFootprint() const = 0;

  // Releases allocator slack (view caches, scratch, arena slack)
  // without changing any answer. The memory-only idle path; durable idle
  // metrics get evicted outright via RetireForEviction instead.
  virtual void TrimMemory() = 0;

  // True once RetireForEviction succeeded: the engine took its final
  // checkpoint and closed its WAL. Queries still serve the final state;
  // appends throw MetricRetired so the caller re-resolves the metric.
  bool Retired() const { return retired_.load(std::memory_order_acquire); }

  // Eviction: quiesce appends, checkpoint at the exact WAL position, then
  // poison the append path and release the WAL handle. Strong guarantee --
  // a checkpoint failure throws with the engine still live and appendable.
  // Requires an attached WAL (memory-only metrics are trimmed, not
  // evicted).
  void RetireForEviction() {
    std::lock_guard<std::mutex> produce(append_mutex_);
    util::CheckState(log_ != nullptr, "RetireForEviction requires a WAL");
    const uint64_t lsn = log_->next_lsn();
    const std::vector<uint8_t> blob = SnapshotLocked();
    log_->WriteCheckpoint(lsn, AcceptedN(), blob);
    // Nothing can append between the checkpoint and the flag: both sit
    // under the append mutex. From here the engine is a read-only relic.
    retired_.store(true, std::memory_order_release);
    log_.reset();
  }

  // Order-based queries. Observe every append acknowledged before the
  // call.
  virtual std::vector<uint64_t> GetRanks(const std::vector<double>& ys,
                                         Criterion criterion) = 0;
  virtual std::vector<double> GetQuantiles(const std::vector<double>& qs,
                                           Criterion criterion) = 0;
  virtual std::vector<double> GetCDF(const std::vector<double>& splits,
                                     Criterion criterion) = 0;

  // Serialized engine state: u8 engine kind | engine-specific serde bytes
  // (ReqSerde / sharded serde / windowed serde). Quiesces the append path
  // so the blob sits on a WAL batch boundary.
  std::vector<uint8_t> Snapshot() {
    std::lock_guard<std::mutex> produce(append_mutex_);
    return SnapshotLocked();
  }

  // Attaches the metric's WAL. Called before the engine is published
  // (CREATE) or after replay completes (recovery) -- never while other
  // threads are appending.
  void SetLog(std::shared_ptr<persist::MetricLog> log) {
    log_ = std::move(log);
  }
  persist::MetricLog* wal() const { return log_.get(); }

  // Checkpoint when the WAL has grown past its threshold; the server
  // calls this after APPEND acks. No-op without a WAL.
  void MaybeCheckpoint() {
    if (log_ && log_->ShouldCheckpoint()) ForceCheckpoint();
  }

  // Unconditional checkpoint (shutdown, tests). Takes the append mutex,
  // so the snapshot LSN is exact: state == first next_lsn() batches.
  void ForceCheckpoint() {
    if (!log_) return;
    std::lock_guard<std::mutex> produce(append_mutex_);
    const uint64_t lsn = log_->next_lsn();
    const std::vector<uint8_t> blob = SnapshotLocked();
    log_->WriteCheckpoint(lsn, AcceptedN(), blob);
  }

 protected:
  // Snapshot with append_mutex_ held by the caller.
  virtual std::vector<uint8_t> SnapshotLocked() = 0;

  // Every Append implementation calls this under append_mutex_, so no
  // batch can slip past a completed retirement (its WAL segment is
  // closed; an append landing there would be lost on rehydrate).
  void CheckNotRetired() const {
    if (retired_.load(std::memory_order_relaxed)) throw MetricRetired();
  }

  // Serializes appends (the apply order / shard rotation) across
  // appending connections, and pins the WAL-position <-> engine-state
  // correspondence for snapshots and checkpoints.
  std::mutex append_mutex_;
  std::atomic<uint64_t> accepted_n_{0};
  std::atomic<bool> retired_{false};
  std::shared_ptr<persist::MetricLog> log_;
};

// Splits a snapshot blob into its kind tag and serde payload; throws
// runtime_error on an empty or unknown-kind blob.
inline EngineKind SnapshotBlobKind(const std::vector<uint8_t>& blob) {
  util::CheckData(!blob.empty(), "empty snapshot blob");
  util::CheckData(blob[0] <= static_cast<uint8_t>(EngineKind::kWindowed),
                  "unknown snapshot engine kind");
  return static_cast<EngineKind>(blob[0]);
}

inline std::vector<uint8_t> SnapshotBlobPayload(
    const std::vector<uint8_t>& blob) {
  SnapshotBlobKind(blob);  // validates
  return std::vector<uint8_t>(blob.begin() + 1, blob.end());
}

// --- engine state ----------------------------------------------------------

namespace detail {

// Shard i's sketch config: the base config seeded base.seed + i, so shards
// draw independent, reproducible coin flips.
inline ReqConfig ShardConfig(const ReqConfig& base, size_t shard) {
  ReqConfig config = base;
  config.seed = base.seed + shard;
  return config;
}

// The sharded serde layout ("SHRQ"):
//   u32 magic | u8 version | u32 num_shards | u64 buffer_capacity |
//   per shard: u64 byte count | ReqSerde payload.
inline constexpr uint32_t kShardedSerdeMagic = 0x53485251;  // "SHRQ"
inline constexpr uint8_t kShardedSerdeVersion = 1;

template <typename T, typename Compare>
std::vector<uint8_t> SerializeShards(
    const std::vector<const ReqSketch<T, Compare>*>& shards,
    uint64_t buffer_capacity) {
  util::BinaryWriter writer;
  writer.Write<uint32_t>(kShardedSerdeMagic);
  writer.Write<uint8_t>(kShardedSerdeVersion);
  writer.Write<uint32_t>(static_cast<uint32_t>(shards.size()));
  writer.Write<uint64_t>(buffer_capacity);
  for (const ReqSketch<T, Compare>* shard : shards) {
    writer.WriteVector<uint8_t>(ReqSerde<T, Compare>::Serialize(*shard));
  }
  return writer.Release();
}

// Parses the SHRQ layout: the shard sketches, and the recorded buffer
// capacity in *buffer_capacity. Treats the bytes as untrusted.
template <typename T, typename Compare = std::less<T>>
std::vector<ReqSketch<T, Compare>> DeserializeShards(
    const std::vector<uint8_t>& bytes, uint64_t* buffer_capacity,
    const Compare& comp = Compare()) {
  util::BinaryReader reader(bytes);
  util::CheckData(reader.Read<uint32_t>() == kShardedSerdeMagic,
                  "not a serialized sharded REQ sketch (bad magic)");
  util::CheckData(reader.Read<uint8_t>() == kShardedSerdeVersion,
                  "unsupported sharded sketch serialization version");
  const uint32_t num_shards = reader.Read<uint32_t>();
  util::CheckData(num_shards >= 1 && num_shards <= (1u << 16),
                  "corrupt sharded sketch: implausible shard count");
  *buffer_capacity = reader.Read<uint64_t>();
  util::CheckData(*buffer_capacity >= 1 &&
                      *buffer_capacity <= (uint64_t{1} << 32),
                  "corrupt sharded sketch: implausible buffer capacity");
  std::vector<ReqSketch<T, Compare>> shards;
  shards.reserve(num_shards);
  for (uint32_t i = 0; i < num_shards; ++i) {
    const std::vector<uint8_t> payload = reader.ReadVector<uint8_t>();
    shards.push_back(ReqSerde<T, Compare>::Deserialize(payload, comp));
    // Shards must be mutually mergeable, or the first query (which
    // merges them) would surface data corruption as an invalid-argument
    // error far from the load site.
    util::CheckData(
        shards[i].config().k_base == shards[0].config().k_base &&
            shards[i].config().accuracy == shards[0].config().accuracy,
        "corrupt sharded sketch: shards disagree on k_base/accuracy");
  }
  // A num_shards corrupted downward would otherwise parse cleanly and
  // silently drop the unread shard payloads.
  util::CheckData(reader.AtEnd(), "corrupt sharded sketch: trailing bytes");
  return shards;
}

// The sharded engine's state: num_shards sketches, shard i seeded
// base.seed + i. Each Update applies one whole batch to shard
// `batches % num_shards` (empty batches advance the rotation too), so
// every shard's stream is a pure function of the batch order -- the WAL
// order, in which batch b went to shard b % num_shards.
//
// Queries go to the N-way merge of the shards, memoized in an
// EpochSnapshotCache keyed on the batch count and sorted-view-warmed
// before it is published, so concurrent readers share one build. The
// owning engine mutates only under its exclusive state lock and reads
// under the shared one, so the plain batch counter is race-free.
class RotatingShards {
 public:
  using Sketch = ReqSketch<double>;

  explicit RotatingShards(const MetricSpec& spec)
      : buffer_capacity_(spec.buffer_capacity) {
    shards_.reserve(spec.num_shards);
    for (size_t i = 0; i < spec.num_shards; ++i) {
      shards_.emplace_back(ShardConfig(spec.base, i));
    }
  }

  // Recovery: restores the serialized shards positioned at WAL batch
  // `batches`, so replay routes every batch to the shard it first hit.
  // The recorded buffer_capacity is not state (the spec supplies it).
  RotatingShards(const MetricSpec& spec, const std::vector<uint8_t>& payload,
                 uint64_t batches)
      : buffer_capacity_(spec.buffer_capacity), batches_(batches) {
    uint64_t recorded_capacity = 0;
    shards_ = DeserializeShards<double>(payload, &recorded_capacity);
    util::CheckData(shards_.size() == spec.num_shards,
                    "sharded snapshot shard count differs from spec");
  }

  void Update(const double* data, size_t count) {
    shards_[batches_ % shards_.size()].Update(data, count);
    ++batches_;
  }

  std::vector<uint64_t> GetRanks(const std::vector<double>& ys,
                                 Criterion criterion) const {
    return View()->GetRanks(ys, criterion);
  }
  std::vector<double> GetQuantiles(const std::vector<double>& qs,
                                   Criterion criterion) const {
    return View()->GetQuantiles(qs, criterion);
  }
  std::vector<double> GetCDF(const std::vector<double>& splits,
                             Criterion criterion) const {
    return View()->GetCDF(splits, criterion);
  }

  // The SHRQ layout, recording the spec's buffer_capacity in its header.
  std::vector<uint8_t> Serialize() const {
    return SerializeShards(Pointers(), buffer_capacity_);
  }

  // shards_ is sized exactly, and each shard's MemoryBytes() counts its
  // own sizeof.
  size_t MemoryBytes() const {
    size_t bytes = sizeof(*this);
    for (const Sketch& shard : shards_) bytes += shard.MemoryBytes();
    if (std::shared_ptr<const Sketch> merged = merged_.Peek()) {
      bytes += merged->MemoryBytes();
    }
    return bytes;
  }

  void TrimMemory() {
    for (Sketch& shard : shards_) shard.TrimMemory();
    merged_.Invalidate();
  }

 private:
  std::vector<const Sketch*> Pointers() const {
    std::vector<const Sketch*> sketches;
    sketches.reserve(shards_.size());
    for (const Sketch& shard : shards_) sketches.push_back(&shard);
    return sketches;
  }

  // The merge over shard 0's config, which is the base config (shard 0
  // is seeded base.seed + 0).
  std::shared_ptr<const Sketch> View() const {
    return merged_.Get(
        [this] { return batches_; },
        [this] {
          Sketch merged = MergeShards(shards_.front().config(), Pointers());
          merged.PrepareSortedView();
          return merged;
        });
  }

  std::vector<Sketch> shards_;
  uint64_t buffer_capacity_;
  uint64_t batches_ = 0;  // batches applied; the next goes to this % size
  concurrency::EpochSnapshotCache<Sketch> merged_;
};

inline window::WindowedReqConfig WindowConfigOf(const MetricSpec& spec) {
  window::WindowedReqConfig config;
  config.num_buckets = spec.num_buckets;
  config.bucket_items = spec.bucket_items;
  config.base = spec.base;
  return config;
}

// Each state's serde bytes: ReqSerde, SHRQ, or the windowed serde.
inline std::vector<uint8_t> SerializeState(const ReqSketch<double>& sketch) {
  return SerializeSketch(sketch);
}
inline std::vector<uint8_t> SerializeState(const RotatingShards& shards) {
  return shards.Serialize();
}
// The window itself (ring, rotations, bucket epochs), not its merged
// view: a restored snapshot keeps expiring correctly. (Count-driven
// rotation happens inside the batch update, at the same boundaries
// per-item feeding would produce.)
inline std::vector<uint8_t> SerializeState(
    const window::WindowedReqSketch<double>& window) {
  return window.Serialize();
}

}  // namespace detail

// --- the engine ------------------------------------------------------------

// One metric's engine over its State: ReqSketch<double> (kPlain),
// detail::RotatingShards (kSharded) or WindowedReqSketch<double>
// (kWindowed). The append/query protocol lives here exactly once.
//
// Appends are serialized by the append mutex: a concurrent writer waits
// its turn, then applies its whole batch with one batch Update(data,
// count) under the exclusive state lock. The state therefore depends only
// on the order the batches land in, which is also their WAL order.
//
// Queries, snapshots and accounting take the state lock shared and read
// the state itself. That rests on each state's concurrent-const-query
// contract: the sketch's double-checked sorted view (repaired
// incrementally after appends), the window's double-checked merged view
// and the shard rotation's epoch-cached merge.
template <class State>
class Engine final : public MetricEngine {
 public:
  // Builds the state in place from `state_args`. accepted_n != 0 only on
  // the recovery path, restoring the checkpoint's acknowledged-item count
  // before WAL replay re-appends the tail.
  template <class... Args>
  Engine(const MetricSpec& spec, uint64_t accepted_n, Args&&... state_args)
      : spec_(spec), state_(std::forward<Args>(state_args)...) {
    accepted_n_.store(accepted_n, std::memory_order_release);
  }

  EngineKind kind() const override { return spec_.kind; }
  const MetricSpec& spec() const override { return spec_; }

  uint64_t Append(const double* data, size_t count) override {
    for (size_t i = 0; i < count; ++i) {
      util::CheckArg(!std::isnan(data[i]), "cannot append NaN");
    }
    std::lock_guard<std::mutex> produce(append_mutex_);
    CheckNotRetired();
    // WAL before apply: if the log write fails (persist::IoError),
    // nothing was applied and nothing gets acknowledged. The reverse
    // order could acknowledge a batch that never reached the log.
    if (log_) log_->AppendBatch(data, count);
    {
      std::unique_lock<std::shared_mutex> lock(state_mutex_);
      state_.Update(data, count);
    }
    return accepted_n_.fetch_add(count, std::memory_order_release) + count;
  }

  size_t MemoryFootprint() const override {
    std::shared_lock<std::shared_mutex> lock(state_mutex_);
    // state_ is embedded, so its MemoryBytes() (which counts its own
    // sizeof) must replace -- not add to -- its share of sizeof(*this).
    return sizeof(*this) - sizeof(State) + state_.MemoryBytes();
  }

  // Memory-only idle path: release the state's view caches and arena
  // slack. Answers are unchanged; the next query rebuilds its view.
  void TrimMemory() override {
    std::unique_lock<std::shared_mutex> lock(state_mutex_);
    state_.TrimMemory();
  }

  std::vector<uint64_t> GetRanks(const std::vector<double>& ys,
                                 Criterion criterion) override {
    std::shared_lock<std::shared_mutex> lock(state_mutex_);
    return state_.GetRanks(ys, criterion);
  }
  std::vector<double> GetQuantiles(const std::vector<double>& qs,
                                   Criterion criterion) override {
    std::shared_lock<std::shared_mutex> lock(state_mutex_);
    return state_.GetQuantiles(qs, criterion);
  }
  std::vector<double> GetCDF(const std::vector<double>& splits,
                             Criterion criterion) override {
    std::shared_lock<std::shared_mutex> lock(state_mutex_);
    return state_.GetCDF(splits, criterion);
  }

 private:
  // Kind tag + the state's serde bytes. The caller holds the append
  // mutex, so the blob sits on a WAL batch boundary.
  std::vector<uint8_t> SnapshotLocked() override {
    std::shared_lock<std::shared_mutex> lock(state_mutex_);
    std::vector<uint8_t> blob{static_cast<uint8_t>(spec_.kind)};
    const std::vector<uint8_t> bytes = detail::SerializeState(state_);
    blob.insert(blob.end(), bytes.begin(), bytes.end());
    return blob;
  }

  const MetricSpec spec_;
  // Exclusive for Update and TrimMemory; shared for queries, snapshots
  // and accounting. (Appenders are serialized by the append mutex.)
  mutable std::shared_mutex state_mutex_;
  State state_;
};

// --- the registry ----------------------------------------------------------

// What one EvictIdle sweep did: how many metrics it looked at, how many
// it checkpointed out of memory, how many it merely trimmed.
struct EvictionStats {
  size_t scanned = 0;
  size_t evicted = 0;
  size_t trimmed = 0;
};

class SketchRegistry {
 public:
  using EnginePtr = std::shared_ptr<MetricEngine>;

  // Name-hash shards of the directory. Power of two; 64 keeps the
  // hottest realistic core counts from colliding while costing ~6 KiB of
  // fixed overhead for the whole registry.
  static constexpr size_t kRegistryShards = 64;

  // What an evicted metric is charged: directory entry + name, no engine.
  static constexpr uint64_t kEvictedEntryBytes = 256;

  SketchRegistry() = default;
  SketchRegistry(const SketchRegistry&) = delete;
  SketchRegistry& operator=(const SketchRegistry&) = delete;

  // Wires the durability manager. Called once, before serving --
  // typically by DurabilityManager::RecoverInto. Null (the default) runs
  // the registry memory-only.
  void SetDurability(persist::DurabilityManager* durability) {
    durability_ = durability;
  }

  // Tenancy quotas, enforced at CREATE time (0 = unlimited, the
  // default). Memory is accounted per metric from MemoryFootprint(),
  // refreshed by eviction sweeps. Call before serving; not synchronized
  // against in-flight Creates.
  void SetLimits(uint64_t max_metrics, uint64_t max_memory_bytes) {
    max_metrics_.store(max_metrics, std::memory_order_relaxed);
    max_memory_bytes_.store(max_memory_bytes, std::memory_order_relaxed);
  }

  // Creates a metric; throws MetricExists if the name is taken,
  // QuotaExceeded when a tenancy limit would be crossed, invalid_argument
  // / runtime_error on a bad spec or name, or persist::IoError when the
  // durable CREATE record cannot be written (in which case the metric
  // does not exist, in memory or on disk).
  EnginePtr Create(const std::string& name, const MetricSpec& spec) {
    ValidateMetricName(name);
    ValidateMetricSpec(spec);
    EnginePtr engine = MakeEngine(spec);
    const uint64_t footprint = engine->MemoryFootprint();
    Shard& shard = ShardFor(name);
    {
      std::unique_lock<std::shared_mutex> lock(shard.mutex);
      if (shard.metrics.count(name) != 0) throw MetricExists(name);
      ReserveQuota(name, footprint);
      // Durable before visible: the manifest record and the metric's WAL
      // exist before any client can observe (and append to) the metric.
      if (durability_ != nullptr) {
        try {
          engine->SetLog(durability_->OnCreate(name, spec));
        } catch (...) {
          ReleaseQuota(footprint);
          throw;
        }
      }
      auto entry = std::make_shared<Entry>(spec);
      entry->last_touch_ms.store(NowMs(), std::memory_order_relaxed);
      entry->accounted_bytes.store(footprint, std::memory_order_relaxed);
      std::atomic_store_explicit(&entry->engine, engine,
                                 std::memory_order_release);
      shard.metrics.emplace(name, std::move(entry));
      shard.epoch.fetch_add(1, std::memory_order_release);
    }
    return engine;
  }

  // Recovery-path Create: installs an engine rebuilt from a checkpoint
  // blob (empty => fresh engine) positioned at WAL batch `batches`,
  // WITHOUT notifying the durability manager -- the metric already exists on
  // disk; the caller replays the WAL tail and then attaches the log via
  // SetLog. Quotas are accounted but NOT enforced: recovery must never
  // refuse state that was already acknowledged. Single-threaded use,
  // before the server starts.
  EnginePtr CreateRecovered(const std::string& name, const MetricSpec& spec,
                            const std::vector<uint8_t>& snapshot_blob,
                            uint64_t accepted_n, uint64_t batches) {
    ValidateMetricName(name);
    ValidateMetricSpec(spec);
    EnginePtr engine =
        snapshot_blob.empty()
            ? MakeEngine(spec)
            : MakeRecoveredEngine(spec, snapshot_blob, accepted_n, batches);
    const uint64_t footprint = engine->MemoryFootprint();
    Shard& shard = ShardFor(name);
    {
      std::unique_lock<std::shared_mutex> lock(shard.mutex);
      if (shard.metrics.count(name) != 0) throw MetricExists(name);
      total_metrics_.fetch_add(1, std::memory_order_relaxed);
      memory_bytes_.fetch_add(footprint, std::memory_order_relaxed);
      auto entry = std::make_shared<Entry>(spec);
      entry->last_touch_ms.store(NowMs(), std::memory_order_relaxed);
      entry->accounted_bytes.store(footprint, std::memory_order_relaxed);
      std::atomic_store_explicit(&entry->engine, engine,
                                 std::memory_order_release);
      shard.metrics.emplace(name, std::move(entry));
      shard.epoch.fetch_add(1, std::memory_order_release);
    }
    return engine;
  }

  // The engine for `name`, or nullptr when absent. Touches the metric's
  // idle clock and transparently rehydrates an evicted engine from its
  // eviction checkpoint (bit-identical: the checkpoint sat on a WAL batch
  // boundary and ReqSerde carries exact PRNG state). The returned handle
  // stays valid after a concurrent Drop or eviction (shared ownership);
  // a retired handle throws MetricRetired on Append, and re-resolving
  // through Find yields the fresh engine.
  EnginePtr Find(const std::string& name) {
    Shard& shard = ShardFor(name);
    EntryPtr entry;
    {
      std::shared_lock<std::shared_mutex> lock(shard.mutex);
      auto it = shard.metrics.find(name);
      if (it == shard.metrics.end()) return nullptr;
      entry = it->second;
    }
    entry->last_touch_ms.store(NowMs(), std::memory_order_relaxed);
    EnginePtr engine = std::atomic_load_explicit(&entry->engine,
                                                 std::memory_order_acquire);
    if (engine) return engine;
    return Rehydrate(name, entry);
  }

  // Find, but throws MetricNotFound instead of returning nullptr.
  EnginePtr Require(const std::string& name) {
    EnginePtr engine = Find(name);
    if (!engine) throw MetricNotFound(name);
    return engine;
  }

  // Whether the metric currently has an engine in memory (false while
  // evicted). Does not touch the idle clock -- observability only.
  bool IsResident(const std::string& name) const {
    const Shard& shard = ShardFor(name);
    std::shared_lock<std::shared_mutex> lock(shard.mutex);
    auto it = shard.metrics.find(name);
    if (it == shard.metrics.end()) return false;
    return std::atomic_load_explicit(&it->second->engine,
                                     std::memory_order_acquire) != nullptr;
  }

  // Removes a metric; returns whether it existed. In-flight operations on
  // outstanding handles finish safely against the (now unlisted) engine
  // (its WAL goes quiet via MarkDropped). If the durable DROP record
  // fails, the metric is already gone from memory and the error
  // propagates: the next restart resurrects it, which is the recoverable
  // direction (dropping again beats silently losing a live metric).
  bool Drop(const std::string& name) {
    Shard& shard = ShardFor(name);
    std::unique_lock<std::shared_mutex> lock(shard.mutex);
    auto it = shard.metrics.find(name);
    if (it == shard.metrics.end()) return false;
    EntryPtr entry = it->second;
    {
      // Lock order everywhere: shard.mutex before entry lifecycle.
      // (Rehydrate takes the lifecycle mutex alone.) The dropped flag
      // turns any concurrent rehydrate of this entry into MetricNotFound
      // rather than a resurrection.
      std::lock_guard<std::mutex> lifecycle(entry->lifecycle_mutex);
      entry->dropped.store(true, std::memory_order_release);
      shard.metrics.erase(it);
      total_metrics_.fetch_sub(1, std::memory_order_relaxed);
      memory_bytes_.fetch_sub(
          entry->accounted_bytes.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
      shard.epoch.fetch_add(1, std::memory_order_release);
      if (durability_ != nullptr) durability_->OnDrop(name);
    }
    return true;
  }

  // Sweeps every shard for metrics idle past `idle_ms`. Durable idle
  // metrics are evicted: final checkpoint, WAL closed, engine dropped
  // from memory (Find rehydrates on next touch -- no acked item lost).
  // Memory-only idle metrics get TrimMemory() instead. Hot metrics just
  // have their memory accounting refreshed. Safe concurrently with
  // appends/queries/creates/drops; an appender racing an eviction sees
  // MetricRetired and the server retries against the rehydrated engine.
  EvictionStats EvictIdle(uint64_t idle_ms) {
    EvictionStats stats;
    const uint64_t now = NowMs();
    for (Shard& shard : shards_) {
      std::vector<std::pair<std::string, EntryPtr>> candidates;
      {
        std::shared_lock<std::shared_mutex> lock(shard.mutex);
        candidates.reserve(shard.metrics.size());
        for (const auto& [name, entry] : shard.metrics) {
          candidates.emplace_back(name, entry);
        }
      }
      for (auto& [name, entry] : candidates) {
        ++stats.scanned;
        const uint64_t touch =
            entry->last_touch_ms.load(std::memory_order_relaxed);
        EnginePtr engine = std::atomic_load_explicit(
            &entry->engine, std::memory_order_acquire);
        if (touch > now || now - touch < idle_ms) {
          // Hot: refresh the per-metric accounting and move on.
          if (engine) AccountEntry(*entry, engine->MemoryFootprint());
          continue;
        }
        std::lock_guard<std::mutex> lifecycle(entry->lifecycle_mutex);
        if (entry->dropped.load(std::memory_order_acquire)) continue;
        // Re-read the idle clock under the lifecycle lock, against a
        // fresh clock: a Find may have touched this metric (or a slow
        // Rehydrate republished it -- it refreshes the touch under this
        // same mutex) since the unlocked scan above, possibly long ago
        // if this sweep is large. Deciding against the stale sweep-start
        // `now` would re-retire an engine the moment it came back.
        const uint64_t now_locked = NowMs();
        const uint64_t touch_locked =
            entry->last_touch_ms.load(std::memory_order_relaxed);
        engine = std::atomic_load_explicit(&entry->engine,
                                           std::memory_order_acquire);
        if (touch_locked > now_locked || now_locked - touch_locked < idle_ms) {
          if (engine) AccountEntry(*entry, engine->MemoryFootprint());
          continue;
        }
        if (!engine) continue;  // already evicted
        if (durability_ != nullptr && engine->wal() != nullptr) {
          // Unpublish BEFORE retiring. Once the pointer is null, a
          // racing appender's re-resolve parks in Rehydrate on this
          // lifecycle mutex instead of spinning on a still-published
          // retired handle -- with one core, that spin can burn every
          // bounded server retry before this thread runs again. The
          // ordering bounds the race: an append can only see
          // MetricRetired through a handle it grabbed before the null
          // store, so its first re-resolve already blocks until the
          // rehydrated engine is ready.
          EnginePtr empty;
          std::atomic_store_explicit(&entry->engine, empty,
                                     std::memory_order_release);
          try {
            engine->RetireForEviction();
          } catch (...) {
            // Checkpoint failed; the engine is still live and appendable
            // (strong guarantee), so republish it before rethrowing.
            std::atomic_store_explicit(&entry->engine, engine,
                                       std::memory_order_release);
            throw;
          }
          durability_->OnEvict(name);
          AccountEntry(*entry, kEvictedEntryBytes + name.size());
          rehydration_stats_evictions_.fetch_add(1,
                                                 std::memory_order_relaxed);
          ++stats.evicted;
        } else {
          engine->TrimMemory();
          AccountEntry(*entry, engine->MemoryFootprint());
          ++stats.trimmed;
        }
      }
    }
    return stats;
  }

  size_t size() const {
    return total_metrics_.load(std::memory_order_relaxed);
  }

  // Bytes currently charged against the memory quota (sum of per-metric
  // accounted footprints; refreshed by eviction sweeps).
  uint64_t AccountedMemoryBytes() const {
    return memory_bytes_.load(std::memory_order_relaxed);
  }

  uint64_t Evictions() const {
    return rehydration_stats_evictions_.load(std::memory_order_relaxed);
  }
  uint64_t Rehydrations() const {
    return rehydration_stats_rehydrations_.load(std::memory_order_relaxed);
  }

  // Monotone directory version: the sum of per-shard epochs, each bumped
  // by every Create/Drop in that shard. Reads are sequential over
  // monotone counters, so the sum observed by a later scan is never
  // smaller than an earlier one -- staleness is always detected.
  uint64_t Epoch() const {
    uint64_t sum = 0;
    for (const Shard& shard : shards_) {
      sum += shard.epoch.load(std::memory_order_acquire);
    }
    return sum;
  }

  // Sorted metric-name snapshot, epoch-cached: while no metric is created
  // or dropped, repeated LISTs are one lock-free atomic load; after a
  // CREATE/DROP only the touched shard's sorted run is rebuilt and the
  // global view re-merged lazily, on the next LIST.
  std::shared_ptr<const std::vector<std::string>> List() const {
    return list_cache_.Get([this] { return Epoch(); },
                           [this] { return MergeAllNames(); });
  }

  // One page of the directory, sorted: names matching `prefix` (empty =
  // all), skipping `offset` matches, returning at most `limit` (0 = no
  // limit). *total gets the full match count regardless of paging. Never
  // materializes more than the page plus the per-shard cached runs.
  std::vector<std::string> ListPage(const std::string& prefix,
                                    uint64_t offset, uint64_t limit,
                                    uint64_t* total) const {
    ValidateMetricPrefix(prefix);
    const std::string upper = PrefixSuccessor(prefix);
    struct Range {
      std::shared_ptr<const std::vector<std::string>> names;
      size_t pos;
      size_t end;
    };
    std::vector<Range> ranges;
    ranges.reserve(kRegistryShards);
    uint64_t matched = 0;
    for (const Shard& shard : shards_) {
      std::shared_ptr<const std::vector<std::string>> names =
          ShardNames(shard);
      auto begin = prefix.empty()
                       ? names->begin()
                       : std::lower_bound(names->begin(), names->end(),
                                          prefix);
      auto end = upper.empty()
                     ? names->end()
                     : std::lower_bound(begin, names->end(), upper);
      if (begin == end) continue;
      const size_t b = static_cast<size_t>(begin - names->begin());
      const size_t e = static_cast<size_t>(end - names->begin());
      matched += e - b;
      ranges.push_back(Range{std::move(names), b, e});
    }
    if (total != nullptr) *total = matched;
    std::vector<std::string> page;
    if (offset >= matched) return page;
    const uint64_t want = (limit == 0)
                              ? matched - offset
                              : std::min<uint64_t>(limit, matched - offset);
    page.reserve(static_cast<size_t>(want));
    // K-way merge of the per-shard sorted runs, counting off the offset
    // then emitting the page.
    auto greater = [&ranges](size_t a, size_t b) {
      return (*ranges[a].names)[ranges[a].pos] >
             (*ranges[b].names)[ranges[b].pos];
    };
    std::priority_queue<size_t, std::vector<size_t>, decltype(greater)>
        heap(greater);
    for (size_t i = 0; i < ranges.size(); ++i) heap.push(i);
    uint64_t skipped = 0;
    while (!heap.empty() && page.size() < want) {
      const size_t i = heap.top();
      heap.pop();
      if (skipped < offset) {
        ++skipped;
      } else {
        page.push_back((*ranges[i].names)[ranges[i].pos]);
      }
      if (++ranges[i].pos < ranges[i].end) heap.push(i);
    }
    return page;
  }

 private:
  // One metric's directory slot. Outlives eviction (the engine pointer
  // goes null); erased from the shard map only by Drop.
  struct Entry {
    explicit Entry(const MetricSpec& s) : spec(s) {}
    const MetricSpec spec;
    // Read/written with std::atomic_load/store; null while evicted.
    std::shared_ptr<MetricEngine> engine;
    // Serializes evict vs. rehydrate vs. drop for THIS metric. Taken
    // after the shard mutex when both are held; alone in Rehydrate.
    std::mutex lifecycle_mutex;
    std::atomic<uint64_t> last_touch_ms{0};
    std::atomic<uint64_t> accounted_bytes{0};
    std::atomic<bool> dropped{false};
  };
  using EntryPtr = std::shared_ptr<Entry>;

  struct Shard {
    mutable std::shared_mutex mutex;
    std::map<std::string, EntryPtr> metrics;
    std::atomic<uint64_t> epoch{0};
    // Sorted-name snapshot of THIS shard, keyed on the shard epoch:
    // a CREATE/DROP elsewhere leaves this run untouched.
    concurrency::EpochSnapshotCache<std::vector<std::string>> names_cache;
  };

  Shard& ShardFor(const std::string& name) {
    return shards_[std::hash<std::string>{}(name) & (kRegistryShards - 1)];
  }
  const Shard& ShardFor(const std::string& name) const {
    return shards_[std::hash<std::string>{}(name) & (kRegistryShards - 1)];
  }

  static uint64_t NowMs() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  // Re-charges a metric at `new_bytes`, keeping the global gauge in sync
  // (modular uint64 arithmetic absorbs shrinking footprints).
  void AccountEntry(Entry& entry, uint64_t new_bytes) {
    const uint64_t old_bytes =
        entry.accounted_bytes.exchange(new_bytes, std::memory_order_relaxed);
    memory_bytes_.fetch_add(new_bytes - old_bytes, std::memory_order_relaxed);
  }

  // Reserves one metric + `footprint` bytes against the quotas, rolling
  // back and throwing QuotaExceeded on either limit. Called under the
  // target shard's unique lock (so a rejected CREATE never becomes
  // visible).
  void ReserveQuota(const std::string& name, uint64_t footprint) {
    const uint64_t max_metrics =
        max_metrics_.load(std::memory_order_relaxed);
    const uint64_t prior_count =
        total_metrics_.fetch_add(1, std::memory_order_relaxed);
    if (max_metrics != 0 && prior_count >= max_metrics) {
      total_metrics_.fetch_sub(1, std::memory_order_relaxed);
      throw QuotaExceeded("metric quota exceeded (limit " +
                          std::to_string(max_metrics) +
                          "): cannot create '" + name + "'");
    }
    const uint64_t max_bytes =
        max_memory_bytes_.load(std::memory_order_relaxed);
    const uint64_t prior_bytes =
        memory_bytes_.fetch_add(footprint, std::memory_order_relaxed);
    if (max_bytes != 0 && prior_bytes + footprint > max_bytes) {
      memory_bytes_.fetch_sub(footprint, std::memory_order_relaxed);
      total_metrics_.fetch_sub(1, std::memory_order_relaxed);
      throw QuotaExceeded("memory quota exceeded (limit " +
                          std::to_string(max_bytes) +
                          " bytes): cannot create '" + name + "'");
    }
  }

  void ReleaseQuota(uint64_t footprint) {
    memory_bytes_.fetch_sub(footprint, std::memory_order_relaxed);
    total_metrics_.fetch_sub(1, std::memory_order_relaxed);
  }

  // Rebuilds an evicted metric's engine from its eviction checkpoint +
  // WAL tail, exactly the restart-recovery procedure, so the rehydrated
  // engine is bit-identical to the evicted one. Serialized per entry by
  // the lifecycle mutex; concurrent Finds wait and share the result.
  EnginePtr Rehydrate(const std::string& name, const EntryPtr& entry) {
    std::lock_guard<std::mutex> lifecycle(entry->lifecycle_mutex);
    EnginePtr engine = std::atomic_load_explicit(&entry->engine,
                                                 std::memory_order_acquire);
    if (engine) return engine;  // another thread rehydrated first
    if (entry->dropped.load(std::memory_order_acquire)) return nullptr;
    util::CheckState(durability_ != nullptr,
                     "evicted metric without a durability manager");
    persist::RehydratedMetric r = durability_->OnRehydrate(name);
    EnginePtr fresh =
        r.state.snapshot_blob.empty()
            ? MakeEngine(entry->spec)
            : MakeRecoveredEngine(entry->spec, r.state.snapshot_blob,
                                  r.state.snapshot_accepted_n,
                                  r.state.snapshot_lsn);
    for (const std::vector<double>& batch : r.state.batches) {
      fresh->Append(batch.data(), batch.size());
    }
    fresh->SetLog(std::move(r.log));
    AccountEntry(*entry, fresh->MemoryFootprint());
    // Refresh the idle clock before publishing: rehydration can wait out
    // a long eviction sweep on the durability manager, leaving the
    // Find-time touch older than the idle TTL -- the metric's idle life
    // starts now, when it is actually usable again. The evictor re-reads
    // the touch under this same lifecycle mutex, so a just-published
    // engine can never be re-retired as idle.
    entry->last_touch_ms.store(NowMs(), std::memory_order_relaxed);
    std::atomic_store_explicit(&entry->engine, fresh,
                               std::memory_order_release);
    rehydration_stats_rehydrations_.fetch_add(1, std::memory_order_relaxed);
    return fresh;
  }

  // This shard's sorted name run (epoch-cached; rebuilt only after a
  // CREATE/DROP in this shard).
  std::shared_ptr<const std::vector<std::string>> ShardNames(
      const Shard& shard) const {
    return shard.names_cache.Get(
        [&shard] { return shard.epoch.load(std::memory_order_acquire); },
        [&shard] {
          std::shared_lock<std::shared_mutex> lock(shard.mutex);
          std::vector<std::string> names;
          names.reserve(shard.metrics.size());
          for (const auto& [name, entry] : shard.metrics) {
            (void)entry;
            names.push_back(name);
          }
          return names;  // std::map iterates sorted
        });
  }

  // Full sorted directory: k-way merge of the per-shard runs.
  std::vector<std::string> MergeAllNames() const {
    std::vector<std::shared_ptr<const std::vector<std::string>>> parts;
    parts.reserve(kRegistryShards);
    size_t count = 0;
    for (const Shard& shard : shards_) {
      parts.push_back(ShardNames(shard));
      count += parts.back()->size();
    }
    std::vector<std::string> merged;
    merged.reserve(count);
    std::vector<size_t> pos(parts.size(), 0);
    auto greater = [&parts, &pos](size_t a, size_t b) {
      return (*parts[a])[pos[a]] > (*parts[b])[pos[b]];
    };
    std::priority_queue<size_t, std::vector<size_t>, decltype(greater)>
        heap(greater);
    for (size_t i = 0; i < parts.size(); ++i) {
      if (!parts[i]->empty()) heap.push(i);
    }
    while (!heap.empty()) {
      const size_t i = heap.top();
      heap.pop();
      merged.push_back((*parts[i])[pos[i]]);
      if (++pos[i] < parts[i]->size()) heap.push(i);
    }
    return merged;
  }

  // Smallest string greater than every string with prefix `prefix`, or
  // empty when no finite bound exists (prefix all-0xff or empty).
  static std::string PrefixSuccessor(std::string prefix) {
    while (!prefix.empty()) {
      if (static_cast<unsigned char>(prefix.back()) != 0xff) {
        prefix.back() = static_cast<char>(prefix.back() + 1);
        return prefix;
      }
      prefix.pop_back();
    }
    return prefix;
  }

  static EnginePtr MakeEngine(const MetricSpec& spec) {
    switch (spec.kind) {
      case EngineKind::kPlain:
        return std::make_shared<Engine<ReqSketch<double>>>(spec, 0, spec.base);
      case EngineKind::kSharded:
        return std::make_shared<Engine<detail::RotatingShards>>(spec, 0, spec);
      case EngineKind::kWindowed:
        return std::make_shared<Engine<window::WindowedReqSketch<double>>>(
            spec, 0, detail::WindowConfigOf(spec));
    }
    throw std::invalid_argument("unknown engine kind");
  }

  // Rebuilds an engine from a kind-tagged checkpoint blob, positioned at
  // WAL batch `batches`. ReqSerde v2 carries each sketch's exact PRNG
  // state and window rotation is count-driven, so replaying the WAL tail
  // continues bit-identically. The blob is untrusted (it came off disk):
  // kind mismatches and serde corruption throw runtime_error, which
  // recovery surfaces at startup rather than serving a metric whose state
  // silently disagrees with its spec.
  static EnginePtr MakeRecoveredEngine(const MetricSpec& spec,
                                       const std::vector<uint8_t>& blob,
                                       uint64_t accepted_n,
                                       uint64_t batches) {
    util::CheckData(SnapshotBlobKind(blob) == spec.kind,
                    "snapshot engine kind differs from metric spec");
    const std::vector<uint8_t> payload = SnapshotBlobPayload(blob);
    switch (spec.kind) {
      case EngineKind::kPlain:
        return std::make_shared<Engine<ReqSketch<double>>>(
            spec, accepted_n, DeserializeSketch<double>(payload));
      case EngineKind::kSharded:
        return std::make_shared<Engine<detail::RotatingShards>>(
            spec, accepted_n, spec, payload, batches);
      case EngineKind::kWindowed:
        return std::make_shared<Engine<window::WindowedReqSketch<double>>>(
            spec, accepted_n,
            window::WindowedReqSketch<double>::Deserialize(payload));
    }
    throw std::invalid_argument("unknown engine kind");
  }

  std::array<Shard, kRegistryShards> shards_;
  persist::DurabilityManager* durability_ = nullptr;
  std::atomic<uint64_t> max_metrics_{0};
  std::atomic<uint64_t> max_memory_bytes_{0};
  std::atomic<uint64_t> total_metrics_{0};
  std::atomic<uint64_t> memory_bytes_{0};
  std::atomic<uint64_t> rehydration_stats_evictions_{0};
  std::atomic<uint64_t> rehydration_stats_rehydrations_{0};
  // Whole-directory sorted view, keyed on the shard-epoch sum.
  concurrency::EpochSnapshotCache<std::vector<std::string>> list_cache_;
};

}  // namespace service
}  // namespace req

#endif  // REQSKETCH_SERVICE_SKETCH_REGISTRY_H_
