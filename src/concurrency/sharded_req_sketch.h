// ShardedReqSketch: multi-core ingestion for the REQ sketch.
//
// The REQ sketch is fully mergeable (Theorem 3 / Algorithm 3), so the
// scalable ingestion design is shard-per-thread: N independent ReqSketch
// shards, each owned by exactly one producer thread, with queries served
// by merging the shards on demand. This mirrors the DataSketches
// concurrent-sketch architecture (thread-local buffers + merge into a
// shared read view), adapted to REQ's merge-on-query strengths:
//
//   * Each shard has a fixed-capacity, cache-line-aligned SPSC staging
//     buffer (concurrency/spsc_buffer.h). The shard's single producer
//     pushes items lock-free; when the buffer fills, the producer drains
//     it into the shard's ReqSketch through the batch
//     Update(const T*, size_t) -- so the per-item ingest cost stays on the
//     batch fast path (sorted-prefix inserts, one compaction cascade per
//     level-0 fill) and the only synchronization per buffer-full of items
//     is one uncontended shard mutex.
//   * A global atomic epoch counter is bumped after every flush. Queries
//     go through a merged view cached in a concurrency::EpochSnapshotCache:
//     a ReqSketch built by a single N-way Merge over all shards, tagged
//     with the epoch observed before the merge. While the epoch is
//     unchanged, queries are lock-free (an atomic shared_ptr load) and hit
//     the merged sketch's memoized sorted view; after a flush, the first
//     query rebuilds the view.
//
// Threading contract:
//   * SINGLE WRITER PER SHARD: at most one thread may call
//     Update(shard, ...) / Flush(shard) for a given shard at a time.
//     Different shards are fully independent; a natural assignment is
//     shard = thread index.
//   * Any number of threads may run queries concurrently with producers.
//     Queries reflect *flushed* items only: items still in a staging
//     buffer become visible after the owning producer fills the buffer or
//     someone calls Flush/FlushAll. (FlushAll may run concurrently with
//     producers; draining happens under the shard lock.)
//   * Determinism: each shard's sketch is seeded base.seed + shard, and a
//     shard's content is a pure function of its own input sequence and
//     flush boundaries. A fixed per-shard input and flush schedule
//     (e.g. join producers, then FlushAll) reproduces byte-identical
//     serialized state across runs -- even with real concurrency, because
//     cross-shard timing never influences any shard's stream.
//
// The shard seeding and the serialized layout (ShardConfig,
// SerializeShards/DeserializeShards below) and the merged view
// (MergeShards, core/req_sketch.h) are shared with the service's sharded
// engine, which keeps the same shards without staging buffers
// (service/sketch_registry.h).
#ifndef REQSKETCH_CONCURRENCY_SHARDED_REQ_SKETCH_H_
#define REQSKETCH_CONCURRENCY_SHARDED_REQ_SKETCH_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <type_traits>
#include <utility>
#include <vector>

#include "concurrency/epoch_snapshot.h"
#include "concurrency/spsc_buffer.h"
#include "core/req_common.h"
#include "core/req_serde.h"
#include "core/req_sketch.h"
#include "core/sorted_view.h"
#include "util/serde.h"
#include "util/validation.h"

namespace req {
namespace concurrency {

struct ShardedReqConfig {
  // Number of independent shards; one producer thread per shard.
  size_t num_shards = 4;
  // Per-shard staging buffer capacity in items (rounded up to a power of
  // two). Larger buffers amortize the shard lock and the compaction
  // cascade over more items; 4096 doubles is one 32 KiB L1-resident block.
  size_t buffer_capacity = 4096;
  // Configuration for every shard sketch; shard i is seeded
  // base.seed + i so shards draw independent, reproducible coin flips.
  ReqConfig base;
};

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

template <typename T, typename Compare = std::less<T>>
class ShardedReqSketch {
 public:
  using Sketch = ReqSketch<T, Compare>;
  using value_type = T;

  explicit ShardedReqSketch(const ShardedReqConfig& config = {},
                            Compare comp = Compare())
      : config_(config), comp_(comp) {
    util::CheckArg(config.num_shards >= 1, "num_shards must be >= 1");
    util::CheckArg(config.buffer_capacity >= 1 &&
                       config.buffer_capacity <= (uint64_t{1} << 32),
                   "buffer_capacity must be in [1, 2^32]");
    shards_.reserve(config.num_shards);
    for (size_t i = 0; i < config.num_shards; ++i) {
      shards_.push_back(std::make_unique<Shard>(
          config.buffer_capacity, ShardConfig(config.base, i), comp));
    }
  }

  // --- basic accessors -----------------------------------------------------

  const ShardedReqConfig& config() const { return config_; }
  size_t num_shards() const { return shards_.size(); }

  // Total items flushed into shard sketches (what queries can see).
  uint64_t FlushedN() const {
    uint64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard->flushed_n.load(std::memory_order_acquire);
    }
    return total;
  }
  uint64_t n() const { return FlushedN(); }
  bool is_empty() const { return FlushedN() == 0; }

  // Items sitting in staging buffers, not yet visible to queries. Exact
  // only while producers are quiescent.
  uint64_t BufferedItems() const {
    uint64_t total = 0;
    for (const auto& shard : shards_) total += shard->buffer.size();
    return total;
  }

  // Stored universe items across all shard sketches (space measure).
  size_t RetainedItems() const {
    size_t total = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      total += shard->sketch.RetainedItems();
    }
    return total;
  }

  // Resident heap footprint: every shard's staging buffer (at capacity),
  // flush scratch, and sketch, plus the cached merged view when one is
  // published. Takes each shard lock in turn (never two at once).
  size_t MemoryBytes() const {
    size_t bytes = sizeof(*this) + shards_.capacity() * sizeof(void*);
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      // sketch.MemoryBytes() counts the sketch header already inside
      // sizeof(Shard); charge the Shard once and subtract the overlap.
      bytes += sizeof(Shard) - sizeof(Sketch) +
               shard->buffer.capacity() * sizeof(T) +
               shard->flush_scratch.capacity() * sizeof(T) +
               shard->sketch.MemoryBytes();
    }
    if (std::shared_ptr<const Sketch> merged = merged_.Peek()) {
      bytes += merged->MemoryBytes();
    }
    return bytes;
  }

  // Releases allocator slack on every shard (view caches, flush scratch,
  // arena slack) and drops the cached merged view. Requires the producers
  // to be quiescent, like Merge; concurrent queries remain safe (a query
  // holding the old merged view keeps it alive through its shared_ptr).
  void TrimMemory() {
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      shard->sketch.TrimMemory();
      shard->flush_scratch.clear();
      shard->flush_scratch.shrink_to_fit();
    }
    merged_.Invalidate();
  }

  // Monotone counter bumped after every flush/merge; the cached merged
  // view is tagged with it (exposed for tests and monitoring).
  uint64_t Epoch() const { return epoch_.load(std::memory_order_acquire); }

  // --- producer API (single writer per shard) ------------------------------

  // Buffers one item for `shard`; flushes the shard when the buffer is
  // full. Only the shard's owning producer thread may call this.
  void Update(size_t shard, const T& item) {
    Shard& s = GetShard(shard);
    while (!s.buffer.TryPush(item)) Flush(shard);
  }

  // Buffers `count` items in order; flushes whenever the staging buffer
  // fills. Flush boundaries land exactly where a per-item loop would put
  // them, so bulk and per-item feeding produce identical shard state.
  void Update(size_t shard, const T* data, size_t count) {
    Shard& s = GetShard(shard);
    while (count > 0) {
      const size_t pushed = s.buffer.TryPushBulk(data, count);
      data += pushed;
      count -= pushed;
      if (count > 0) Flush(shard);
    }
  }

  void Update(size_t shard, const std::vector<T>& items) {
    Update(shard, items.data(), items.size());
  }

  // Drains `shard`'s staging buffer into its sketch via the batch update
  // path. Callable by the shard's producer (buffer-full path) or by an
  // administrative thread acting as the buffer's consumer (e.g. FlushAll
  // before a query barrier) -- the shard lock serializes the two.
  void Flush(size_t shard) {
    Shard& s = GetShard(shard);
    std::lock_guard<std::mutex> lock(s.mutex);
    s.flush_scratch.clear();
    if (s.buffer.PopAll(&s.flush_scratch) > 0) {
      s.sketch.Update(s.flush_scratch.data(), s.flush_scratch.size());
      s.flushed_n.store(s.sketch.n(), std::memory_order_release);
      // Bump INSIDE the shard lock: a FlushAll that serializes behind
      // this flush (and pops nothing) must observe the bumped epoch, or
      // a query after its FlushAll could serve a cached merged view
      // missing items this flush already applied. Safe with View(): it
      // reads the epoch before taking the shard locks, so a concurrent
      // bump can only make its tag stale, never its data.
      BumpEpoch();
    }
  }

  // Flushes every shard. Queries issued afterwards (with producers
  // quiescent) see every item ingested so far.
  void FlushAll() {
    for (size_t i = 0; i < shards_.size(); ++i) Flush(i);
  }

  // --- merging -------------------------------------------------------------

  // Absorbs another sharded sketch: flushes it, snapshots its shard
  // sketches, and N-way-merges them into this sketch's shards
  // round-robin. `other` is flushed but not otherwise modified; shard
  // counts need not match. Requires exclusive access to `other`'s
  // producers; concurrent queries on either object remain safe.
  void Merge(ShardedReqSketch& other) {
    util::CheckArg(this != &other,
                   "cannot merge a sharded sketch into itself");
    other.FlushAll();
    // Snapshot under one lock at a time (never both objects' locks at
    // once), so two threads merging in opposite directions cannot
    // deadlock.
    std::vector<Sketch> snapshots;
    snapshots.reserve(other.shards_.size());
    for (const auto& shard : other.shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      if (!shard->sketch.is_empty()) snapshots.push_back(shard->sketch);
    }
    if (snapshots.empty()) return;
    std::vector<const Sketch*> per_target;
    for (size_t target = 0; target < shards_.size(); ++target) {
      per_target.clear();
      for (size_t j = target; j < snapshots.size(); j += shards_.size()) {
        per_target.push_back(&snapshots[j]);
      }
      if (per_target.empty()) continue;
      Shard& s = *shards_[target];
      std::lock_guard<std::mutex> lock(s.mutex);
      s.sketch.Merge(per_target.data(), per_target.size());
      s.flushed_n.store(s.sketch.n(), std::memory_order_release);
    }
    BumpEpoch();
  }

  // A standalone ReqSketch summarizing all flushed items (a copy of the
  // cached merged view).
  Sketch Merged() const { return *View(); }

  // A copy of one shard's sketch (diagnostics and tests).
  Sketch ShardSnapshot(size_t shard) const {
    const Shard& s = GetShard(shard);
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.sketch;
  }

  // --- queries (delegating to the cached merged view) ----------------------
  //
  // Querying an empty sharded sketch throws the same "empty sketch"
  // std::logic_error a plain ReqSketch does -- checked up front, so shards
  // that were flushed while empty never cause an empty merged view to be
  // built and queried (the plain sketch's own CheckState would fire only
  // after that wasted merge, and with a message blaming the inner object).

  uint64_t GetRank(const T& y,
                   Criterion criterion = Criterion::kInclusive) const {
    util::CheckState(!is_empty(), "GetRank() on an empty sketch");
    return View()->GetRank(y, criterion);
  }

  double GetNormalizedRank(
      const T& y, Criterion criterion = Criterion::kInclusive) const {
    util::CheckState(!is_empty(), "GetNormalizedRank() on an empty sketch");
    return View()->GetNormalizedRank(y, criterion);
  }

  std::vector<uint64_t> GetRanks(
      const std::vector<T>& ys,
      Criterion criterion = Criterion::kInclusive) const {
    util::CheckState(!is_empty(), "GetRanks() on an empty sketch");
    return View()->GetRanks(ys, criterion);
  }

  // Bulk rank kernel (one co-scan of the merged view's weight-indexed
  // sorted view); safe to call from any number of threads concurrently.
  void GetRanks(const T* ys, size_t count, uint64_t* out,
                Criterion criterion = Criterion::kInclusive) const {
    util::CheckState(!is_empty(), "GetRanks() on an empty sketch");
    View()->GetRanks(ys, count, out, criterion);
  }

  T GetQuantile(double q,
                Criterion criterion = Criterion::kInclusive) const {
    util::CheckState(!is_empty(), "GetQuantile() on an empty sketch");
    // NaN-rejecting, and before the (possibly expensive) N-way merge the
    // view rebuild performs.
    util::CheckArg(q >= 0.0 && q <= 1.0,
                   "normalized rank must be in [0, 1]");
    return View()->GetQuantile(q, criterion);
  }

  std::vector<T> GetQuantiles(
      const std::vector<double>& qs,
      Criterion criterion = Criterion::kInclusive) const {
    util::CheckState(!is_empty(), "GetQuantiles() on an empty sketch");
    for (double q : qs) {
      util::CheckArg(q >= 0.0 && q <= 1.0,
                     "normalized rank must be in [0, 1]");
    }
    return View()->GetQuantiles(qs, criterion);
  }

  std::vector<double> GetCDF(
      const std::vector<T>& splits,
      Criterion criterion = Criterion::kInclusive) const {
    util::CheckState(!is_empty(), "GetCDF() on an empty sketch");
    return View()->GetCDF(splits, criterion);
  }

  std::vector<double> GetPMF(
      const std::vector<T>& splits,
      Criterion criterion = Criterion::kInclusive) const {
    util::CheckState(!is_empty(), "GetPMF() on an empty sketch");
    return View()->GetPMF(splits, criterion);
  }

  uint64_t GetRankLowerBound(
      const T& y, int num_std_devs,
      Criterion criterion = Criterion::kInclusive) const {
    util::CheckState(!is_empty(), "GetRankLowerBound() on an empty sketch");
    return View()->GetRankLowerBound(y, num_std_devs, criterion);
  }

  uint64_t GetRankUpperBound(
      const T& y, int num_std_devs,
      Criterion criterion = Criterion::kInclusive) const {
    util::CheckState(!is_empty(), "GetRankUpperBound() on an empty sketch");
    return View()->GetRankUpperBound(y, num_std_devs, criterion);
  }

  T MinItem() const {
    util::CheckState(!is_empty(), "MinItem() on an empty sketch");
    return View()->MinItem();
  }
  T MaxItem() const {
    util::CheckState(!is_empty(), "MaxItem() on an empty sketch");
    return View()->MaxItem();
  }
  double RelativeStdErr() const {
    return params::RelativeStdErr(config_.base.k_base);
  }

  // --- serialization (trivially copyable T) --------------------------------
  //
  // The SHRQ layout (SerializeShards above). Serializes flushed state
  // only; call FlushAll() (with producers quiescent) first -- buffered
  // items would otherwise be silently lost, so a non-empty buffer is an
  // error.
  std::vector<uint8_t> Serialize() const {
    util::CheckState(BufferedItems() == 0,
                     "Serialize() requires FlushAll() first");
    std::vector<std::unique_lock<std::mutex>> locks;
    return SerializeShards(LockShards(&locks), config_.buffer_capacity);
  }

  static ShardedReqSketch Deserialize(const std::vector<uint8_t>& bytes,
                                      Compare comp = Compare()) {
    uint64_t buffer_capacity = 0;
    std::vector<Sketch> sketches =
        DeserializeShards<T, Compare>(bytes, &buffer_capacity, comp);
    ShardedReqConfig config;
    config.num_shards = sketches.size();
    config.buffer_capacity = static_cast<size_t>(buffer_capacity);
    config.base = sketches.front().config();
    // Returned as a prvalue (guaranteed elision): the class itself is
    // neither copyable nor movable (per-shard mutexes and atomics).
    return ShardedReqSketch(config, std::move(comp), std::move(sketches));
  }

 private:
  // Deserialization: builds the shard scaffolding, then installs the
  // restored shard sketches.
  ShardedReqSketch(const ShardedReqConfig& config, Compare comp,
                   std::vector<Sketch>&& sketches)
      : ShardedReqSketch(config, std::move(comp)) {
    for (size_t i = 0; i < sketches.size(); ++i) {
      Shard& s = *shards_[i];
      s.sketch = std::move(sketches[i]);
      s.flushed_n.store(s.sketch.n(), std::memory_order_release);
    }
  }

  // One shard: staging buffer + sketch + lock, padded to its own cache
  // line so producers on different shards never false-share.
  struct alignas(kCacheLineSize) Shard {
    Shard(size_t buffer_capacity, const ReqConfig& sketch_config,
          const Compare& comp)
        : buffer(buffer_capacity), sketch(sketch_config, comp) {}

    SpscBuffer<T> buffer;
    // Guards sketch, flush_scratch, and the buffer's consumer role.
    mutable std::mutex mutex;
    Sketch sketch;
    // Reused drain target for flushes (allocation-free steady state).
    std::vector<T> flush_scratch;
    // sketch.n() published after each flush, so FlushedN() needs no locks.
    std::atomic<uint64_t> flushed_n{0};
  };

  Shard& GetShard(size_t shard) const {
    util::CheckArg(shard < shards_.size(), "shard index out of range");
    return *shards_[shard];
  }

  void BumpEpoch() { epoch_.fetch_add(1, std::memory_order_release); }

  // Locks every shard in index order (the one multi-lock order, so it
  // cannot deadlock against Flush, which takes only its own shard's lock)
  // and returns the shard sketches. The locks live in *locks.
  std::vector<const Sketch*> LockShards(
      std::vector<std::unique_lock<std::mutex>>* locks) const {
    locks->reserve(shards_.size());
    std::vector<const Sketch*> sketches;
    sketches.reserve(shards_.size());
    for (const auto& shard : shards_) {
      locks->emplace_back(shard->mutex);
      sketches.push_back(&shard->sketch);
    }
    return sketches;
  }

  // Returns the current merged view, rebuilding it when stale (one merge
  // per epoch however many queries race; see EpochSnapshotCache).
  std::shared_ptr<const Sketch> View() const {
    return merged_.Get(
        [this] { return epoch_.load(std::memory_order_acquire); },
        [this] {
          // Hold every shard lock for the single N-way merge: it then
          // sees one consistent cross-shard snapshot and can pre-size its
          // level buffers once.
          Sketch merged = [this] {
            std::vector<std::unique_lock<std::mutex>> locks;
            return MergeShards(config_.base, LockShards(&locks), comp_);
          }();
          // Warm the memoized sorted view outside the shard locks so
          // concurrent order-based queries on the published view take
          // only lock-free reads.
          merged.PrepareSortedView();
          return merged;
        });
  }

  ShardedReqConfig config_;
  Compare comp_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Bumped after every flush/merge; tags the cached merged view.
  std::atomic<uint64_t> epoch_{0};
  EpochSnapshotCache<Sketch> merged_;
};

}  // namespace concurrency
}  // namespace req

#endif  // REQSKETCH_CONCURRENCY_SHARDED_REQ_SKETCH_H_
