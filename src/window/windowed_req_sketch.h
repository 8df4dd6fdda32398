// WindowedReqSketch: sliding-window quantiles over the recent past.
//
// The production question for a latency sketch is rarely "quantiles since
// process start" but "quantiles over the last N minutes". Full mergeability
// (Theorem 3) makes the classic bucketed construction essentially free for
// REQ: keep a ring of B time-bucketed sub-sketches, stream into the newest
// bucket, retire the oldest whole bucket on rotation, and answer queries by
// N-way-merging the live buckets -- the same MergeShards machinery the
// service's sharded metrics (RotatingShards, service/sketch_registry.h)
// answer from. Each live item is summarized by exactly one bucket, so the
// merged view carries the REQ error guarantee for the window's n, and the
// rank confidence bounds delegate to the merged sketch, i.e. they are
// scaled to the window size rather than the stream lifetime.
//
// Window semantics: the window covers the current (partially filled) bucket
// plus the B-1 buckets before it -- between (B-1)/B and 100% of a full
// window, the standard smooth-expiry trade-off of bucketed windows (cf.
// windowed aggregation in streaming datastores). Rotation is driven either
//   * by item count: config.bucket_items > 0 rotates automatically once the
//     current bucket holds that many items (window ~ last
//     B * bucket_items items), or
//   * by an injected clock: config.bucket_items == 0 never rotates on its
//     own; the owner calls Rotate() from its timer (window ~ last B ticks).
//     The sketch itself never reads a clock, which keeps every test and
//     bench deterministic.
//
// Queries go through a cached merged view built lazily by one N-way Merge
// over the live buckets and memoized until the next Update/Rotate, guarded
// by the same double-checked pattern as ReqSketch's sorted-view cache: any
// number of threads may run const queries concurrently; mutations
// (Update/Rotate) require exclusive access. For concurrent producers, see
// the service's Engine<WindowedReqSketch<double>>
// (service/sketch_registry.h), which serializes appends on a per-metric
// mutex and queries the window under a shared lock.
//
// Determinism: bucket lifetime ("epoch") e is seeded base.seed + e, so the
// full window state is a pure function of the input sequence and rotation
// schedule, and serialization round-trips it exactly (same estimates, same
// rotation/epoch counters and seeds). ReqSerde's caveat is inherited: the
// per-bucket PRNG restarts from its seed, so if the *current* bucket had
// already consumed compaction coin flips, its later compactions draw fresh
// randomness (which the analysis permits). Retired buckets are unaffected
// (Reset reseeds them), so a window serialized while its current bucket is
// empty or still uncompacted -- e.g. at a rotation boundary -- continues
// byte-identically.
#ifndef REQSKETCH_WINDOW_WINDOWED_REQ_SKETCH_H_
#define REQSKETCH_WINDOW_WINDOWED_REQ_SKETCH_H_

#include <cmath>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/req_common.h"
#include "core/req_serde.h"
#include "core/req_sketch.h"
#include "util/serde.h"
#include "util/validation.h"

namespace req {
namespace window {

struct WindowedReqConfig {
  // Number of ring buckets B (>= 2). More buckets = smoother expiry
  // (granularity window/B) but a B-way merge on the first query after a
  // change.
  size_t num_buckets = 8;
  // > 0: rotate automatically once the current bucket holds this many
  // items (count-driven window of ~ num_buckets * bucket_items items).
  // 0: never rotate automatically; the owner injects time by calling
  // Rotate() (tick-driven window of num_buckets ticks).
  uint64_t bucket_items = uint64_t{1} << 16;
  // Per-bucket sketch configuration. Bucket epoch e is seeded
  // base.seed + e. If base.n_hint == 0 and bucket_items > 0, the hint is
  // fixed to num_buckets * bucket_items -- the window's worst-case n --
  // for buckets and merged view alike: with every participant built for
  // the same bound, the query-time N-way merge never special-compacts or
  // regrows (pure buffer concatenation + at most one scheduled compaction
  // per level), and accuracy is provisioned for the full window.
  ReqConfig base;
};

template <typename T, typename Compare = std::less<T>>
class WindowedReqSketch {
 public:
  using Sketch = ReqSketch<T, Compare>;
  using value_type = T;

  explicit WindowedReqSketch(const WindowedReqConfig& config = {},
                             Compare comp = Compare())
      : config_(config), comp_(comp) {
    util::CheckArg(config.num_buckets >= 2 &&
                       config.num_buckets <= (size_t{1} << 16),
                   "num_buckets must be in [2, 2^16]");
    params::ValidateConfig(config_.base);
    if (config_.base.n_hint == 0 && config_.bucket_items > 0) {
      util::CheckArg(
          config_.bucket_items <= params::kMaxN / config_.num_buckets,
          "num_buckets * bucket_items must not exceed 2^62");
      // Fixed-n mode (Theorem 14) for the whole window: buckets can never
      // outgrow it, and bound-aligned buckets merge without special
      // compactions (see WindowedReqConfig::base).
      config_.base.n_hint = config_.num_buckets * config_.bucket_items;
    }
    buckets_.reserve(config_.num_buckets);
    for (size_t i = 0; i < config_.num_buckets; ++i) {
      buckets_.emplace_back(BucketConfig(/*epoch=*/i), comp_);
    }
    next_epoch_ = config_.num_buckets;
  }

  // --- basic accessors -----------------------------------------------------

  const WindowedReqConfig& config() const { return config_; }
  size_t num_buckets() const { return buckets_.size(); }
  uint64_t bucket_items() const { return config_.bucket_items; }
  // Items currently inside the window (current bucket + B-1 predecessors).
  uint64_t n() const { return window_n_; }
  bool is_empty() const { return window_n_ == 0; }
  // Total rotations since construction (each retired one bucket).
  uint64_t rotations() const { return rotations_; }
  // Ring slot of the current (newest) bucket; equals rotations() % B.
  size_t head() const { return head_; }
  // Items in the current bucket (how close the next count-driven rotation
  // is).
  uint64_t CurrentBucketN() const { return buckets_[head_].n(); }

  // Stored universe items across all live buckets (space measure). The
  // merged query view temporarily holds up to the same amount again.
  size_t RetainedItems() const {
    size_t total = 0;
    for (const Sketch& bucket : buckets_) total += bucket.RetainedItems();
    return total;
  }

  // Cheap (O(total levels)) upper bound on RetainedItems; see
  // ReqSketch::EstimateRetainedItems.
  size_t EstimateRetainedItems() const {
    size_t total = 0;
    for (const Sketch& bucket : buckets_) {
      total += bucket.EstimateRetainedItems();
    }
    return total;
  }

  double RelativeStdErr() const {
    return params::RelativeStdErr(config_.base.k_base);
  }

  // Resident heap footprint: every bucket sketch plus the memoized merged
  // view when it is built. Requires the usual reader contract (no
  // concurrent mutators); takes the merged lock so a concurrent query
  // building the view cannot race the walk.
  size_t MemoryBytes() const {
    // Bucket headers live inside the buckets_ allocation, and each
    // bucket's MemoryBytes() already counts its own sizeof -- charge only
    // the ring's slack capacity on top.
    size_t bytes = sizeof(*this) +
                   (buckets_.capacity() - buckets_.size()) * sizeof(Sketch);
    for (const Sketch& bucket : buckets_) bytes += bucket.MemoryBytes();
    std::lock_guard<std::mutex> lock(merged_mutex_.mutex);
    if (merged_cache_.has_value()) bytes += merged_cache_->MemoryBytes();
    return bytes;
  }

  // Releases allocator slack: drops the merged view and trims every
  // bucket. Mutator contract (exclusive access); the window's contents
  // and answers are unchanged, the next query just rebuilds its view.
  void TrimMemory() {
    InvalidateMerged();
    for (Sketch& bucket : buckets_) bucket.TrimMemory();
  }

  // --- updates -------------------------------------------------------------

  void Update(const T& item) {
    // Validate BEFORE rotating: a rejected item must not expire a bucket
    // of live data as a side effect.
    if constexpr (std::is_floating_point_v<T>) {
      util::CheckArg(!std::isnan(item), "cannot update sketch with NaN");
    }
    RotateIfCurrentFull();
    buckets_[head_].Update(item);
    ++window_n_;
    InvalidateMerged();
  }

  // Batch update. Chunks break exactly at every rotation boundary, so the
  // resulting window is identical to the one built by per-item updates.
  // Like ReqSketch's batch path, the whole batch is validated up front:
  // a NaN anywhere throws before anything is applied.
  void Update(const T* data, size_t count) {
    if constexpr (std::is_floating_point_v<T>) {
      for (size_t i = 0; i < count; ++i) {
        util::CheckArg(!std::isnan(data[i]),
                       "cannot update sketch with NaN");
      }
    }
    while (count > 0) {
      RotateIfCurrentFull();
      size_t chunk = count;
      if (config_.bucket_items > 0) {
        chunk = static_cast<size_t>(std::min<uint64_t>(
            count, config_.bucket_items - buckets_[head_].n()));
      }
      buckets_[head_].Update(data, chunk);
      window_n_ += chunk;
      data += chunk;
      count -= chunk;
    }
    InvalidateMerged();
  }

  void Update(const std::vector<T>& items) {
    Update(items.data(), items.size());
  }

  // Advances the window by one bucket: the oldest bucket's items leave the
  // window and its (cheaply Reset) sketch becomes the new current bucket,
  // seeded for its next epoch. In count-driven mode this runs
  // automatically; in tick-driven mode the owner's timer calls it.
  // Rotating an empty current bucket is legal (time passes without
  // traffic) and still retires the oldest bucket.
  void Rotate() {
    head_ = (head_ + 1) % buckets_.size();
    window_n_ -= buckets_[head_].n();
    buckets_[head_].Reset(config_.base.seed + next_epoch_);
    ++next_epoch_;
    ++rotations_;
    InvalidateMerged();
  }

  // --- queries (through the cached merged view) ----------------------------
  //
  // All estimates and confidence bounds are relative to the *window's*
  // n() -- the merged sketch summarizes exactly the live buckets -- so
  // GetRankLowerBound/UpperBound margins scale with the window size, not
  // the stream lifetime.

  uint64_t GetRank(const T& y,
                   Criterion criterion = Criterion::kInclusive) const {
    util::CheckState(!is_empty(), "GetRank() on an empty window");
    return Merged().GetRank(y, criterion);
  }

  double GetNormalizedRank(
      const T& y, Criterion criterion = Criterion::kInclusive) const {
    util::CheckState(!is_empty(),
                     "GetNormalizedRank() on an empty window");
    return Merged().GetNormalizedRank(y, criterion);
  }

  std::vector<uint64_t> GetRanks(
      const std::vector<T>& ys,
      Criterion criterion = Criterion::kInclusive) const {
    util::CheckState(!is_empty(), "GetRanks() on an empty window");
    return Merged().GetRanks(ys, criterion);
  }

  // Bulk rank kernel over the cached merged view (one co-scan).
  void GetRanks(const T* ys, size_t count, uint64_t* out,
                Criterion criterion = Criterion::kInclusive) const {
    util::CheckState(!is_empty(), "GetRanks() on an empty window");
    Merged().GetRanks(ys, count, out, criterion);
  }

  T GetQuantile(double q,
                Criterion criterion = Criterion::kInclusive) const {
    util::CheckState(!is_empty(), "GetQuantile() on an empty window");
    // NaN-rejecting, and before the (possibly expensive) merge.
    util::CheckArg(q >= 0.0 && q <= 1.0,
                   "normalized rank must be in [0, 1]");
    return Merged().GetQuantile(q, criterion);
  }

  std::vector<T> GetQuantiles(
      const std::vector<double>& qs,
      Criterion criterion = Criterion::kInclusive) const {
    util::CheckState(!is_empty(), "GetQuantiles() on an empty window");
    for (double q : qs) {
      util::CheckArg(q >= 0.0 && q <= 1.0,
                     "normalized rank must be in [0, 1]");
    }
    return Merged().GetQuantiles(qs, criterion);
  }

  std::vector<double> GetCDF(
      const std::vector<T>& splits,
      Criterion criterion = Criterion::kInclusive) const {
    util::CheckState(!is_empty(), "GetCDF() on an empty window");
    return Merged().GetCDF(splits, criterion);
  }

  std::vector<double> GetPMF(
      const std::vector<T>& splits,
      Criterion criterion = Criterion::kInclusive) const {
    util::CheckState(!is_empty(), "GetPMF() on an empty window");
    return Merged().GetPMF(splits, criterion);
  }

  uint64_t GetRankLowerBound(
      const T& y, int num_std_devs,
      Criterion criterion = Criterion::kInclusive) const {
    util::CheckState(!is_empty(),
                     "GetRankLowerBound() on an empty window");
    return Merged().GetRankLowerBound(y, num_std_devs, criterion);
  }

  uint64_t GetRankUpperBound(
      const T& y, int num_std_devs,
      Criterion criterion = Criterion::kInclusive) const {
    util::CheckState(!is_empty(),
                     "GetRankUpperBound() on an empty window");
    return Merged().GetRankUpperBound(y, num_std_devs, criterion);
  }

  // Exact min/max of the window contents (each bucket tracks its extremes
  // exactly; the merge folds them).
  T MinItem() const {
    util::CheckState(!is_empty(), "MinItem() on an empty window");
    return Merged().MinItem();
  }
  T MaxItem() const {
    util::CheckState(!is_empty(), "MaxItem() on an empty window");
    return Merged().MaxItem();
  }

  // A standalone ReqSketch summarizing the current window (a copy of the
  // cached merged view).
  Sketch MergedSnapshot() const {
    util::CheckState(!is_empty(), "MergedSnapshot() on an empty window");
    return Merged();
  }

  // Eagerly builds (and sorted-view-warms) the merged view, so subsequent
  // const queries take only lock-free reads. No-op on an empty window.
  void PrepareMergedView() const {
    if (!is_empty()) Merged().PrepareSortedView();
  }

  // A copy of one live bucket's sketch (diagnostics and tests).
  Sketch BucketSnapshot(size_t slot) const {
    util::CheckArg(slot < buckets_.size(), "bucket slot out of range");
    return buckets_[slot];
  }

  // --- serialization (trivially copyable T) --------------------------------
  //
  // Layout: u32 magic | u8 version | u32 num_buckets | u64 bucket_items |
  //         u64 base seed | u64 base n_hint | u64 rotations |
  //         per bucket (ring order): u64 byte count | ReqSerde payload.
  // The head slot is derived (rotations % num_buckets), never trusted from
  // the stream. Deserialize applies the same untrusted-input discipline as
  // ReqSerde: every count is validated before it sizes an allocation, and
  // cross-bucket consistency (mergeability, bucket_items ceiling) is
  // checked so the first query cannot surface corruption as an
  // invalid-argument error far from the load site.

  template <typename U = T>
  std::vector<uint8_t> Serialize() const {
    static_assert(std::is_trivially_copyable_v<U>,
                  "Serialize supports trivially copyable item types");
    util::BinaryWriter writer;
    writer.Write<uint32_t>(kMagic);
    writer.Write<uint8_t>(kVersion);
    writer.Write<uint32_t>(static_cast<uint32_t>(buckets_.size()));
    writer.Write<uint64_t>(config_.bucket_items);
    writer.Write<uint64_t>(config_.base.seed);
    writer.Write<uint64_t>(config_.base.n_hint);
    writer.Write<uint64_t>(rotations_);
    for (const Sketch& bucket : buckets_) {
      writer.WriteVector<uint8_t>(ReqSerde<T, Compare>::Serialize(bucket));
    }
    return writer.Release();
  }

  template <typename U = T>
  static WindowedReqSketch Deserialize(const std::vector<uint8_t>& bytes,
                                       Compare comp = Compare()) {
    static_assert(std::is_trivially_copyable_v<U>,
                  "Deserialize supports trivially copyable item types");
    util::BinaryReader reader(bytes);
    util::CheckData(reader.Read<uint32_t>() == kMagic,
                    "not a serialized windowed REQ sketch (bad magic)");
    util::CheckData(reader.Read<uint8_t>() == kVersion,
                    "unsupported windowed sketch serialization version");
    const uint32_t num_buckets = reader.Read<uint32_t>();
    util::CheckData(num_buckets >= 2 && num_buckets <= (1u << 16),
                    "corrupt windowed sketch: implausible bucket count");
    WindowedReqConfig config;
    config.num_buckets = num_buckets;
    config.bucket_items = reader.Read<uint64_t>();
    // Corrupt input must surface as a data error here, never as the
    // constructor's invalid_argument far from the load site.
    util::CheckData(config.bucket_items <= params::kMaxN / num_buckets,
                    "corrupt windowed sketch: implausible bucket_items");
    const uint64_t base_seed = reader.Read<uint64_t>();
    const uint64_t base_n_hint = reader.Read<uint64_t>();
    util::CheckData(base_n_hint <= params::kMaxN,
                    "corrupt windowed sketch: implausible n_hint");
    const uint64_t rotations = reader.Read<uint64_t>();
    std::vector<Sketch> buckets;
    buckets.reserve(num_buckets);
    for (uint32_t i = 0; i < num_buckets; ++i) {
      const std::vector<uint8_t> payload = reader.ReadVector<uint8_t>();
      buckets.push_back(ReqSerde<T, Compare>::Deserialize(payload, comp));
      util::CheckData(
          buckets[i].config().k_base == buckets[0].config().k_base &&
              buckets[i].config().accuracy == buckets[0].config().accuracy,
          "corrupt windowed sketch: buckets disagree on k_base/accuracy");
      util::CheckData(
          config.bucket_items == 0 ||
              buckets[i].n() <= config.bucket_items,
          "corrupt windowed sketch: bucket exceeds bucket_items");
    }
    // A num_buckets corrupted downward would otherwise parse cleanly and
    // silently drop the unread bucket payloads.
    util::CheckData(reader.AtEnd(),
                    "corrupt windowed sketch: trailing bytes");
    config.base = buckets.front().config();
    config.base.seed = base_seed;
    config.base.n_hint = base_n_hint;
    return WindowedReqSketch(config, std::move(comp), std::move(buckets),
                             rotations);
  }

 private:
  static constexpr uint32_t kMagic = 0x57524551;  // "WREQ" (little-endian)
  static constexpr uint8_t kVersion = 1;

  // Deserialization: installs the restored buckets directly (no throwaway
  // scaffolding sketches). The caller (Deserialize) has already validated
  // every config field with CheckData.
  WindowedReqSketch(const WindowedReqConfig& config, Compare comp,
                    std::vector<Sketch>&& buckets, uint64_t rotations)
      : config_(config),
        comp_(std::move(comp)),
        buckets_(std::move(buckets)),
        rotations_(rotations) {
    head_ = static_cast<size_t>(rotations_ % buckets_.size());
    next_epoch_ = buckets_.size() + rotations_;
    for (const Sketch& bucket : buckets_) window_n_ += bucket.n();
  }

  ReqConfig BucketConfig(uint64_t epoch) const {
    ReqConfig bucket_config = config_.base;
    bucket_config.seed = config_.base.seed + epoch;
    return bucket_config;
  }

  void RotateIfCurrentFull() {
    if (config_.bucket_items > 0 &&
        buckets_[head_].n() >= config_.bucket_items) {
      Rotate();
    }
  }

  // Drops the memoized merged view. Mutators run with exclusive access
  // (no concurrent readers by contract), so plain stores suffice.
  void InvalidateMerged() {
    merged_ready_.value.store(false, std::memory_order_release);
    merged_cache_.reset();
  }

  // The memoized merged view: a ReqSketch built by one N-way Merge over
  // the live buckets, oldest first. Same double-checked fill as
  // ReqSketch::CachedSortedView, so concurrent const queries build it
  // exactly once.
  const Sketch& Merged() const {
    if (!merged_ready_.value.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(merged_mutex_.mutex);
      if (!merged_ready_.value.load(std::memory_order_relaxed)) {
        merged_cache_.emplace(BuildMerged());
        merged_ready_.value.store(true, std::memory_order_release);
      }
    }
    return *merged_cache_;
  }

  // Same bound as every bucket (see WindowedReqConfig::base), so the
  // merge is pure concatenation plus the scheduled per-level sweep; only
  // the compaction coin flips are decorrelated from the bucket epochs'.
  Sketch BuildMerged() const {
    std::vector<const Sketch*> parts;
    parts.reserve(buckets_.size());
    // Ring order, oldest bucket first: deterministic regardless of how
    // often the ring has wrapped.
    for (size_t i = 1; i <= buckets_.size(); ++i) {
      parts.push_back(&buckets_[(head_ + i) % buckets_.size()]);
    }
    return MergeShards(config_.base, parts, comp_);
  }

  WindowedReqConfig config_;
  Compare comp_;
  std::vector<Sketch> buckets_;  // ring; buckets_[head_] is current
  size_t head_ = 0;
  uint64_t rotations_ = 0;
  // Seed counter: bucket epoch e was seeded base.seed + e; epochs 0..B-1
  // are the initial buckets.
  uint64_t next_epoch_ = 0;
  uint64_t window_n_ = 0;
  // Memoized merged view; same publication pattern as the sorted-view
  // cache in ReqSketch (concurrent const readers, exclusive mutators).
  mutable std::optional<Sketch> merged_cache_;
  mutable detail::CopyableAtomicBool merged_ready_;
  mutable detail::CopyableMutex merged_mutex_;
};

}  // namespace window
}  // namespace req

#endif  // REQSKETCH_WINDOW_WINDOWED_REQ_SKETCH_H_
