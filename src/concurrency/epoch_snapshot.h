// EpochSnapshotCache: the epoch-tagged read-snapshot primitive behind
// merge-on-query, shared by every subsystem that publishes an
// expensive-to-build read view over mutating state (one implementation,
// one memory-ordering argument).
//
// Users, all in the service layer (service/sketch_registry.h): the
// SketchRegistry's metric-directory snapshots for LIST and the sharded
// engine's (RotatingShards') merged view of its shards.
//
// Contract:
//   * Writers bump a monotone epoch counter (owned by the caller) after
//     every mutation that should invalidate the snapshot.
//   * Readers call Get(epoch_of, rebuild). While the stored snapshot's tag
//     equals epoch_of(), the fast path is one atomic shared_ptr load plus
//     the epoch load -- lock-free, any number of concurrent readers.
//   * On a stale tag, rebuilds serialize on an internal mutex and re-check,
//     so a burst of concurrent readers after a mutation triggers exactly
//     one rebuild.
//   * The epoch is re-read (via epoch_of) BEFORE rebuild() runs, under the
//     rebuild lock: a mutation racing with the rebuild can only make the
//     stored tag stale (forcing a fresh rebuild on the next read), never
//     let stale data masquerade as fresh.
//   * Returned shared_ptrs alias the tagged block, so a snapshot stays
//     valid for as long as any reader holds it, across any number of
//     later rebuilds.
#ifndef REQSKETCH_CONCURRENCY_EPOCH_SNAPSHOT_H_
#define REQSKETCH_CONCURRENCY_EPOCH_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

namespace req {
namespace concurrency {

template <typename T>
class EpochSnapshotCache {
 public:
  EpochSnapshotCache() = default;

  // Not copyable or movable: the cache is an implementation detail of one
  // owning object and holds no state worth transplanting (a fresh cache
  // simply rebuilds on first use).
  EpochSnapshotCache(const EpochSnapshotCache&) = delete;
  EpochSnapshotCache& operator=(const EpochSnapshotCache&) = delete;

  // Returns a snapshot no older than the epoch epoch_of() returned at some
  // point during the call. `epoch_of` must be safe to call concurrently
  // (typically an atomic load); `rebuild` is called at most once per Get,
  // under the rebuild lock, and must build the snapshot from the caller's
  // current state.
  template <typename EpochFn, typename RebuildFn>
  std::shared_ptr<const T> Get(EpochFn&& epoch_of, RebuildFn&& rebuild) const {
    std::shared_ptr<const Tagged> current =
        std::atomic_load_explicit(&snapshot_, std::memory_order_acquire);
    if (current && current->epoch == epoch_of()) return Alias(current);
    std::lock_guard<std::mutex> lock(rebuild_mutex_);
    current = std::atomic_load_explicit(&snapshot_, std::memory_order_acquire);
    if (current && current->epoch == epoch_of()) return Alias(current);
    // Epoch first, then data: see the class comment's race argument.
    const uint64_t epoch = epoch_of();
    auto fresh = std::make_shared<Tagged>(epoch, rebuild());
    std::shared_ptr<const Tagged> published = std::move(fresh);
    std::atomic_store_explicit(&snapshot_, published,
                               std::memory_order_release);
    return Alias(published);
  }

  // Drops the stored snapshot (next Get rebuilds unconditionally). Useful
  // when the caller's epoch counter is being reset rather than bumped.
  void Invalidate() {
    std::shared_ptr<const Tagged> empty;
    std::atomic_store_explicit(&snapshot_, empty, std::memory_order_release);
  }

  // The currently stored snapshot (whatever its epoch), or null when none
  // is stored. Never rebuilds: used by memory accounting, which wants to
  // measure the cache, not populate it.
  std::shared_ptr<const T> Peek() const {
    std::shared_ptr<const Tagged> current =
        std::atomic_load_explicit(&snapshot_, std::memory_order_acquire);
    if (!current) return nullptr;
    return Alias(current);
  }

  // The tag of the stored snapshot, or false when none is stored yet
  // (diagnostics and tests).
  bool SnapshotEpoch(uint64_t* out) const {
    std::shared_ptr<const Tagged> current =
        std::atomic_load_explicit(&snapshot_, std::memory_order_acquire);
    if (!current) return false;
    *out = current->epoch;
    return true;
  }

 private:
  struct Tagged {
    Tagged(uint64_t e, T&& v) : epoch(e), value(std::move(v)) {}
    uint64_t epoch;
    T value;
  };

  static std::shared_ptr<const T> Alias(
      const std::shared_ptr<const Tagged>& tagged) {
    return std::shared_ptr<const T>(tagged, &tagged->value);
  }

  mutable std::mutex rebuild_mutex_;
  // Accessed with std::atomic_load/store: readers snapshot it lock-free.
  mutable std::shared_ptr<const Tagged> snapshot_;
};

}  // namespace concurrency
}  // namespace req

#endif  // REQSKETCH_CONCURRENCY_EPOCH_SNAPSHOT_H_
