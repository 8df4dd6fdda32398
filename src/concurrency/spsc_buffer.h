// A fixed-capacity single-producer / single-consumer ring buffer used as
// the per-shard staging area of the concurrent REQ orchestrator
// (concurrency/sharded_req_sketch.h), its only user. The service layer
// stages nothing: its engines apply each batch directly.
//
// Design (the classic bounded SPSC queue, cf. the DataSketches concurrent
// theta/quantiles local buffers):
//   * One producer thread appends with TryPush / TryPushBulk; one consumer
//     thread drains with PopAll. Exactly one thread may play each role at
//     any time, but the roles may be played by different threads over the
//     buffer's lifetime as long as role hand-offs are externally
//     synchronized (the orchestrator drains under the shard lock).
//   * head_ (consumer cursor) and tail_ (producer cursor) are monotonically
//     increasing uint64 counters on separate cache lines, so the producer
//     and consumer never write the same line (no false sharing on the hot
//     path).
//   * The producer keeps a cached copy of head_ and only re-reads the
//     shared atomic when the buffer looks full: steady-state TryPush is one
//     relaxed load, one store, and one release store.
//   * Capacity is rounded up to a power of two so slot indexing is a mask,
//     and cursors never wrap in practice (2^64 items).
//
// The buffer intentionally does NOT grow or block: when full, pushes fail
// and the caller decides what to do (the orchestrator flushes the shard).
#ifndef REQSKETCH_CONCURRENCY_SPSC_BUFFER_H_
#define REQSKETCH_CONCURRENCY_SPSC_BUFFER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bits.h"
#include "util/validation.h"

namespace req {
namespace concurrency {

// std::hardware_destructive_interference_size is C++17 but spottily
// implemented; 64 bytes covers x86-64 and most AArch64 parts.
inline constexpr size_t kCacheLineSize = 64;

template <typename T>
class SpscBuffer {
 public:
  // `min_capacity` is rounded up to the next power of two (>= 2).
  explicit SpscBuffer(size_t min_capacity)
      : capacity_(RoundUpPow2(min_capacity)),
        mask_(capacity_ - 1),
        slots_(capacity_) {}

  // Not copyable or movable: cursors are owned by live producer/consumer
  // threads and the orchestrator holds buffers by indirection.
  SpscBuffer(const SpscBuffer&) = delete;
  SpscBuffer& operator=(const SpscBuffer&) = delete;

  size_t capacity() const { return capacity_; }

  // Number of buffered items. Exact when called by the producer or the
  // consumer; a racy snapshot from anywhere else.
  size_t size() const {
    return static_cast<size_t>(tail_.load(std::memory_order_acquire) -
                               head_.load(std::memory_order_acquire));
  }
  bool empty() const { return size() == 0; }

  // --- producer side -------------------------------------------------------

  // Appends one item; returns false (buffer unchanged) when full.
  bool TryPush(const T& item) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ >= capacity_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ >= capacity_) return false;
    }
    slots_[static_cast<size_t>(tail) & mask_] = item;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  // Appends up to `count` items in order; returns how many were appended
  // (possibly 0 when full, possibly < count when the buffer fills mid-way).
  size_t TryPushBulk(const T* data, size_t count) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    uint64_t free_slots = capacity_ - (tail - cached_head_);
    if (free_slots < count) {
      cached_head_ = head_.load(std::memory_order_acquire);
      free_slots = capacity_ - (tail - cached_head_);
    }
    const size_t n = static_cast<size_t>(
        free_slots < count ? free_slots : count);
    for (size_t i = 0; i < n; ++i) {
      slots_[static_cast<size_t>(tail + i) & mask_] = data[i];
    }
    if (n > 0) tail_.store(tail + n, std::memory_order_release);
    return n;
  }

  // --- consumer side -------------------------------------------------------

  // Drains every item currently visible to the consumer, appending them to
  // `*out` in FIFO order; returns the number drained.
  size_t PopAll(std::vector<T>* out) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    const size_t n = static_cast<size_t>(tail - head);
    if (n == 0) return 0;
    out->reserve(out->size() + n);
    for (uint64_t i = head; i != tail; ++i) {
      out->push_back(std::move(slots_[static_cast<size_t>(i) & mask_]));
    }
    head_.store(tail, std::memory_order_release);
    return n;
  }

 private:
  static size_t RoundUpPow2(size_t v) {
    util::CheckArg(v >= 1, "SpscBuffer capacity must be >= 1");
    util::CheckArg(v <= (size_t{1} << 32),
                   "SpscBuffer capacity must be <= 2^32");
    size_t p = 2;
    while (p < v) p <<= 1;
    return p;
  }

  const size_t capacity_;
  const size_t mask_;
  // Consumer cursor: next index to pop. Written by the consumer only.
  alignas(kCacheLineSize) std::atomic<uint64_t> head_{0};
  // Producer cursor: next index to fill. Written by the producer only.
  alignas(kCacheLineSize) std::atomic<uint64_t> tail_{0};
  // Producer-private snapshot of head_, refreshed only when the buffer
  // looks full; keeps the producer off the consumer's cache line.
  alignas(kCacheLineSize) uint64_t cached_head_ = 0;
  std::vector<T> slots_;
};

}  // namespace concurrency
}  // namespace req

#endif  // REQSKETCH_CONCURRENCY_SPSC_BUFFER_H_
