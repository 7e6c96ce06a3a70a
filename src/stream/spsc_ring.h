#ifndef HOD_STREAM_SPSC_RING_H_
#define HOD_STREAM_SPSC_RING_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "stream/queue.h"
#include "util/status.h"

namespace hod::stream {

namespace spsc_detail {

/// Busy-wait hint: tells the core we are spinning without yielding the
/// thread (keeps the pipeline from speculating past the loop exit).
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

inline size_t NextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace spsc_detail

/// Lock-free bounded single-producer / single-consumer ring — the shard
/// ingress fast path when `ProducerHint::kSinglePerShard` proves exactly
/// one producer thread feeds the shard.
///
/// Layout: a power-of-two slot array with cache-line-padded atomic
/// `head_` (next pop position, consumer-owned except for kDropOldest
/// eviction) and `tail_` (next push position, producer-owned). Each slot
/// carries a Vyukov-style sequence number:
///
///   seq == pos          slot free, producer may write
///   seq == pos + 1      slot published, consumer may claim
///   seq == pos + slots  slot consumed, free for the next lap
///
/// Memory-ordering argument: the producer writes the value, then releases
/// it with `seq.store(pos + 1, release)`; the consumer's matching
/// `seq.load(acquire)` makes the value visible before it is moved out, so
/// the payload itself is never accessed concurrently. `head_`/`tail_` are
/// advanced with release stores (for `size()` readers); the *claim* of a
/// published slot is a CAS on `head_`, which is what lets the producer
/// evict the oldest element under kDropOldest without a mutex — producer
/// and consumer race for the claim, exactly one wins, and the loser never
/// touches the payload. In the steady state that CAS is uncontended and
/// the fast path performs zero atomic RMW on push and one on pop.
///
/// Blocking policies (kBlock / kBlockWithTimeout) and the empty-queue
/// consumer wait use bounded spin-then-park: a short yield-friendly spin
/// (tuned for the case where the peer frees space within its timeslice),
/// then a timed park on a mutex+CV that the peer only touches when the
/// `*_parked_` flag says someone is actually asleep. The park slices are
/// short and every wakeup re-checks the ring state, so a missed
/// opportunistic notify costs at most one slice, never liveness.
///
/// Shutdown: `Close()` is lock-free on the producer side, so a push that
/// already passed the closed check may still publish its item while
/// `Close` runs. The contract is therefore: after Close() *returns*,
/// subsequent pushes fail FailedPrecondition; an in-flight racing push
/// may succeed, and its item stays poppable — a consumer that observed
/// "closed and drained" hands ownership to whoever drains after the
/// producer (`ShardedScorer` counts the sample in `submitted` before the
/// push and arms a drain task after it, and its `Stop()` waits for every
/// counted sample, so such an item is still scored).
template <typename T>
class SpscRing final : public ShardQueue<T> {
 public:
  explicit SpscRing(
      size_t capacity, BackpressurePolicy policy = BackpressurePolicy::kBlock,
      std::chrono::milliseconds block_timeout = std::chrono::milliseconds(100))
      : capacity_(capacity == 0 ? 1 : capacity),
        policy_(policy),
        block_timeout_(block_timeout),
        slots_(spsc_detail::NextPowerOfTwo(capacity_)),
        mask_(slots_ - 1),
        cells_(slots_) {
    for (size_t i = 0; i < slots_; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  using ShardQueue<T>::Push;

  Status Push(T item, BackpressurePolicy policy,
              std::optional<T>* evicted) override {
    if (closed_.load(std::memory_order_acquire)) {
      return Status::FailedPrecondition("queue closed");
    }
    const uint64_t pos = tail_.load(std::memory_order_relaxed);
    while (pos - head_.load(std::memory_order_acquire) >= capacity_) {
      switch (policy) {
        case BackpressurePolicy::kReject:
          rejected_.fetch_add(1, std::memory_order_relaxed);
          return Status::OutOfRange("queue full");
        case BackpressurePolicy::kDropOldest:
          // Make room by claiming the head slot ourselves; a concurrent
          // consumer pop also makes room, so losing the claim race is
          // progress too.
          TryEvictOldest(evicted);
          break;
        case BackpressurePolicy::kBlock:
        case BackpressurePolicy::kBlockWithTimeout: {
          Status admitted = AwaitSpace(
              pos, policy == BackpressurePolicy::kBlockWithTimeout);
          if (!admitted.ok()) return admitted;
          break;
        }
      }
      if (closed_.load(std::memory_order_acquire)) {
        return Status::FailedPrecondition("queue closed");
      }
    }
    Cell& cell = cells_[pos & mask_];
    // The consumer claims a slot (head CAS) before releasing its sequence,
    // so right after a wrap the slot may look occupied for the instant
    // between the peer's claim and its release — a bounded wait.
    while (cell.seq.load(std::memory_order_acquire) != pos) {
      spsc_detail::CpuRelax();
    }
    cell.value = std::move(item);
    cell.seq.store(pos + 1, std::memory_order_release);
    tail_.store(pos + 1, std::memory_order_release);
    const size_t depth =
        static_cast<size_t>(pos + 1 - head_.load(std::memory_order_acquire));
    if (depth > high_water_.load(std::memory_order_relaxed)) {
      high_water_.store(depth, std::memory_order_relaxed);
    }
    if (consumer_parked_.load(std::memory_order_seq_cst)) NotifyNotEmpty();
    return Status::Ok();
  }

  bool PopBatch(std::vector<T>& out, size_t max_batch) override {
    const size_t want = max_batch == 0 ? size_t{1} : max_batch;
    while (true) {
      if (TryPopBatch(out, want) > 0) return true;
      if (closed_.load(std::memory_order_acquire) && Empty()) return false;
      // Spin briefly (yield-heavy: on a loaded box the producer likely
      // needs our core), then park until the producer publishes.
      bool ready = false;
      for (int spin = 0; spin < kSpinIterations; ++spin) {
        if (!Empty() || closed_.load(std::memory_order_acquire)) {
          ready = true;
          break;
        }
        if (spin % 8 == 7) {
          std::this_thread::yield();
        } else {
          spsc_detail::CpuRelax();
        }
      }
      if (ready) continue;
      std::unique_lock<std::mutex> lock(park_mu_);
      consumer_parked_.store(true, std::memory_order_seq_cst);
      while (Empty() && !closed_.load(std::memory_order_acquire)) {
        not_empty_.wait_for(lock, kParkSlice);
      }
      consumer_parked_.store(false, std::memory_order_relaxed);
    }
  }

  size_t TryPopBatch(std::vector<T>& out, size_t max_batch) override {
    const size_t want = max_batch == 0 ? capacity_ : max_batch;
    size_t taken = 0;
    while (taken < want) {
      uint64_t pos = head_.load(std::memory_order_relaxed);
      Cell& cell = cells_[pos & mask_];
      if (cell.seq.load(std::memory_order_acquire) != pos + 1) break;
      if (!head_.compare_exchange_strong(pos, pos + 1,
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed)) {
        continue;  // an evicting producer claimed this slot first
      }
      out.push_back(std::move(cell.value));
      cell.seq.store(pos + slots_, std::memory_order_release);
      ++taken;
    }
    if (taken > 0 && producer_parked_.load(std::memory_order_seq_cst)) {
      NotifyNotFull();
    }
    return taken;
  }

  void Close() override {
    closed_.store(true, std::memory_order_release);
    // Serialize with parkers: anyone already inside wait_for re-checks
    // closed_ on this notify; anyone about to park re-checks it under the
    // same mutex before sleeping.
    std::lock_guard<std::mutex> lock(park_mu_);
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  size_t size() const override {
    // head first: reading tail later can only overestimate, never wrap
    // below zero.
    const uint64_t head = head_.load(std::memory_order_acquire);
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    return static_cast<size_t>(tail >= head ? tail - head : 0);
  }
  bool closed() const override {
    return closed_.load(std::memory_order_acquire);
  }
  size_t capacity() const override { return capacity_; }
  BackpressurePolicy policy() const override { return policy_; }
  uint64_t dropped() const override {
    return dropped_.load(std::memory_order_relaxed);
  }
  uint64_t rejected() const override {
    return rejected_.load(std::memory_order_relaxed);
  }
  uint64_t timed_out() const override {
    return timed_out_.load(std::memory_order_relaxed);
  }
  size_t high_water() const override {
    return high_water_.load(std::memory_order_relaxed);
  }
  std::string_view kind() const override { return "spsc"; }

 private:
  struct Cell {
    std::atomic<uint64_t> seq{0};
    T value{};
  };

  static constexpr int kSpinIterations = 128;
  static constexpr std::chrono::milliseconds kParkSlice{1};

  bool Empty() const {
    const uint64_t pos = head_.load(std::memory_order_relaxed);
    return cells_[pos & mask_].seq.load(std::memory_order_acquire) != pos + 1;
  }

  /// Producer-side dequeue of the oldest published element (kDropOldest).
  /// Safe against the consumer: both race for the head claim via CAS and
  /// only the winner touches the payload.
  bool TryEvictOldest(std::optional<T>* evicted) {
    uint64_t pos = head_.load(std::memory_order_relaxed);
    Cell& cell = cells_[pos & mask_];
    if (cell.seq.load(std::memory_order_acquire) != pos + 1) return false;
    if (!head_.compare_exchange_strong(pos, pos + 1,
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
      return false;  // the consumer popped it — room was made either way
    }
    T victim = std::move(cell.value);
    cell.seq.store(pos + slots_, std::memory_order_release);
    dropped_.fetch_add(1, std::memory_order_relaxed);
    if (evicted != nullptr) *evicted = std::move(victim);
    return true;
  }

  /// Spin-then-park until the ring has space for position `pos`, the
  /// queue closes, or (when `timed`) the block timeout expires.
  Status AwaitSpace(uint64_t pos, bool timed) {
    for (int spin = 0; spin < kSpinIterations; ++spin) {
      if (pos - head_.load(std::memory_order_acquire) < capacity_) {
        return Status::Ok();
      }
      if (closed_.load(std::memory_order_acquire)) {
        return Status::FailedPrecondition("queue closed");
      }
      if (spin % 8 == 7) {
        std::this_thread::yield();
      } else {
        spsc_detail::CpuRelax();
      }
    }
    const auto deadline = std::chrono::steady_clock::now() + block_timeout_;
    std::unique_lock<std::mutex> lock(park_mu_);
    producer_parked_.store(true, std::memory_order_seq_cst);
    Status result = Status::Ok();
    while (true) {
      if (pos - head_.load(std::memory_order_acquire) < capacity_) break;
      if (closed_.load(std::memory_order_acquire)) {
        result = Status::FailedPrecondition("queue closed");
        break;
      }
      if (timed && std::chrono::steady_clock::now() >= deadline) {
        timed_out_.fetch_add(1, std::memory_order_relaxed);
        result = Status::DeadlineExceeded("queue full beyond block timeout");
        break;
      }
      not_full_.wait_for(lock, kParkSlice);
    }
    producer_parked_.store(false, std::memory_order_relaxed);
    return result;
  }

  void NotifyNotEmpty() {
    std::lock_guard<std::mutex> lock(park_mu_);
    not_empty_.notify_one();
  }
  void NotifyNotFull() {
    std::lock_guard<std::mutex> lock(park_mu_);
    not_full_.notify_one();
  }

  const size_t capacity_;  ///< logical capacity (full at this occupancy)
  const BackpressurePolicy policy_;
  const std::chrono::milliseconds block_timeout_;
  const size_t slots_;  ///< power-of-two slot count, >= capacity_
  const uint64_t mask_;
  std::vector<Cell> cells_;

  /// Consumer-owned (plus eviction claims); own cache line so producer
  /// loads of head_ don't false-share with tail_.
  alignas(64) std::atomic<uint64_t> head_{0};
  /// Producer-owned.
  alignas(64) std::atomic<uint64_t> tail_{0};

  alignas(64) std::atomic<bool> closed_{false};
  std::atomic<bool> producer_parked_{false};
  std::atomic<bool> consumer_parked_{false};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> timed_out_{0};
  std::atomic<size_t> high_water_{0};

  /// Slow path only: parking for blocking policies / empty-queue waits.
  std::mutex park_mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
};

/// Builds the shard ingress queue matching `hint`: the lock-free SPSC
/// ring when the caller pins one producer per shard, the mutex-based
/// MPSC BoundedQueue otherwise.
template <typename T>
std::unique_ptr<ShardQueue<T>> MakeShardQueue(
    ProducerHint hint, size_t capacity, BackpressurePolicy policy,
    std::chrono::milliseconds block_timeout) {
  if (hint == ProducerHint::kSinglePerShard) {
    return std::make_unique<SpscRing<T>>(capacity, policy, block_timeout);
  }
  return std::make_unique<BoundedQueue<T>>(capacity, policy, block_timeout);
}

}  // namespace hod::stream

#endif  // HOD_STREAM_SPSC_RING_H_
