#ifndef HOD_STREAM_QUEUE_H_
#define HOD_STREAM_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace hod::stream {

/// How many producer threads feed each shard's ingress queue. The scorer
/// uses this to pick the queue implementation: with exactly one producer
/// pinned per shard (an upstream that partitions traffic by the same
/// stable hash the router uses), the lock-free SPSC ring replaces the
/// mutex+CV MPSC queue on the ingest hot path.
enum class ProducerHint {
  /// Unknown or several producers may push to the same shard — the safe
  /// default; selects the mutex-based MPSC `BoundedQueue`.
  kUnknown,
  /// The caller guarantees exactly one producer thread per shard; selects
  /// the lock-free `SpscRing`. Violating the guarantee is a data race.
  kSinglePerShard,
};

std::string_view ProducerHintName(ProducerHint hint);

/// What a full queue does with a new sample.
enum class BackpressurePolicy {
  /// Producer blocks until the consumer frees a slot (lossless; transfers
  /// backpressure upstream — the right default for replay/batch feeds).
  kBlock,
  /// Evict the oldest queued sample to admit the new one (bounded
  /// staleness; the right policy for live telemetry where the newest
  /// reading is worth more than the oldest). Evictions are counted.
  kDropOldest,
  /// Refuse the new sample with OutOfRange (caller-visible load shedding).
  kReject,
  /// Like kBlock, but gives up after the queue's block timeout with a
  /// typed DeadlineExceeded error instead of parking forever — the
  /// liveness-safe lossless policy: a stalled consumer degrades into
  /// bounded producer latency plus a visible error, never a hung plant.
  kBlockWithTimeout,
};

std::string_view BackpressurePolicyName(BackpressurePolicy policy);

/// What every shard ingress queue must provide: one bounded FIFO with
/// per-push backpressure policies, batched consumer drain, close-based
/// shutdown, and the drop/reject/timeout/high-water counters the engine
/// surfaces in `StreamStatsSnapshot`. Two implementations exist — the
/// mutex+CV MPSC `BoundedQueue` (any number of producers) and the
/// lock-free `SpscRing` (exactly one producer) — selected by the scorer
/// from `ProducerHint`. Semantics are identical across both:
///
/// - `Push` applies the given policy when full (kBlock parks, kDropOldest
///   evicts the head into `*evicted`, kReject fails OutOfRange,
///   kBlockWithTimeout fails DeadlineExceeded after the bound) and fails
///   FailedPrecondition after `Close()`.
/// - `PopBatch` blocks while open and empty, and returns false only once
///   the queue is closed AND drained.
/// - `Close()` is idempotent, wakes every parked producer and the
///   consumer, and leaves queued items poppable.
template <typename T>
class ShardQueue {
 public:
  virtual ~ShardQueue() = default;

  /// Enqueues one item under the queue's default policy.
  Status Push(T item) { return Push(std::move(item), policy(), nullptr); }

  /// Enqueues one item, applying `policy` when the queue is full. When
  /// kDropOldest evicts and `evicted` is non-null, the victim is moved
  /// into it so the caller can account for it.
  virtual Status Push(T item, BackpressurePolicy policy,
                      std::optional<T>* evicted) = 0;

  /// Moves up to `max_batch` items into `out` (appended). Blocks while
  /// the queue is open and empty; false once closed and drained.
  virtual bool PopBatch(std::vector<T>& out, size_t max_batch) = 0;

  /// Non-blocking PopBatch; returns the number of items taken.
  virtual size_t TryPopBatch(std::vector<T>& out, size_t max_batch) = 0;

  /// Ends the stream (idempotent): wakes every waiter; queued items
  /// remain poppable.
  virtual void Close() = 0;

  virtual size_t size() const = 0;
  virtual bool closed() const = 0;
  virtual size_t capacity() const = 0;
  virtual BackpressurePolicy policy() const = 0;
  /// Samples evicted by kDropOldest.
  virtual uint64_t dropped() const = 0;
  /// Samples refused by kReject.
  virtual uint64_t rejected() const = 0;
  /// Pushes that expired under kBlockWithTimeout.
  virtual uint64_t timed_out() const = 0;
  /// Deepest the queue has ever been (sizing/backpressure diagnostics).
  virtual size_t high_water() const = 0;
  /// Implementation tag for diagnostics: "mpsc" or "spsc".
  virtual std::string_view kind() const = 0;
};

/// Bounded multi-producer / single-consumer FIFO over a fixed ring buffer.
///
/// Producers call `Push` concurrently; the single consumer drains with
/// `PopBatch`. All state is guarded by one mutex — the consumer amortizes
/// it by taking up to `max_batch` items per acquisition, so the scoring
/// hot path (which runs *between* drains, on shard-private state) holds no
/// lock at all.
///
/// `Close()` ends the stream: blocked producers and the consumer wake,
/// further pushes fail, and `PopBatch` keeps returning queued items until
/// the ring is empty, then reports exhaustion. Shutdown liveness
/// invariant: every producer parked inside `Push` (kBlock or
/// kBlockWithTimeout) re-checks `closed_` on wakeup and `Close()` notifies
/// under the lock, so a `Close` concurrent with any number of saturating
/// producers wakes all of them promptly — no lost wakeup, no indefinite
/// block (regression-tested in stream_queue_test).
template <typename T>
class BoundedQueue final : public ShardQueue<T> {
 public:
  explicit BoundedQueue(
      size_t capacity, BackpressurePolicy policy = BackpressurePolicy::kBlock,
      std::chrono::milliseconds block_timeout = std::chrono::milliseconds(100))
      : capacity_(capacity == 0 ? 1 : capacity),
        policy_(policy),
        block_timeout_(block_timeout),
        ring_(capacity_) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  using ShardQueue<T>::Push;

  /// Enqueues one item, applying `policy` when the queue is full — the
  /// per-sensor-class backpressure hook: one shard queue can serve
  /// critical sensors losslessly (kBlock) and environment channels with
  /// bounded staleness (kDropOldest) at the same time. When kDropOldest
  /// evicts and `evicted` is non-null, the victim is moved into it so the
  /// caller can account for it (e.g. per-level drop counters).
  /// Returns FailedPrecondition after Close(), OutOfRange when rejected,
  /// DeadlineExceeded when kBlockWithTimeout expires.
  Status Push(T item, BackpressurePolicy policy,
              std::optional<T>* evicted) override {
    std::unique_lock<std::mutex> lock(mu_);
    if (closed_) return Status::FailedPrecondition("queue closed");
    if (size_ == capacity_) {
      switch (policy) {
        case BackpressurePolicy::kBlock:
          not_full_.wait(lock, [&] { return size_ < capacity_ || closed_; });
          if (closed_) return Status::FailedPrecondition("queue closed");
          break;
        case BackpressurePolicy::kBlockWithTimeout: {
          const bool admitted = not_full_.wait_for(
              lock, block_timeout_,
              [&] { return size_ < capacity_ || closed_; });
          if (closed_) return Status::FailedPrecondition("queue closed");
          if (!admitted) {
            ++timed_out_;
            return Status::DeadlineExceeded("queue full beyond block timeout");
          }
          break;
        }
        case BackpressurePolicy::kDropOldest: {
          T victim = std::move(ring_[head_]);
          head_ = (head_ + 1) % capacity_;
          --size_;
          ++dropped_;
          if (evicted != nullptr) *evicted = std::move(victim);
          break;
        }
        case BackpressurePolicy::kReject:
          ++rejected_;
          return Status::OutOfRange("queue full");
      }
    }
    ring_[(head_ + size_) % capacity_] = std::move(item);
    ++size_;
    if (size_ > high_water_) high_water_ = size_;
    not_empty_.notify_one();
    return Status::Ok();
  }

  /// Enqueues `items` in order under kBlock: one lock acquisition and one
  /// consumer wakeup per stretch of free slots instead of per item. When
  /// the queue fills with items left, `before_block()` runs (outside the
  /// lock) before the producer parks — a consumer that runs only when
  /// notified (a pooled drain task) must be woken before the producer
  /// waits on it, or neither makes progress. Returns how many items were
  /// enqueued: all of them, or the prefix accepted before Close(). The
  /// enqueued items are moved from.
  template <typename BeforeBlock>
  size_t PushBatch(std::vector<T>& items, BeforeBlock&& before_block) {
    size_t pushed = 0;
    std::unique_lock<std::mutex> lock(mu_);
    while (!closed_) {
      const size_t n = std::min(capacity_ - size_, items.size() - pushed);
      for (size_t i = 0; i < n; ++i) {
        ring_[(head_ + size_) % capacity_] = std::move(items[pushed++]);
        ++size_;
      }
      if (size_ > high_water_) high_water_ = size_;
      if (n > 0) not_empty_.notify_one();
      if (pushed == items.size()) break;
      lock.unlock();
      before_block();
      lock.lock();
      not_full_.wait(lock, [&] { return size_ < capacity_ || closed_; });
    }
    return pushed;
  }

  /// Moves up to `max_batch` items into `out` (appended). Blocks while the
  /// queue is open and empty. Returns false once the queue is closed AND
  /// drained — the consumer's signal to exit its loop.
  bool PopBatch(std::vector<T>& out, size_t max_batch) override {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return size_ > 0 || closed_; });
    if (size_ == 0) return false;  // closed and drained
    const size_t n = std::min(size_, max_batch == 0 ? size_t{1} : max_batch);
    for (size_t i = 0; i < n; ++i) {
      out.push_back(std::move(ring_[head_]));
      head_ = (head_ + 1) % capacity_;
      --size_;
    }
    not_full_.notify_all();
    return true;
  }

  /// Non-blocking PopBatch: takes whatever is queued right now (up to
  /// `max_batch`) without waiting. Returns the number of items taken.
  size_t TryPopBatch(std::vector<T>& out, size_t max_batch) override {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t n = std::min(size_, max_batch == 0 ? size_ : max_batch);
    for (size_t i = 0; i < n; ++i) {
      out.push_back(std::move(ring_[head_]));
      head_ = (head_ + 1) % capacity_;
      --size_;
    }
    if (n > 0) not_full_.notify_all();
    return n;
  }

  /// Ends the stream (idempotent): wakes every waiter; queued items remain
  /// poppable.
  void Close() override {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  size_t size() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return size_;
  }
  bool closed() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }
  size_t capacity() const override { return capacity_; }
  BackpressurePolicy policy() const override { return policy_; }
  /// Samples evicted by kDropOldest.
  uint64_t dropped() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
  }
  /// Samples refused by kReject.
  uint64_t rejected() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return rejected_;
  }
  /// Pushes that expired under kBlockWithTimeout.
  uint64_t timed_out() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return timed_out_;
  }
  /// Deepest the queue has ever been (sizing/backpressure diagnostics).
  size_t high_water() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return high_water_;
  }
  std::string_view kind() const override { return "mpsc"; }

 private:
  const size_t capacity_;
  const BackpressurePolicy policy_;
  const std::chrono::milliseconds block_timeout_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::vector<T> ring_;
  size_t head_ = 0;
  size_t size_ = 0;
  size_t high_water_ = 0;
  uint64_t dropped_ = 0;
  uint64_t rejected_ = 0;
  uint64_t timed_out_ = 0;
  bool closed_ = false;
};

inline std::string_view BackpressurePolicyName(BackpressurePolicy policy) {
  switch (policy) {
    case BackpressurePolicy::kBlock: return "block";
    case BackpressurePolicy::kDropOldest: return "drop-oldest";
    case BackpressurePolicy::kReject: return "reject";
    case BackpressurePolicy::kBlockWithTimeout: return "block-with-timeout";
  }
  return "?";
}

inline std::string_view ProducerHintName(ProducerHint hint) {
  switch (hint) {
    case ProducerHint::kUnknown: return "unknown";
    case ProducerHint::kSinglePerShard: return "single-per-shard";
  }
  return "?";
}

}  // namespace hod::stream

#endif  // HOD_STREAM_QUEUE_H_
