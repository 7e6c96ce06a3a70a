#ifndef HOD_UTIL_THREAD_POOL_H_
#define HOD_UTIL_THREAD_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

namespace hod::util {

/// Configuration of a ThreadPool.
struct ThreadPoolOptions {
  /// Worker-lane threads (shard drains, escalation work). 0 selects
  /// DefaultThreads() — hardware concurrency clamped to at least 2.
  size_t num_threads = 0;
  /// Service-lane threads, reserved for tasks that must always make
  /// progress even when every worker-lane thread is parked on a full
  /// internal queue (collector drains). Deadlock argument: worker-lane
  /// tasks may block pushing to collector queues; collector drains run on
  /// this lane and never block on worker-lane output, so the wait graph
  /// between lanes is acyclic.
  size_t service_threads = 1;
};

/// The shared executor the multi-plant fleet tier runs on: a fixed set of
/// OS threads executing submitted tasks, so N plants cost
/// `num_threads + service_threads + 1 (timer)` threads instead of
/// N * (shards + collector + watchdog + checkpoint timer) threads.
///
/// Three execution contexts:
///   - worker lane   — Submit(): CPU-bound drains; may block briefly on
///                     bounded internal queues.
///   - service lane  — SubmitService(): must-make-progress tasks that
///                     unblock the worker lane; must never block on it.
///   - timer thread  — ScheduleEvery(): periodic callbacks (watchdog
///                     ticks, staggered checkpoints) run inline on the
///                     single timer thread, serialized across all timers —
///                     which is exactly the property that keeps a thousand
///                     plants from checkpointing in lockstep.
///
/// Lifetime: the pool must outlive every engine borrowing it; engines are
/// stopped (quiescing their pooled tasks) before the pool shuts down.
class ThreadPool {
 public:
  using TimerId = uint64_t;

  explicit ThreadPool(ThreadPoolOptions options = {});
  explicit ThreadPool(size_t num_threads)
      : ThreadPool(ThreadPoolOptions{num_threads, 1}) {}
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task on the worker lane. Returns false (task dropped)
  /// after Shutdown().
  bool Submit(std::function<void()> fn);

  /// Enqueues a task on the reserved service lane.
  bool SubmitService(std::function<void()> fn);

  /// Registers a periodic callback: first fired `initial_delay` after the
  /// call, then every `period`. Callbacks run inline on the timer thread.
  /// Returns an id for Cancel(); 0 after Shutdown() (never fired).
  TimerId ScheduleEvery(std::chrono::milliseconds initial_delay,
                        std::chrono::milliseconds period,
                        std::function<void()> fn);

  /// Deregisters a timer. Blocks until its callback is not running, so on
  /// return the callback will never fire again (join semantics — callers
  /// may tear down the callback's captures). Unknown ids are a no-op.
  void Cancel(TimerId id);

  /// Stops the timer thread, drains both lanes' queued tasks, and joins
  /// every thread. Idempotent; called by the destructor.
  void Shutdown();

  size_t num_threads() const { return workers_.size(); }
  /// Worker-lane tasks queued beyond the idle worker threads that will
  /// take them: tasks that wait for a busy thread. A long-running task
  /// yields its thread only while this is non-zero.
  size_t unserved_tasks() const;
  size_t num_service_threads() const { return service_workers_.size(); }
  /// Tasks executed so far across both lanes. Each task is counted with a
  /// release after it returns and this load acquires, so a caller that
  /// sees N has also seen every write those N tasks made.
  uint64_t tasks_executed() const {
    return tasks_executed_.load(std::memory_order_acquire);
  }

  /// Hardware concurrency clamped to at least 2 (one thread must never be
  /// able to starve the service lane on a 1-core box).
  static size_t DefaultThreads();

 private:
  struct Lane {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::deque<std::function<void()>> tasks;
    size_t idle = 0;  ///< threads parked on `cv` (guarded by `mu`)
  };

  struct Timer {
    std::chrono::steady_clock::time_point next;
    std::chrono::milliseconds period{0};
    std::function<void()> fn;
    bool cancelled = false;
    bool running = false;
  };

  bool SubmitTo(Lane& lane, std::function<void()> fn);
  void WorkerLoop(Lane& lane);
  void TimerLoop();

  Lane worker_lane_;
  Lane service_lane_;
  std::vector<std::thread> workers_;
  std::vector<std::thread> service_workers_;
  std::thread timer_thread_;

  std::mutex timers_mu_;
  std::condition_variable timers_cv_;
  std::map<TimerId, Timer> timers_;
  TimerId next_timer_id_ = 1;

  std::atomic<bool> shutdown_{false};
  std::atomic<uint64_t> tasks_executed_{0};
};

}  // namespace hod::util

#endif  // HOD_UTIL_THREAD_POOL_H_
