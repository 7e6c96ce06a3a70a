#include "util/thread_pool.h"

#include <algorithm>
#include <utility>

namespace hod::util {

size_t ThreadPool::DefaultThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max<size_t>(2, hw);
}

ThreadPool::ThreadPool(ThreadPoolOptions options) {
  const size_t workers =
      options.num_threads == 0 ? DefaultThreads() : options.num_threads;
  const size_t service = std::max<size_t>(1, options.service_threads);
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(worker_lane_); });
  }
  service_workers_.reserve(service);
  for (size_t i = 0; i < service; ++i) {
    service_workers_.emplace_back([this] { WorkerLoop(service_lane_); });
  }
  timer_thread_ = std::thread([this] { TimerLoop(); });
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::SubmitTo(Lane& lane, std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(lane.mu);
    if (shutdown_.load(std::memory_order_acquire)) return false;
    lane.tasks.push_back(std::move(fn));
  }
  lane.cv.notify_one();
  return true;
}

bool ThreadPool::Submit(std::function<void()> fn) {
  return SubmitTo(worker_lane_, std::move(fn));
}

bool ThreadPool::SubmitService(std::function<void()> fn) {
  return SubmitTo(service_lane_, std::move(fn));
}

size_t ThreadPool::unserved_tasks() const {
  std::lock_guard<std::mutex> lock(worker_lane_.mu);
  const size_t queued = worker_lane_.tasks.size();
  return queued > worker_lane_.idle ? queued - worker_lane_.idle : 0;
}

void ThreadPool::WorkerLoop(Lane& lane) {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(lane.mu);
      ++lane.idle;
      lane.cv.wait(lock, [&] {
        return !lane.tasks.empty() ||
               shutdown_.load(std::memory_order_acquire);
      });
      --lane.idle;
      // Shutdown drains: queued tasks still run (an engine quiescing its
      // pooled drains depends on them), then the thread exits.
      if (lane.tasks.empty()) return;
      task = std::move(lane.tasks.front());
      lane.tasks.pop_front();
    }
    task();
    tasks_executed_.fetch_add(1, std::memory_order_release);
  }
}

ThreadPool::TimerId ThreadPool::ScheduleEvery(
    std::chrono::milliseconds initial_delay, std::chrono::milliseconds period,
    std::function<void()> fn) {
  if (period.count() <= 0) period = std::chrono::milliseconds(1);
  std::lock_guard<std::mutex> lock(timers_mu_);
  if (shutdown_.load(std::memory_order_acquire)) return 0;
  const TimerId id = next_timer_id_++;
  Timer& timer = timers_[id];
  timer.next = std::chrono::steady_clock::now() + initial_delay;
  timer.period = period;
  timer.fn = std::move(fn);
  timers_cv_.notify_all();
  return id;
}

void ThreadPool::Cancel(TimerId id) {
  std::unique_lock<std::mutex> lock(timers_mu_);
  auto it = timers_.find(id);
  if (it == timers_.end()) return;
  it->second.cancelled = true;
  // Join semantics: wait out an in-flight callback so the caller can free
  // whatever the callback captures.
  timers_cv_.wait(lock, [&] { return !it->second.running; });
  timers_.erase(it);
  timers_cv_.notify_all();
}

void ThreadPool::TimerLoop() {
  std::unique_lock<std::mutex> lock(timers_mu_);
  while (!shutdown_.load(std::memory_order_acquire)) {
    // Earliest non-cancelled deadline, or park until something changes.
    auto next_it = timers_.end();
    for (auto it = timers_.begin(); it != timers_.end(); ++it) {
      if (it->second.cancelled) continue;
      if (next_it == timers_.end() || it->second.next < next_it->second.next) {
        next_it = it;
      }
    }
    if (next_it == timers_.end()) {
      timers_cv_.wait(lock);
      continue;
    }
    const TimerId id = next_it->first;
    const auto deadline = next_it->second.next;
    if (timers_cv_.wait_until(lock, deadline) != std::cv_status::timeout) {
      continue;  // new timer, cancel, or shutdown — re-evaluate
    }
    auto it = timers_.find(id);
    if (it == timers_.end() || it->second.cancelled) continue;
    if (shutdown_.load(std::memory_order_acquire)) break;
    it->second.running = true;
    std::function<void()> fn = it->second.fn;  // copy: map may rehash
    lock.unlock();
    fn();  // inline on the timer thread: all periodic work is serialized
    lock.lock();
    it = timers_.find(id);
    if (it != timers_.end()) {
      it->second.running = false;
      const auto now = std::chrono::steady_clock::now();
      it->second.next += it->second.period;
      if (it->second.next <= now) it->second.next = now + it->second.period;
    }
    timers_cv_.notify_all();  // wake any Cancel waiting on `running`
  }
}

void ThreadPool::Shutdown() {
  if (shutdown_.exchange(true, std::memory_order_acq_rel)) return;
  {
    std::lock_guard<std::mutex> lock(timers_mu_);
  }
  timers_cv_.notify_all();
  if (timer_thread_.joinable()) timer_thread_.join();
  // Empty lock before each notify: a worker that evaluated its predicate
  // just before the shutdown store must be parked (lock released) before
  // the notify fires, or the wakeup is lost and the join below hangs.
  {
    std::lock_guard<std::mutex> lock(worker_lane_.mu);
  }
  worker_lane_.cv.notify_all();
  {
    std::lock_guard<std::mutex> lock(service_lane_.mu);
  }
  service_lane_.cv.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  for (std::thread& worker : service_workers_) {
    if (worker.joinable()) worker.join();
  }
}

}  // namespace hod::util
