#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace hod::util {
namespace {

using std::chrono::milliseconds;

TEST(ThreadPoolTest, ExecutesSubmittedTasks) {
  ThreadPool pool(ThreadPoolOptions{2, 1});
  std::atomic<int> count{0};
  std::mutex mu;
  std::condition_variable cv;
  constexpr int kTasks = 64;
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_TRUE(pool.Submit([&] {
      if (count.fetch_add(1) + 1 == kTasks) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    }));
  }
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                          [&] { return count.load() == kTasks; }));
  // The pool counts a task after it returns, so the last task's count can
  // trail the wake-up above by a moment (and that task may still need mu).
  lock.unlock();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (pool.tasks_executed() < static_cast<uint64_t>(kTasks) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_GE(pool.tasks_executed(), static_cast<uint64_t>(kTasks));
  // The executed count is relaxed, so it orders nothing: take mu once more
  // so the last task's notify (made under mu) happens before cv and mu
  // are destroyed.
  std::lock_guard<std::mutex> relock(mu);
}

TEST(ThreadPoolTest, ServiceLaneRunsWhileWorkerLaneIsBusy) {
  // One worker thread, wedged on a latch; the service lane must still
  // execute — it is what un-wedges workers blocked on internal queues.
  ThreadPool pool(ThreadPoolOptions{1, 1});
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  bool service_ran = false;
  ASSERT_TRUE(pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  }));
  ASSERT_TRUE(pool.SubmitService([&] {
    std::lock_guard<std::mutex> lock(mu);
    service_ran = true;
    cv.notify_all();
  }));
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return service_ran; }));
    release = true;
    cv.notify_all();
  }
}

TEST(ThreadPoolTest, UnservedTasksCountsOnlyTasksWaitingForABusyThread) {
  // Two worker threads: a queued task an idle thread will take is served;
  // only tasks queued while every worker is busy count as unserved.
  ThreadPool pool(ThreadPoolOptions{2, 1});
  EXPECT_EQ(pool.unserved_tasks(), 0u);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  int started = 0;
  int finished = 0;
  const auto blocker = [&] {
    std::unique_lock<std::mutex> lock(mu);
    ++started;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
    ++finished;
    cv.notify_all();
  };
  ASSERT_TRUE(pool.Submit(blocker));
  ASSERT_TRUE(pool.Submit(blocker));
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return started == 2; }));
  }
  EXPECT_EQ(pool.unserved_tasks(), 0u);
  ASSERT_TRUE(pool.Submit(blocker));
  ASSERT_TRUE(pool.Submit(blocker));
  EXPECT_EQ(pool.unserved_tasks(), 2u);
  std::unique_lock<std::mutex> lock(mu);
  release = true;
  cv.notify_all();
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                          [&] { return finished == 4; }));
  EXPECT_EQ(pool.unserved_tasks(), 0u);
}

TEST(ThreadPoolTest, TimerFiresRepeatedlyAndCancelStopsIt) {
  ThreadPool pool(ThreadPoolOptions{1, 1});
  std::atomic<int> fires{0};
  std::mutex mu;
  std::condition_variable cv;
  const ThreadPool::TimerId id =
      pool.ScheduleEvery(milliseconds(1), milliseconds(2), [&] {
        fires.fetch_add(1);
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      });
  ASSERT_NE(id, 0u);
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return fires.load() >= 3; }));
  }
  pool.Cancel(id);
  // Cancel has join semantics: no callback is in flight on return and none
  // fires afterwards.
  const int at_cancel = fires.load();
  std::this_thread::sleep_for(milliseconds(30));
  EXPECT_EQ(fires.load(), at_cancel);
}

TEST(ThreadPoolTest, CancelUnknownTimerIsANoOp) {
  ThreadPool pool(ThreadPoolOptions{1, 1});
  pool.Cancel(12345);
}

TEST(ThreadPoolTest, TwoTimersBothFire) {
  ThreadPool pool(ThreadPoolOptions{1, 1});
  std::atomic<int> a{0}, b{0};
  const auto ta = pool.ScheduleEvery(milliseconds(1), milliseconds(2),
                                     [&] { a.fetch_add(1); });
  const auto tb = pool.ScheduleEvery(milliseconds(2), milliseconds(3),
                                     [&] { b.fetch_add(1); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((a.load() < 2 || b.load() < 2) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  pool.Cancel(ta);
  pool.Cancel(tb);
  EXPECT_GE(a.load(), 2);
  EXPECT_GE(b.load(), 2);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(ThreadPoolOptions{1, 1});
    for (int i = 0; i < 32; ++i) {
      ASSERT_TRUE(pool.Submit([&] { count.fetch_add(1); }));
    }
    pool.Shutdown();  // must run everything already queued
  }
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPoolTest, SubmitAfterShutdownIsRejected) {
  ThreadPool pool(ThreadPoolOptions{1, 1});
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
  EXPECT_FALSE(pool.SubmitService([] {}));
  EXPECT_EQ(pool.ScheduleEvery(milliseconds(1), milliseconds(1), [] {}), 0u);
}

TEST(ThreadPoolTest, ManyProducersOnePool) {
  ThreadPool pool(ThreadPoolOptions{2, 1});
  std::atomic<int> count{0};
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> producers;
  producers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        while (!pool.Submit([&] { count.fetch_add(1); })) {
        }
      }
    });
  }
  for (auto& producer : producers) producer.join();
  pool.Shutdown();
  EXPECT_EQ(count.load(), kThreads * kPerThread);
}

}  // namespace
}  // namespace hod::util
