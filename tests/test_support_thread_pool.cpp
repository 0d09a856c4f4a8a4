// support::ThreadPool: fan-out, the waiter that runs queued tasks itself,
// and the pool.* telemetry that counts them (DESIGN.md §13, §14).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "support/telemetry.hpp"
#include "support/thread_pool.hpp"

namespace viprof::support {
namespace {

using namespace std::chrono_literals;

// Spins (politely) until `flag` is set or `limit` passes; true when set.
bool await(const std::atomic<bool>& flag, std::chrono::milliseconds limit = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!flag.load()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h.store(0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForDegenerateCounts) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPoolTest, SubmitAndWaitIdle) {
  ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 64; ++i) pool.submit([&done] { done.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 64);
  // The pool is reusable after wait_idle.
  pool.submit([&done] { done.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 65);
}

// The lone worker is held by a task that ends only once every queued task
// has run, so the queue can only be cleared by the thread in wait_idle.
TEST(ThreadPoolTest, WaiterRunsQueuedTasksOnItsOwnThread) {
  Telemetry telemetry;
  ThreadPool pool(1);
  pool.attach_telemetry(telemetry);
  constexpr int kQueued = 16;
  std::atomic<bool> blocker_started{false};
  std::atomic<bool> all_ran{false};
  pool.submit([&] {
    blocker_started = true;
    await(all_ran);  // gives up after a while, so a broken pool fails, not hangs
  });
  ASSERT_TRUE(await(blocker_started));

  std::vector<std::thread::id> ran_on(kQueued);
  std::atomic<int> ran{0};
  std::vector<double> utilization(kQueued, -1.0);
  for (int i = 0; i < kQueued; ++i) {
    pool.submit([&, i] {
      ran_on[i] = std::this_thread::get_id();
      // The worker is busy the whole time: helpers are not in the gauge.
      utilization[i] = telemetry.snapshot().gauge("pool.utilization");
      if (ran.fetch_add(1) + 1 == kQueued) all_ran = true;
    });
  }
  pool.wait_idle();

  EXPECT_EQ(ran.load(), kQueued);
  for (int i = 0; i < kQueued; ++i) {
    EXPECT_EQ(ran_on[i], std::this_thread::get_id()) << "task " << i;
    EXPECT_EQ(utilization[i], 1.0) << "task " << i;
  }
  const TelemetrySnapshot snap = telemetry.snapshot();
  EXPECT_EQ(snap.counter("pool.tasks"), kQueued + 1u);
  EXPECT_EQ(snap.counter("pool.tasks.helped"), static_cast<std::uint64_t>(kQueued));
  EXPECT_EQ(snap.histograms.at("pool.task_ns").count, kQueued + 1u);
  EXPECT_LE(snap.gauge("pool.utilization"), 1.0);
}

// Helping empties the queue, but a task already running on a worker must
// still end before wait_idle returns.
TEST(ThreadPoolTest, WaitIdleOutlastsASlowInFlightTask) {
  ThreadPool pool(2);
  std::atomic<bool> slow_started{false};
  std::atomic<bool> slow_done{false};
  pool.submit([&] {
    slow_started = true;
    std::this_thread::sleep_for(50ms);
    slow_done = true;
  });
  ASSERT_TRUE(await(slow_started));
  std::atomic<int> quick{0};
  for (int i = 0; i < 8; ++i) pool.submit([&] { quick.fetch_add(1); });
  pool.wait_idle();
  EXPECT_TRUE(slow_done.load());
  EXPECT_EQ(quick.load(), 8);
}

// Waiter A runs the last task while waiter B finds the queue already empty
// and sleeps. The worker goes idle first, so only A, when its task ends,
// can tell B the pool is idle.
TEST(ThreadPoolTest, TwoConcurrentWaitersBothReturn) {
  ThreadPool pool(1);
  std::atomic<bool> release_worker{false};
  std::atomic<bool> worker_started{false};
  pool.submit([&] {
    worker_started = true;
    await(release_worker);
  });
  ASSERT_TRUE(await(worker_started));

  std::atomic<bool> release_helped{false};
  std::atomic<bool> helped_started{false};
  pool.submit([&] {
    helped_started = true;
    await(release_helped);
  });
  std::atomic<bool> a_returned{false};
  std::atomic<bool> b_returned{false};
  std::thread a([&] {
    pool.wait_idle();
    a_returned = true;
  });
  ASSERT_TRUE(await(helped_started));  // A holds the task; the queue is empty
  std::thread b([&] {
    pool.wait_idle();
    b_returned = true;
  });
  std::this_thread::sleep_for(10ms);  // let B reach its wait
  EXPECT_FALSE(b_returned.load());

  release_worker = true;
  std::this_thread::sleep_for(10ms);  // the worker ends first
  EXPECT_FALSE(b_returned.load());
  release_helped = true;

  EXPECT_TRUE(await(a_returned));
  EXPECT_TRUE(await(b_returned)) << "the second waiter missed the helper's idle signal";
  if (!b_returned.load()) {
    // Unstick B so the test ends: a worker that goes idle signals too.
    pool.submit([] {});
  }
  a.join();
  b.join();
}

TEST(ThreadPoolTest, ParallelForAndSubmitManyAtOneAndFourWorkers) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    Telemetry telemetry;
    ThreadPool pool(workers);
    pool.attach_telemetry(telemetry);

    std::vector<std::atomic<int>> hits(301);
    for (auto& h : hits) h.store(0);
    pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "workers=" << workers << " i=" << i;
    }

    std::atomic<int> ran{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 200; ++i) tasks.emplace_back([&ran] { ran.fetch_add(1); });
    pool.submit_many(std::move(tasks));
    pool.wait_idle();
    EXPECT_EQ(ran.load(), 200) << "workers=" << workers;

    // A one-worker parallel_for runs inline, so it submits nothing.
    const std::uint64_t fanned = workers == 1 ? 0 : hits.size();
    const TelemetrySnapshot snap = telemetry.snapshot();
    EXPECT_EQ(snap.counter("pool.tasks"), fanned + 200) << "workers=" << workers;
    EXPECT_LE(snap.counter("pool.tasks.helped"), fanned + 200) << "workers=" << workers;
    EXPECT_EQ(snap.histograms.at("pool.task_ns").count, fanned + 200) << "workers=" << workers;
    EXPECT_EQ(snap.gauge("pool.threads"), static_cast<double>(workers));
    EXPECT_LE(snap.gauge("pool.utilization"), 1.0);
  }
}

}  // namespace
}  // namespace viprof::support
