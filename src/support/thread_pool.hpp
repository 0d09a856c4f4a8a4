// Fixed-size worker pool: the ingest workers of service::ProfileServer,
// the shards of core::ResolvePipeline and the jobs of
// store::ProfileStore::compact.
//
// The simulated machine (NMI handlers, the daemon) never uses it. Analysis
// (resolve + aggregate over millions of logged samples, online or offline)
// is ordinary host code on host threads, and the pool keeps them so no
// caller pays thread spawn cost per batch or shard. A caller that waits on
// the pool (wait_idle, parallel_for) runs queued tasks itself rather than
// sleep beside them.
//
// The pool is one of the named serialization suspects (DESIGN.md §13): its
// single queue mutex is a TracedMutex ("pool.queue"), and attach_telemetry
// additionally publishes pool.tasks / pool.tasks.helped / pool.queue_depth /
// pool.task_ns / pool.threads / pool.utilization so queue build-up and
// worker starvation show up in snapshots. Detached pools carry zero
// instrumentation cost beyond an untaken branch.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "support/traced_mutex.hpp"

namespace viprof::support {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means std::thread::hardware_concurrency()
  /// (itself clamped to at least 1).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Publishes the pool's queue/utilization metrics (and the pool.queue
  /// lock's contention metrics) into `telemetry`. Call once, before the
  /// pool sees traffic you want attributed.
  void attach_telemetry(Telemetry& telemetry);

  /// Enqueues a task. Tasks must not throw — there is no result channel;
  /// communicate through captured state.
  void submit(std::function<void()> task);

  /// Enqueues every task in `tasks` under one queue-lock acquisition and a
  /// single wakeup broadcast. For small-work fan-outs (parallel_for, batch
  /// ingest) this is what keeps pool.queue wait from dominating: N submits
  /// used to mean N lock takes and N notifies racing the workers.
  void submit_many(std::vector<std::function<void()>> tasks);

  /// Runs queued tasks on the calling thread until the queue is empty, then
  /// blocks until every task in flight (on a worker or another waiter) has
  /// ended. Must not be called from a task.
  void wait_idle();

  /// Runs body(i) for i in [0, count) across the pool and waits for all of
  /// them. body must be safe to call concurrently with distinct i.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body);

 private:
  struct PoolTelemetry {
    Counter* tasks = nullptr;            // pool.tasks: total submitted
    Counter* helped = nullptr;           // pool.tasks.helped: run by a waiter
    Gauge* threads = nullptr;            // pool.threads: worker count
    Gauge* utilization = nullptr;        // pool.utilization: workers' busy fraction
    LatencyHistogram* queue_depth = nullptr;  // depth sampled at submit
    LatencyHistogram* task_ns = nullptr;      // per-task wall time, helped too
  };

  void worker_loop();
  /// Runs `task` (mu_ not held) and records its wall time.
  static void run_task(std::function<void()>& task, PoolTelemetry* stats);
  bool idle_locked() const { return queue_.empty() && active_ == 0 && helping_ == 0; }

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  TracedMutex mu_{"pool.queue"};
  // _any variants: they accept any Lockable, so the cv re-lock on wakeup
  // goes through TracedMutex::lock() and counts as the real contention it is.
  std::condition_variable_any work_cv_;  // queue became non-empty / stopping
  std::condition_variable_any idle_cv_;  // a task finished; wait_idle re-checks
  std::size_t active_ = 0;               // tasks executing on workers
  std::size_t helping_ = 0;              // tasks executing on waiters
  bool stop_ = false;
  std::unique_ptr<PoolTelemetry> stats_storage_;
  std::atomic<PoolTelemetry*> stats_{nullptr};
};

}  // namespace viprof::support
