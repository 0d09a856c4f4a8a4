#include "support/thread_pool.hpp"

#include <algorithm>

namespace viprof::support {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<TracedMutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::attach_telemetry(Telemetry& telemetry) {
  if (stats_.load(std::memory_order_acquire) != nullptr) return;  // idempotent
  mu_.attach(telemetry);
  auto s = std::make_unique<PoolTelemetry>();
  s->tasks = &telemetry.counter("pool.tasks");
  s->helped = &telemetry.counter("pool.tasks.helped");
  s->threads = &telemetry.gauge("pool.threads");
  s->utilization = &telemetry.gauge("pool.utilization");
  s->queue_depth = &telemetry.histogram("pool.queue_depth");
  s->task_ns = &telemetry.histogram("pool.task_ns");
  s->threads->set(static_cast<double>(workers_.size()));
  stats_storage_ = std::move(s);
  stats_.store(stats_storage_.get(), std::memory_order_release);
}

void ThreadPool::submit(std::function<void()> task) {
  PoolTelemetry* stats = stats_.load(std::memory_order_acquire);
  std::size_t depth = 0;
  {
    std::lock_guard<TracedMutex> lock(mu_);
    queue_.push(std::move(task));
    depth = queue_.size();
  }
  work_cv_.notify_one();
  if (stats != nullptr) {
    stats->tasks->inc();
    stats->queue_depth->add(static_cast<double>(depth));
  }
}

void ThreadPool::submit_many(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  if (tasks.size() == 1) {
    submit(std::move(tasks.front()));
    return;
  }
  PoolTelemetry* stats = stats_.load(std::memory_order_acquire);
  std::size_t depth = 0;
  {
    std::lock_guard<TracedMutex> lock(mu_);
    for (std::function<void()>& task : tasks) queue_.push(std::move(task));
    depth = queue_.size();
  }
  work_cv_.notify_all();
  if (stats != nullptr) {
    stats->tasks->inc(tasks.size());
    stats->queue_depth->add(static_cast<double>(depth));
  }
}

void ThreadPool::wait_idle() {
  // A waiter would only sleep while the workers clear the queue, so it
  // clears it beside them, then waits out their in-flight tasks. Callers
  // need "every submitted task is done", never "done on a worker", and
  // every task is independent of the thread it runs on.
  std::unique_lock<TracedMutex> lock(mu_);
  while (!queue_.empty()) {
    std::function<void()> task = std::move(queue_.front());
    queue_.pop();
    ++helping_;
    PoolTelemetry* stats = stats_.load(std::memory_order_acquire);
    lock.unlock();
    run_task(task, stats);
    if (stats != nullptr) stats->helped->inc();
    lock.lock();
    --helping_;
    // A second waiter may be asleep on this task alone.
    if (idle_locked()) idle_cv_.notify_all();
  }
  idle_cv_.wait(lock, [this] { return idle_locked(); });
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  if (count == 1 || workers_.size() == 1) {
    // Run inline: a single-item fan-out through the queue would only add a
    // context switch, and callers rely on parallel_for(1, ...) matching the
    // serial path exactly.
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  std::vector<std::function<void()>> tasks;
  tasks.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    tasks.emplace_back([&body, i] { body(i); });
  }
  submit_many(std::move(tasks));
  wait_idle();
}

void ThreadPool::worker_loop() {
  // One critical section covers "retire previous task, fetch next": a
  // worker takes mu_ ~once per task instead of twice, and idle_cv_ is only
  // signalled when the pool actually went idle — per-task notify storms
  // were a measurable slice of pool.queue wait under small-work loads.
  std::unique_lock<TracedMutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (stop_ && queue_.empty()) return;
    std::function<void()> task = std::move(queue_.front());
    queue_.pop();
    ++active_;
    PoolTelemetry* stats = stats_.load(std::memory_order_acquire);
    if (stats != nullptr && !workers_.empty()) {
      stats->utilization->set(static_cast<double>(active_) /
                              static_cast<double>(workers_.size()));
    }
    lock.unlock();

    run_task(task, stats);

    lock.lock();
    --active_;
    if (stats != nullptr && !workers_.empty()) {
      stats->utilization->set(static_cast<double>(active_) /
                              static_cast<double>(workers_.size()));
    }
    if (idle_locked()) idle_cv_.notify_all();
  }
}

void ThreadPool::run_task(std::function<void()>& task, PoolTelemetry* stats) {
  const std::uint64_t t0 = stats != nullptr ? monotonic_ns() : 0;
  task();
  task = nullptr;  // release captures before re-locking
  if (stats != nullptr) {
    stats->task_ns->add(static_cast<double>(monotonic_ns() - t0));
  }
}

}  // namespace viprof::support
