// Bounded multi-producer/multi-consumer queue.
//
// The profile server gives every client session one of these between the
// frame receiver and the ingest workers: the bound is the backpressure
// point. push() blocks the sender until space frees up (the service's
// default overload behaviour — a slow server slows its clients instead of
// silently shedding), try_push() lets a drop-with-accounting policy refuse
// instead, and close() releases everyone during shutdown.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "support/telemetry.hpp"

namespace viprof::support {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Publishes live queue depth into `depth_gauge` and samples the depth
  /// observed at each push into `depth_hist` (either may be null). Call
  /// before the queue sees concurrent traffic — the pointers are read
  /// under the queue lock but installed without synchronisation.
  void instrument(Gauge* depth_gauge, LatencyHistogram* depth_hist) {
    std::lock_guard<std::mutex> lock(mu_);
    depth_gauge_ = depth_gauge;
    depth_hist_ = depth_hist;
  }

  /// Blocks until there is room (backpressure) or the queue is closed.
  /// Returns false only when closed. `item` is moved from only on success:
  /// a refused item stays with the caller, who can still reclaim what it
  /// owns.
  bool push(T&& item) {
    std::unique_lock<std::mutex> lock(mu_);
    space_cv_.wait(lock, [this] { return items_.size() < capacity_ || closed_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    note_push_locked();
    item_cv_.notify_one();
    return true;
  }

  /// Non-blocking: false when full or closed (the caller drops and counts;
  /// as with push(), a refused item is left intact).
  bool try_push(T&& item) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(item));
    note_push_locked();
    item_cv_.notify_one();
    return true;
  }

  /// Blocks for an item; nullopt once the queue is closed *and* drained.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    item_cv_.wait(lock, [this] { return !items_.empty() || closed_; });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    note_pop_locked();
    space_cv_.notify_one();
    return item;
  }

  /// Timed pop: blocks up to `timeout` for an item. nullopt on expiry or
  /// once the queue is closed *and* drained — expiry and close are
  /// indistinguishable to the caller on purpose (both mean "nothing to do
  /// now"); use closed() to tell them apart. An item that arrives in the
  /// same instant close() fires is still delivered, never dropped.
  template <typename Rep, typename Period>
  std::optional<T> pop_for(const std::chrono::duration<Rep, Period>& timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!item_cv_.wait_for(lock, timeout,
                           [this] { return !items_.empty() || closed_; })) {
      return std::nullopt;  // expired with nothing queued
    }
    if (items_.empty()) return std::nullopt;  // closed and drained
    T item = std::move(items_.front());
    items_.pop_front();
    note_pop_locked();
    space_cv_.notify_one();
    return item;
  }

  /// Non-blocking pop; nullopt when currently empty.
  std::optional<T> try_pop() {
    std::lock_guard<std::mutex> lock(mu_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    note_pop_locked();
    space_cv_.notify_one();
    return item;
  }

  /// Wakes all blocked producers and consumers; push becomes a no-op,
  /// pop drains the remaining items then reports exhaustion.
  void close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    item_cv_.notify_all();
    space_cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }

  /// High-water mark: the deepest the queue has ever been. How close the
  /// backpressure bound came to engaging, without watching live gauges.
  std::size_t peak() const {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_;
  }

 private:
  void note_push_locked() {  // mu_ must be held
    if (items_.size() > peak_) peak_ = items_.size();
    if (depth_gauge_ != nullptr) depth_gauge_->set(static_cast<double>(items_.size()));
    if (depth_hist_ != nullptr) depth_hist_->add(static_cast<double>(items_.size()));
  }
  void note_pop_locked() {  // mu_ must be held
    if (depth_gauge_ != nullptr) depth_gauge_->set(static_cast<double>(items_.size()));
  }

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable item_cv_;   // queue became non-empty / closed
  std::condition_variable space_cv_;  // queue has room / closed
  std::deque<T> items_;
  bool closed_ = false;
  std::size_t peak_ = 0;
  Gauge* depth_gauge_ = nullptr;
  LatencyHistogram* depth_hist_ = nullptr;
};

}  // namespace viprof::support
