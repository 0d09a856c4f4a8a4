// Cross-layer trace context and contention-instrumented locks
// (DESIGN.md §13).
//
// TraceContext is the causal tag that follows one profiling session
// through every layer hop: minted per session (deterministically, from the
// session id), carried in the wire-frame header, and stamped onto every
// span the service, store and fleet layers record while working on that
// session. A merged Chrome trace can then line up "the same session" across
// shard processes.
//
// TracedMutex wraps std::mutex with the contention methodology the
// kernel-tracing literature prescribes: the *uncontended* path must stay
// almost free (one try_lock plus one relaxed counter bump), and only
// genuine waits pay for measurement. A contended
// acquisition records the wait into a per-named-lock histogram
// (`lock.<name>.wait_ns`) and emits two spans into the owning Telemetry's
// ring: the waiter's `cat:"lock.wait"` span and — on release — the
// holder's `cat:"lock.hold"` span, so a trace shows both who waited and
// who made them wait. Detached (un-attach()ed) instances degrade to plain
// mutexes with zero bookkeeping.
//
// Lock naming scheme: `layer.object` string literals ("service.map_cache",
// "store.manifest", "pool.queue", ...). The literal doubles as the span
// name, so it must outlive the Telemetry — use string literals only.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>

#include "support/hash.hpp"
#include "support/telemetry.hpp"

namespace viprof::support {

/// Causal tag for one session's journey through the stack. trace_id == 0
/// means "untraced"; mint() never returns 0.
struct TraceContext {
  std::uint64_t trace_id = 0;
  /// The sender-side span (frame ordinal, batch seq, ...) this hop
  /// descends from; purely informational in the Chrome export.
  std::uint64_t parent_span = 0;

  bool valid() const { return trace_id != 0; }

  /// Deterministic 64-bit FNV-1a of the session id: the same session is
  /// the same trace on every shard, every run, with no coordination.
  static TraceContext mint(std::string_view session_id) {
    const std::uint64_t h = fnv1a64(session_id);
    return TraceContext{h == 0 ? 0xcbf29ce484222325ull : h, 0};
  }
};

/// Host-side monotonic clock in nanoseconds. Service/store/fleet spans use
/// this time base (exported with cycles_per_us = 1000); the simulated
/// Machine keeps its own virtual-cycle base.
inline std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Telemetry handles one traced lock bumps on its slow path. Registered
/// once at attach(); pointers stay valid for the Telemetry's lifetime.
struct LockTelemetry {
  Counter* acquired = nullptr;   // every acquisition (fast or slow)
  Counter* contended = nullptr;  // acquisitions that had to wait
  LatencyHistogram* wait_ns = nullptr;
  SpanTracer* tracer = nullptr;
};

namespace detail {
/// TracedMutex's attach/record logic.
class LockInstrumentation {
 public:
  explicit LockInstrumentation(const char* name) : name_(name) {}

  const char* name() const { return name_; }

  /// Registers `lock.<name>.*` metrics in `telemetry` and arms the slow
  /// path. Call once, before the lock sees concurrent traffic.
  void attach(Telemetry& telemetry);

  LockTelemetry* handles() const { return handles_.load(std::memory_order_acquire); }

  void count_fast(LockTelemetry* h) { h->acquired->inc(); }
  /// Records one contended acquisition: wait histogram + waiter span.
  void count_wait(LockTelemetry* h, std::uint64_t t0, std::uint64_t t1) {
    h->acquired->inc();
    h->contended->inc();
    h->wait_ns->add(static_cast<double>(t1 - t0));
    h->tracer->record(name_, "lock.wait", t0, t1);
  }
  void record_hold(LockTelemetry* h, std::uint64_t begin, std::uint64_t end) {
    h->tracer->record(name_, "lock.hold", begin, end);
  }

 private:
  const char* name_;
  std::unique_ptr<LockTelemetry> storage_;
  std::atomic<LockTelemetry*> handles_{nullptr};
};
}  // namespace detail

/// std::mutex with per-named-lock contention accounting. Satisfies
/// Lockable, so std::lock_guard / std::unique_lock /
/// std::condition_variable_any work unchanged.
class TracedMutex {
 public:
  explicit TracedMutex(const char* name) : instr_(name) {}

  TracedMutex(const TracedMutex&) = delete;
  TracedMutex& operator=(const TracedMutex&) = delete;

  void attach(Telemetry& telemetry) { instr_.attach(telemetry); }
  const char* name() const { return instr_.name(); }

  void lock() {
    LockTelemetry* h = instr_.handles();
    if (h == nullptr) {
      mu_.lock();
      return;
    }
    if (mu_.try_lock()) {  // uncontended: one relaxed increment, no clock
      instr_.count_fast(h);
      return;
    }
    const std::uint64_t t0 = monotonic_ns();
    mu_.lock();
    const std::uint64_t t1 = monotonic_ns();
    instr_.count_wait(h, t0, t1);
    hold_begin_ = t1;        // guarded by mu_
    contended_hold_ = true;  // guarded by mu_
  }

  bool try_lock() {
    if (!mu_.try_lock()) return false;
    if (LockTelemetry* h = instr_.handles()) instr_.count_fast(h);
    return true;
  }

  void unlock() {
    LockTelemetry* h = instr_.handles();
    const bool contended = contended_hold_;
    const std::uint64_t begin = hold_begin_;
    contended_hold_ = false;
    mu_.unlock();
    // The hold span covers [contended acquire, release); recorded after the
    // release so the recording itself never extends the critical section.
    if (h != nullptr && contended) instr_.record_hold(h, begin, monotonic_ns());
  }

 private:
  std::mutex mu_;
  detail::LockInstrumentation instr_;
  std::uint64_t hold_begin_ = 0;  // guarded by mu_
  bool contended_hold_ = false;   // guarded by mu_
};

}  // namespace viprof::support
