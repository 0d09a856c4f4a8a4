// Self-telemetry: the profiler measured with its own methodology.
//
// VIProf's claim is that full-system profiling costs almost nothing; this
// layer lets the reproduction observe *its own* hot paths the same way it
// observes the JVM's. A Telemetry instance (one per simulated Machine, so
// sessions stay hermetic) holds a registry of named counters, gauges and
// latency histograms plus a lock-light span tracer recording begin/end
// events into a bounded ring. Snapshots serialise to text and JSON (the
// viprof_stat tool dumps and diffs them from an exported session tree);
// spans export as Chrome trace format JSON, loadable in about://tracing.
//
// Metric naming scheme (DESIGN.md §8): `layer.component.metric`, e.g.
// `daemon.flush.write_errors`, `resolver.walkback.depth`. Counters are
// monotonic; gauges are last-write-wins; histograms record value
// distributions with bucket-estimated percentiles.
//
// Concurrency: metric registration takes a mutex; increments on registered
// handles are lock-free atomics (counters/gauges) or a short uncontended
// critical section (histograms, span ring). The NMI-path counters rely on
// this: a handle obtained once is safe to bump from any thread.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "support/histogram.hpp"

namespace viprof::support {

/// Monotonic event count. Lock-free; safe from any thread once registered.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) { v_.fetch_add(delta, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins double (e.g. profiler.overhead_pct). Lock-free via
/// bit-cast storage so readers never see a torn value.
class Gauge {
 public:
  void set(double v) { bits_.store(std::bit_cast<std::uint64_t>(v), std::memory_order_relaxed); }
  double value() const { return std::bit_cast<double>(bits_.load(std::memory_order_relaxed)); }

 private:
  std::atomic<std::uint64_t> bits_{0};
};

/// Point-in-time reduction of one latency histogram. Percentiles are
/// bucket-midpoint estimates (support::Histogram); min/max/sum are exact.
struct HistogramSummary {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;

  double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }

  /// Folds two summaries (e.g. the same lock's histogram from two shards).
  /// count/sum add and min/max combine exactly; percentiles are count-
  /// weighted averages — an approximation, clamped to the merged range,
  /// good enough to *rank* locks (the contention report's job) though not
  /// to re-derive exact quantiles.
  static HistogramSummary merged(const HistogramSummary& a, const HistogramSummary& b);
};

/// Thread-safe distribution tracker over a fixed-bucket support::Histogram.
/// Exact min/max/sum ride alongside so single-sample and saturating cases
/// stay meaningful even when the mass lands in the overflow bucket.
class LatencyHistogram {
 public:
  LatencyHistogram(double lo, double width, std::size_t buckets);

  /// Records `value` `count` times.
  void add(double value, std::uint64_t count = 1);
  HistogramSummary summary() const;

 private:
  double percentile_locked(double q) const;  // mu_ must be held

  mutable std::mutex mu_;
  Histogram hist_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Point-in-time copy of a whole registry: what viprof_stat dumps and
/// diffs, what the bench harness embeds in BENCH_*.json.
struct TelemetrySnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSummary> histograms;

  std::uint64_t counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  double gauge(const std::string& name) const {
    auto it = gauges.find(name);
    return it == gauges.end() ? 0.0 : it->second;
  }

  std::string to_json() const;
  static std::optional<TelemetrySnapshot> from_json(const std::string& json);

  /// viprof_stat-style fixed-width tables; `prefix` filters metric names.
  std::string render_text(const std::string& prefix = "") const;

  /// `after` minus `before`, metric by metric (union of names); unchanged
  /// metrics are omitted.
  static std::string render_diff(const TelemetrySnapshot& before,
                                 const TelemetrySnapshot& after);
};

/// One completed span (or an instant event when end == begin and
/// arg-carrying marker). Name/category must be string literals (or
/// otherwise outlive the tracer): recording never allocates.
struct Span {
  const char* name = "";
  const char* cat = "";
  std::uint64_t begin_cycle = 0;
  std::uint64_t end_cycle = 0;
  std::uint64_t arg = ~0ull;   // kNoArg = no args object in the trace
  std::uint64_t trace = 0;     // TraceContext::trace_id; 0 = untraced
  std::uint32_t tid = 1;       // recording thread's process-wide ordinal
  bool instant = false;
};

/// Process-wide dense thread id, starting at 1 (so single-threaded traces
/// keep the historical tid 1). Stable for the thread's lifetime; exported
/// as the Chrome-trace tid so per-worker lanes separate in the viewer.
std::uint32_t this_thread_ordinal();

/// Bounded ring of whole spans. Records are O(1) under a short mutex (the
/// "lock-light" contract: no allocation, no I/O, no nested locks); once the
/// ring is full each new span overwrites the oldest *whole* span, and the
/// overwrite is counted — the trace never contains a half-dropped event.
class SpanTracer {
 public:
  static constexpr std::uint64_t kNoArg = ~0ull;

  explicit SpanTracer(std::size_t capacity = 4096);

  void record(const char* name, const char* cat, std::uint64_t begin_cycle,
              std::uint64_t end_cycle, std::uint64_t arg = kNoArg,
              std::uint64_t trace = 0);
  void instant(const char* name, const char* cat, std::uint64_t at_cycle,
               std::uint64_t arg = kNoArg, std::uint64_t trace = 0);

  /// Tracing kill switch for overhead experiments: when disabled, record()
  /// and instant() return before touching the ring (no lock, no count).
  /// Metrics (counters/gauges/histograms) are unaffected.
  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Surviving spans, oldest first.
  std::vector<Span> spans() const;

  std::uint64_t recorded() const;
  std::uint64_t dropped() const;  // whole spans overwritten by newer ones
  std::size_t capacity() const { return ring_.size(); }

  /// Chrome trace format ("trace event format") JSON. Cycles convert to
  /// microseconds at `cycles_per_us` (3400 for the paper's 3.4 GHz Xeon;
  /// host-side rings use monotonic_ns at 1000). `pid` labels the process
  /// lane — trace-merge assigns one per shard.
  std::string to_chrome_json(double cycles_per_us, int pid = 1) const;

 private:
  mutable std::mutex mu_;
  std::atomic<bool> enabled_{true};
  std::vector<Span> ring_;
  std::uint64_t next_ = 0;  // total spans ever recorded
};

/// The per-Machine telemetry hub: metric registry + span tracer.
/// Registration is idempotent (same name → same handle) and thread-safe;
/// handles stay valid and pointer-stable for the Telemetry's lifetime.
class Telemetry {
 public:
  explicit Telemetry(std::size_t span_capacity = 4096) : tracer_(span_capacity) {}

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Bucket parameters apply on first registration; later calls with the
  /// same name return the existing histogram unchanged.
  LatencyHistogram& histogram(const std::string& name, double lo, double width,
                              std::size_t buckets);

  SpanTracer& spans() { return tracer_; }
  const SpanTracer& spans() const { return tracer_; }

  /// Includes the span ring's own accounting as `telemetry.spans.recorded`
  /// / `telemetry.spans.dropped` counters, so a truncated trace is visibly
  /// counted in every snapshot rather than silently shorter.
  TelemetrySnapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
  SpanTracer tracer_;
};

/// True when `text` parses as a single complete JSON value (objects,
/// arrays, strings, numbers, booleans, null). Used by viprof_stat, the
/// snapshot loader and the trace well-formedness tests.
bool json_well_formed(const std::string& text);

/// One Chrome-trace event as re-read from a trace.json. `args_json` keeps
/// the raw args object verbatim so a parse→merge round trip is lossless
/// for fields this struct does not model.
struct ChromeTraceEvent {
  std::string name;
  std::string cat;
  std::string ph;  // "X" complete, "i" instant, "M" metadata
  double ts = 0.0;
  double dur = 0.0;
  int pid = 1;
  std::uint32_t tid = 1;
  std::string args_json;  // raw "{...}" or empty
};

struct ChromeTrace {
  std::vector<ChromeTraceEvent> events;
};

/// Parses a Chrome-trace-format JSON document (as written by
/// SpanTracer::to_chrome_json or merge_chrome_traces). Returns nullopt on
/// malformed JSON or a missing traceEvents array.
std::optional<ChromeTrace> parse_chrome_trace(const std::string& json);

/// Folds per-shard trace rings into one Chrome trace: input i becomes
/// pid i+1 with a process_name metadata record carrying its label, tids
/// pass through (worker lanes stay separate), and timestamps are rebased
/// so the earliest event across all inputs lands at ts 0 — shards with
/// different clock origins line up on one timeline.
std::string merge_chrome_traces(
    const std::vector<std::pair<std::string, ChromeTrace>>& shards);

}  // namespace viprof::support
