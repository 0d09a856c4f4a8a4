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
// distributions in one fixed log-linear layout (HistogramLayout), so
// snapshots carry buckets and merge exactly across threads and shards.
//
// Concurrency: metric registration takes a mutex; updates on registered
// handles are lock-free atomics (counters, gauges, histograms); only the
// span ring takes a short uncontended critical section. The NMI-path
// counters rely on this: a handle obtained once is safe to bump from any
// thread.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

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

/// The one histogram layout (DESIGN.md §8): log-linear, HdrHistogram-style.
/// A value's bucket is its binary exponent plus its top kSubBits mantissa
/// bits, so each power of two in [2^kMinExp, 2^kMaxExp) has 32 sub-buckets
/// whose midpoints lie within 1/64 (< 3%) of their values. Bucket 0 takes
/// everything below the range (zero included), the last everything above.
struct HistogramLayout {
  static constexpr int kSubBits = 5;
  static constexpr int kMinExp = -16;
  static constexpr int kMaxExp = 48;
  static constexpr std::uint32_t kBuckets = ((kMaxExp - kMinExp) << kSubBits) + 2;

  static std::uint32_t bucket_of(double value);
  /// The value a percentile landing in `bucket` reports before clamping:
  /// the midpoint, 0 for the low end bucket, +inf for the high one.
  static double value_of(std::uint32_t bucket);
};

struct HistogramBucket {
  std::uint32_t index = 0;
  std::uint64_t count = 0;
  friend bool operator==(const HistogramBucket&, const HistogramBucket&) = default;
};

/// Point-in-time copy of one histogram: exact count/sum/min/max plus its
/// non-empty buckets. Percentiles are always derived from the buckets, so
/// a summary, a merge of summaries and a summary re-read from JSON all
/// answer through the same code.
struct HistogramSummary {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::vector<HistogramBucket> buckets;  // ascending index; counts sum to `count`

  double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }

  /// Value at rank max(1, ceil(q * count)): its bucket's value_of(),
  /// clamped to [min, max]. 0 for an empty summary.
  double percentile(double q) const;
  double p50() const { return percentile(0.50); }
  double p90() const { return percentile(0.90); }
  double p99() const { return percentile(0.99); }

  /// Exact fold of two summaries (e.g. one lock's histogram from two
  /// shards): bucket-wise sum, so its percentiles equal those of one
  /// histogram that saw both inputs' values.
  static HistogramSummary merged(const HistogramSummary& a, const HistogramSummary& b);
};

/// Thread-safe distribution tracker in the HistogramLayout. add() is a few
/// relaxed atomic operations on a dense bucket array — no lock.
class LatencyHistogram {
 public:
  /// Records `value` `count` times. NaN is ignored.
  void add(double value, std::uint64_t count = 1);
  /// Consistent with itself under concurrent adds: `count` is the sum of
  /// the buckets read, and min/max cover every value counted.
  HistogramSummary summary() const;

 private:
  std::array<std::atomic<std::uint64_t>, HistogramLayout::kBuckets> buckets_{};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
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
  /// nullopt on malformed JSON, a count or bucket entry that is not a plain
  /// decimal integer fitting 64 bits, or a histogram no live one could have
  /// produced (histogram_of). Percentiles are re-derived from the buckets.
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
  void push(Span span);  // stamps the tid; drops the span when disabled

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
  LatencyHistogram& histogram(const std::string& name);

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
/// malformed JSON, a missing traceEvents array, or a pid (tid) that is not a
/// plain decimal integer no larger than INT_MAX (UINT32_MAX).
std::optional<ChromeTrace> parse_chrome_trace(const std::string& json);

/// Folds per-shard trace rings into one Chrome trace: input i becomes
/// pid i+1 with a process_name metadata record carrying its label, tids
/// pass through (worker lanes stay separate), and timestamps are rebased
/// so the earliest event across all inputs lands at ts 0 — shards with
/// different clock origins line up on one timeline.
std::string merge_chrome_traces(
    const std::vector<std::pair<std::string, ChromeTrace>>& shards);

}  // namespace viprof::support
