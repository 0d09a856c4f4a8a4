// Shared pieces of the VIProf benchmark: options, results, the span tracer
// that attributes timed wall time to layers, latency summaries, the
// measured-round clock, and the simulated profiling sessions every
// workload starts from.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "memprof/agent.hpp"
#include "os/machine.hpp"

namespace perfbench {

using namespace viprof;

/// The report events every workload renders (time and L2 misses, Fig. 1).
inline const std::vector<hw::EventKind> kReportEvents = {
    hw::EventKind::kGlobalPowerEvents, hw::EventKind::kBsqCacheReference};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Sensitivity self-check: every span with this name busy-waits slow_us
  /// inside the span. Empty = off.
  std::string slow_layer;
  double slow_us = 0.0;
  /// Where the traced run writes its span file.
  std::string out_dir = ".";
};

/// Set-up repetitions per run; setup_s is the median of their times.
inline constexpr int kSetups = 5;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  /// Counts one attempted operation; a failed one is also reported on stderr.
  void check(bool ok, const std::string& what);
};

// ---------------------------------------------------------------- tracing

/// In-memory span recorder for the benchmark's own calls into the layers.
/// Single-threaded by design: every layer call the benchmark makes comes
/// from its one generator thread, so spans nest strictly and a span's self
/// time is its duration minus its children's.
class Tracer {
 public:
  struct Record {
    const char* name = nullptr;  // "layer.component"; static storage
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint32_t parent = 0;  // 1-based index into records; 0 = top level
    std::uint64_t trace_id = 0;
  };
  struct Totals {
    std::uint64_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };

  static Tracer& instance();

  void set_enabled(bool on) { enabled_ = on; }
  void set_slow(const std::string& name, double us) {
    slow_name_ = name;
    slow_ns_ = static_cast<std::uint64_t>(us * 1e3);
  }

  /// Opens a span (returns its 1-based index, 0 when not recording) and,
  /// for the self-check's slowed span name, busy-waits inside it.
  std::size_t open(const char* name, std::uint64_t trace_id);
  void close(std::size_t index);

  /// Records recorded so far; totals() folds records [from, end).
  std::size_t mark() const { return records_.size(); }
  std::map<std::string, Totals> totals(std::size_t from) const;
  /// Sum of the durations of top-level records in [from, end).
  double top_level_ns(std::size_t from) const;

  /// Writes every record as one JSON object per line. False on I/O error.
  bool write(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::string slow_name_;
  std::uint64_t slow_ns_ = 0;
  std::vector<Record> records_;
  std::vector<std::uint32_t> stack_;
};

/// RAII span around one call into a layer.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t trace_id = 0)
      : index_(Tracer::instance().open(name, trace_id)) {}
  ~Span() { Tracer::instance().close(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::size_t index_;
};

/// Stable trace id for a session name (FNV-1a).
std::uint64_t trace_id_of(const std::string& session);

std::uint64_t now_ns();

// ------------------------------------------------------------ measurement

/// Host-speed reference: a fixed kernel owned by the benchmark (a
/// string-keyed hash map built from a fixed stream, then its rows sorted),
/// never calling src/. Returns its wall time in ms.
///
/// The benchmark's host is a shared virtual machine whose speed moves by up
/// to 40 % in phases of seconds to minutes (neighbours on the same cores).
/// The kernel slows with those phases the way the workloads do, so every
/// end-to-end time is scaled by kReferenceMs / (the kernel's time measured
/// beside it): times read as on a host where the kernel takes kReferenceMs.
/// A change to the program moves the workloads and not the kernel.
double reference_ms();

/// About the reference kernel's time on a quiet 4-CPU Xeon virtual machine
/// (11 to 12 ms there; 15 to 16 ms in its slow phases).
inline constexpr double kReferenceMs = 11.0;

/// Median of `n` reference_ms() runs.
double reference_median_ms(int n);

/// Per-call latency samples in microseconds, tagged with their round.
class Latency {
 public:
  void add(std::size_t round, double us) { samples_.push_back({us, round}); }
  std::size_t count() const { return samples_.size(); }
  /// Nearest-rank quantile (q in [0, 1]) of the samples, each scaled by
  /// its round's scale[round]; 0 when there are none.
  double quantile(double q, const std::vector<double>& scale) const;

 private:
  struct Sample {
    double us;
    std::size_t round;
  };
  std::vector<Sample> samples_;
};

double median(std::vector<double> values);

/// "min / q1 / median / q3 / max" of per-round values, for the log.
std::string spread(std::vector<double> values);

/// Drives the measured phase: rounds of identical work until `seconds`
/// have passed. In a traced run, rounds alternate traced/untraced, so the
/// same run yields both the per-layer spans and the tracing overhead.
///
/// Before every round, and once after the last, it runs the host-speed
/// reference (outside the round's clock). Round r's host scale is
/// kReferenceMs over the median of the reference times around it (from two
/// rounds before to two rounds after), so a burst that hits one reference
/// run does not skew its round.
class Rounds {
 public:
  explicit Rounds(const Options& options);

  /// Starts the next round; false once the deadline has passed (after at
  /// least two rounds).
  bool next();
  /// Ends the round begun by next(); call before the round's results are
  /// checked against the oracles, which run outside the round's clock.
  void end();

  /// Rounds ended so far; during a round, the current round's index.
  std::size_t count() const { return all_ns_.size(); }
  /// Host scale of every round; call after next() has returned false.
  /// Multiply a time measured in round r (or between its end and the next
  /// round) by scale[r]; divide a rate by it.
  std::vector<double> host_scale() const;
  double reference_median() const { return median(refs_ms_); }
  std::size_t traced_count() const { return traced_ns_.size(); }
  /// Wall time of all traced rounds, and the span mark where they started.
  double traced_wall_ns() const;
  std::size_t span_mark() const { return mark_; }
  /// (median traced round - median untraced round) / median untraced, in %.
  double tracing_overhead_pct() const;

 private:
  const Options& options_;
  std::uint64_t deadline_ns_ = 0;
  std::uint64_t round_start_ = 0;
  bool traced_ = false;
  std::size_t mark_ = 0;
  std::vector<double> traced_ns_, plain_ns_, all_ns_;
  std::vector<double> refs_ms_;  // refs_ms_[r] ran just before round r
};

/// Per-layer self time of the traced rounds as a share of their wall time,
/// plus the `unattributed` residual and the ledger check (self times plus
/// the residual must sum to the wall time within `tolerance_pct`).
void report_ledger(const Rounds& rounds, Result& result, double tolerance_pct = 0.5);

/// Mean duration per call, and total duration, of the spans named `name`,
/// in units of `ns_per_unit` nanoseconds (1e3 = us, 1e6 = ms); 0 if none.
double span_mean(const std::map<std::string, Tracer::Totals>& totals,
                 const std::string& name, double ns_per_unit);
double span_total(const std::map<std::string, Tracer::Totals>& totals,
                  const std::string& name, double ns_per_unit);

/// Peak resident set of this process, in MB.
double peak_rss_mb();

// ------------------------------------------------- simulated VIProf sessions

/// One profiled program run: `program` is pseudojbb, antlr, xalan or
/// leakshaped (which also runs the object-centric memory profiler); `scale`
/// multiplies its run length. The seed drives the machine and VM.
struct SessionSpec {
  std::string id;
  std::string program;
  double scale = 1.0;
  std::uint64_t seed = 0;
};

/// A finished VIProf session plus its unprofiled (base arm) twin. The
/// machine's Vfs holds the exported session: archive manifest, RVM.map,
/// epoch code/object maps and the per-event sample logs.
struct SimSession {
  std::string id;
  std::unique_ptr<os::Machine> machine;
  std::unique_ptr<jvm::Vm> vm;
  std::unique_ptr<core::ProfilingSession> session;
  std::unique_ptr<memprof::MemProfAgent> agent;
  core::SessionResult result;
  hw::Cycles memprof_cycles = 0;
  hw::Cycles base_cycles = 0;

  const os::Vfs& world() const { return machine->vfs(); }
};

/// Time-event sampling period in cycles: above the 2200-cycle NMI cost, so
/// the handler never overruns the period.
inline constexpr std::uint64_t kSamplePeriod = 9'000;

/// Simulates every spec under VIProf and under the base arm (one
/// "jvm.simulate" span each).
std::vector<SimSession> simulate(const std::vector<SessionSpec>& specs);

/// Derives a per-session seed from the workload seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt);

/// The Fig. 2 slowdown of the sessions and its profiled-machine ledger:
/// NMI, daemon, agent and memprof cycles plus a residual that makes the
/// parts equal the cycle delta exactly. Emits overhead_pct (end to end)
/// and the *.cycles_pct parts (per layer).
void report_overhead(const std::vector<SimSession>& sessions, Result& result);

/// A session's wire stream, encoded once by service::ReplayClient into
/// memory: the timed regions send these frames, so client-side encoding
/// stays outside them.
struct EncodedSession {
  std::string id;
  std::uint64_t trace_id = 0;
  std::vector<std::string> frames;
  std::uint64_t batches = 0;
  std::uint64_t records = 0;
  bool complete = false;
};

EncodedSession encode_session(const SimSession& sim);

/// Rows in every top-N answer the workloads ask for and check.
inline constexpr std::size_t kTop = 20;

/// The offline viprof_report answers over each session's files: the
/// profile (service::offline_render) and the memory profile
/// (memprof::build_object_report + render_memprof), with the seconds the
/// whole pass took. These are the oracles the online answers must equal.
struct OfflineAnswers {
  std::vector<std::string> top;
  std::vector<std::string> memprof;
  double seconds = 0.0;
};

OfflineAnswers offline_answers(const std::vector<SimSession>& sims);

/// The per-layer metrics that are plain span means (for example
/// service.send.us_per_frame), computed from the traced rounds.
void report_span_metrics(const Rounds& rounds, Result& result);

/// What a workload measured for its shared end-to-end metrics.
struct Timings {
  struct Pass {
    std::size_t round;  // the round it ran in, or the round it followed
    double seconds;
  };
  std::vector<double> setup_s;     // host-scaled, one per set-up repetition
  std::vector<double> simulate_s;  // session simulation, per set-up (raw)
  std::vector<double> round_rps;   // records applied per second, per round (raw)
  std::vector<Pass> report_s;      // one per offline report pass (raw)
};

/// Builds a workload's inputs kSetups times, timing each set-up, and keeps
/// the last. Each set-up time is host-scaled by the reference runs before
/// and after it. `Inputs` has a `simulate_s` member.
template <class Inputs>
std::unique_ptr<Inputs> set_up_repeatedly(std::unique_ptr<Inputs> (*set_up)(std::uint64_t),
                                          std::uint64_t seed, Timings& timings) {
  std::unique_ptr<Inputs> in;
  double ref_before = reference_median_ms(3);
  for (int i = 0; i < kSetups; ++i) {
    in.reset();  // the previous inputs are freed before the next set-up
    const std::uint64_t t0 = now_ns();
    in = set_up(seed);
    const double seconds = static_cast<double>(now_ns() - t0) / 1e9;
    const double ref_after = reference_median_ms(3);
    timings.setup_s.push_back(seconds * kReferenceMs / (0.5 * (ref_before + ref_after)));
    timings.simulate_s.push_back(in->simulate_s);
    ref_before = ref_after;
  }
  return in;
}

/// Emits setup_s, ingest_rps, query_p50_us, query_p99_us, report_s and
/// overhead_pct, each time host-scaled and the median over all rounds (or
/// passes), with the per-layer numbers every workload shares (cycle parts,
/// jvm.simulate.ms); logs the query sample count, the host scale and the
/// per-round ingest spread.
void report_end_to_end(const Rounds& rounds, const Latency& latency, const Timings& timings,
                       const std::vector<SimSession>& sims, Result& result);

/// Host fingerprint line printed with every result.
std::string host_fingerprint();

// ------------------------------------------------------------- workloads

Result run_live_ingest(const Options& options);
Result run_fleet_history(const Options& options);
Result run_offline_report(const Options& options);

}  // namespace perfbench
