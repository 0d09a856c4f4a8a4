#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "bench.hpp"

namespace perfbench {

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t trace_id_of(const std::string& session) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : session) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// ---------------------------------------------------------------- Tracer

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::size_t Tracer::open(const char* name, std::uint64_t trace_id) {
  std::size_t index = 0;
  if (enabled_) {
    Record r;
    r.name = name;
    r.start_ns = now_ns();
    r.parent = stack_.empty() ? 0 : stack_.back();
    r.trace_id = trace_id;
    records_.push_back(r);
    index = records_.size();
    stack_.push_back(static_cast<std::uint32_t>(index));
  }
  if (slow_ns_ != 0 && slow_name_ == name) {
    const std::uint64_t until = now_ns() + slow_ns_;
    while (now_ns() < until) {
    }
  }
  return index;
}

void Tracer::close(std::size_t index) {
  if (index == 0) return;
  records_[index - 1].end_ns = now_ns();
  stack_.pop_back();
}

std::map<std::string, Tracer::Totals> Tracer::totals(std::size_t from) const {
  std::map<std::string, Totals> out;
  for (std::size_t i = from; i < records_.size(); ++i) {
    const Record& r = records_[i];
    const double dur = static_cast<double>(r.end_ns - r.start_ns);
    Totals& t = out[r.name];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur;
    if (r.parent > from) out[records_[r.parent - 1].name].self_ns -= dur;
  }
  return out;
}

double Tracer::top_level_ns(std::size_t from) const {
  double sum = 0.0;
  for (std::size_t i = from; i < records_.size(); ++i)
    if (records_[i].parent <= from)
      sum += static_cast<double>(records_[i].end_ns - records_[i].start_ns);
  return sum;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const std::uint64_t t0 = records_.empty() ? 0 : records_.front().start_ns;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %llu, \"end_ns\": %llu, "
                  "\"parent\": %u, \"trace_id\": \"%016llx\"}\n",
                  i + 1, r.name, static_cast<unsigned long long>(r.start_ns - t0),
                  static_cast<unsigned long long>(r.end_ns - t0), r.parent,
                  static_cast<unsigned long long>(r.trace_id));
    out << line;
  }
  return static_cast<bool>(out);
}

// ----------------------------------------------------------- measurement

double reference_ms() {
  const std::uint64_t t0 = now_ns();
  std::unordered_map<std::string, std::uint64_t> counts;
  std::uint64_t x = 0x2545f4914f6cdd1dULL;  // xorshift64, the same stream every run
  for (int i = 0; i < 40'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    counts["sym." + std::to_string(x % 100'000)] += x & 0xff;
  }
  std::vector<std::pair<std::uint64_t, std::string>> rows;
  rows.reserve(counts.size());
  for (const auto& [name, count] : counts) rows.emplace_back(count, name);
  std::sort(rows.begin(), rows.end());
  static volatile std::size_t sink;
  sink = rows.size() + rows.front().second.size();
  return static_cast<double>(now_ns() - t0) / 1e6;
}

double reference_median_ms(int n) {
  std::vector<double> ms;
  for (int i = 0; i < n; ++i) ms.push_back(reference_ms());
  return median(std::move(ms));
}

double Latency::quantile(double q, const std::vector<double>& scale) const {
  std::vector<double> us;
  us.reserve(samples_.size());
  for (const Sample& s : samples_) us.push_back(s.us * scale[s.round]);
  if (us.empty()) return 0.0;
  std::sort(us.begin(), us.end());
  const double rank = std::ceil(q * static_cast<double>(us.size()));
  const std::size_t at = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return us[std::min(at, us.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string spread(std::vector<double> values) {
  if (values.empty()) return "-";
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  char out[160];
  std::snprintf(out, sizeof(out), "%.4g / %.4g / %.4g / %.4g / %.4g", values.front(),
                values[n / 4], values[n / 2], values[(3 * n) / 4], values.back());
  return out;
}

Rounds::Rounds(const Options& options) : options_(options) {
  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(false);
  mark_ = tracer.mark();
  deadline_ns_ = now_ns() + static_cast<std::uint64_t>(options.seconds * 1e9);
}

bool Rounds::next() {
  refs_ms_.push_back(reference_ms());
  if (count() >= 2 && now_ns() >= deadline_ns_) return false;
  // Traced runs alternate: even rounds traced, odd rounds not.
  traced_ = options_.trace && count() % 2 == 0;
  Tracer::instance().set_enabled(traced_);
  round_start_ = now_ns();
  return true;
}

void Rounds::end() {
  const double ns = static_cast<double>(now_ns() - round_start_);
  Tracer::instance().set_enabled(false);
  (traced_ ? traced_ns_ : plain_ns_).push_back(ns);
  all_ns_.push_back(ns);
}

std::vector<double> Rounds::host_scale() const {
  std::vector<double> scale;
  for (std::size_t r = 0; r < count(); ++r) {
    // refs_ms_[r] and refs_ms_[r + 1] bracket round r; take two more each side.
    const std::size_t lo = r < 2 ? 0 : r - 2;
    const std::size_t hi = std::min(refs_ms_.size(), r + 4);
    scale.push_back(kReferenceMs /
                    median(std::vector<double>(refs_ms_.begin() + lo, refs_ms_.begin() + hi)));
  }
  return scale;
}

double Rounds::traced_wall_ns() const {
  double sum = 0.0;
  for (const double ns : traced_ns_) sum += ns;
  return sum;
}

double Rounds::tracing_overhead_pct() const {
  const double plain = median(plain_ns_);
  if (plain <= 0.0) return 0.0;
  return 100.0 * (median(traced_ns_) - plain) / plain;
}

void report_end_to_end(const Rounds& rounds, const Latency& latency, const Timings& timings,
                       const std::vector<SimSession>& sims, Result& result) {
  const std::vector<double> scale = rounds.host_scale();
  std::printf("host speed: reference kernel median %.3f ms against %.1f ms nominal; "
              "round scale %s\n",
              rounds.reference_median(), kReferenceMs, spread(scale).c_str());
  std::printf("queries: %zu (%zu beyond p99)\n", latency.count(), latency.count() / 100);
  std::printf("ingest_rps per round, unscaled (min / q1 / median / q3 / max): %s\n",
              spread(timings.round_rps).c_str());
  std::vector<double> rps, report_s;
  for (std::size_t r = 0; r < timings.round_rps.size(); ++r)
    rps.push_back(timings.round_rps[r] / scale[r]);
  for (const Timings::Pass& pass : timings.report_s)
    report_s.push_back(pass.seconds * scale[pass.round]);
  result.e2e("setup_s", median(timings.setup_s), "s");
  result.e2e("ingest_rps", median(rps), "1/s");
  result.e2e("query_p50_us", latency.quantile(0.50, scale), "us");
  result.e2e("query_p99_us", latency.quantile(0.99, scale), "us");
  result.e2e("report_s", median(report_s), "s");
  report_overhead(sims, result);
  result.layer("jvm.simulate.ms", median(timings.simulate_s) * 1e3, "ms");
}

void report_ledger(const Rounds& rounds, Result& result, double tolerance_pct) {
  if (rounds.traced_count() == 0) return;  // untraced run: no spans to account
  const Tracer& tracer = Tracer::instance();
  const auto totals = tracer.totals(rounds.span_mark());
  const double wall = rounds.traced_wall_ns();
  std::map<std::string, double> layer_self;
  double self_sum = 0.0;
  for (const auto& [name, t] : totals) {
    layer_self[name.substr(0, name.find('.'))] += t.self_ns;
    self_sum += t.self_ns;
  }
  const double unattributed = wall - tracer.top_level_ns(rounds.span_mark());
  const double pct = wall > 0.0 ? 100.0 / wall : 0.0;
  for (const char* layer : {"service", "store", "fleet", "core", "memprof"})
    result.layer(std::string("ledger.") + layer + ".self_pct", layer_self[layer] * pct, "%");
  result.layer("ledger.unattributed_pct", unattributed * pct, "%");
  const double error_pct = std::abs(self_sum + unattributed - wall) * pct;
  result.layer("ledger.error_pct", error_pct, "%");
  result.layer("trace.overhead_pct", rounds.tracing_overhead_pct(), "%");
  std::printf("ledger: %.1f ms traced wall = %.1f ms layer self time + %.1f ms "
              "unattributed (error %.4f%%, tolerance %.2f%%)\n",
              wall / 1e6, self_sum / 1e6, unattributed / 1e6, error_pct, tolerance_pct);
  for (const auto& [layer, ns] : layer_self)
    std::printf("ledger:   %-8s self %8.1f ms  %5.1f%%\n", layer.c_str(), ns / 1e6, ns * pct);
  std::printf("ledger:   %-8s      %8.1f ms  %5.1f%%\n", "unattrib", unattributed / 1e6,
              unattributed * pct);
  std::printf("tracing overhead: %+.2f%% (median traced vs untraced round)\n",
              rounds.tracing_overhead_pct());
  result.check(wall > 0.0 && unattributed >= 0.0 && error_pct <= tolerance_pct,
               "ledger: layer self times + unattributed != traced wall time");
}

double span_mean(const std::map<std::string, Tracer::Totals>& totals,
                 const std::string& name, double ns_per_unit) {
  const auto it = totals.find(name);
  if (it == totals.end() || it->second.count == 0) return 0.0;
  return it->second.total_ns / static_cast<double>(it->second.count) / ns_per_unit;
}

double span_total(const std::map<std::string, Tracer::Totals>& totals,
                  const std::string& name, double ns_per_unit) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second.total_ns / ns_per_unit;
}

void report_span_metrics(const Rounds& rounds, Result& result) {
  struct SpanMetric {
    const char* metric;
    const char* span;
    double ns_per_unit;
    const char* unit;
  };
  static const SpanMetric kSpanMetrics[] = {
      {"service.send.us_per_frame", "service.send", 1e3, "us"},
      {"service.drain.ms", "service.drain", 1e6, "ms"},
      {"service.flush_to_store.us", "service.flush_to_store", 1e3, "us"},
      {"service.query.top.us", "service.query.top", 1e3, "us"},
      {"service.query.since-epoch.us", "service.query.since-epoch", 1e3, "us"},
      {"service.query.arcs.us", "service.query.arcs", 1e3, "us"},
      {"service.query.memprof.us", "service.query.memprof", 1e3, "us"},
      {"service.query.sessions.us", "service.query.sessions", 1e3, "us"},
      {"store.compact.ms", "store.compact", 1e6, "ms"},
      {"store.render_top.us", "store.render_top", 1e3, "us"},
      {"store.render_series.us", "store.render_series", 1e3, "us"},
      {"store.render_diff.us", "store.render_diff", 1e3, "us"},
      {"fleet.federator.top.us", "fleet.federator.top", 1e3, "us"},
      {"fleet.federator.diff.us", "fleet.federator.diff", 1e3, "us"},
      {"fleet.federator.sessions.us", "fleet.federator.sessions", 1e3, "us"},
      {"core.archive_load.ms", "core.archive_load", 1e6, "ms"},
      {"core.log_read.ms", "core.log_read", 1e6, "ms"},
      {"core.render.ms", "core.render", 1e6, "ms"},
      {"memprof.object_report.ms", "memprof.object_report", 1e6, "ms"},
  };
  const auto totals = Tracer::instance().totals(rounds.span_mark());
  for (const SpanMetric& m : kSpanMetrics)
    result.layer(m.metric, span_mean(totals, m.span, m.ns_per_unit), m.unit);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string host_fingerprint() {
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  char out[512];
  std::snprintf(out, sizeof(out),
                "{\"cpus\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"commit\": \"%s\"}",
                std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
                PERFBENCH_BUILD_TYPE, commit != nullptr ? commit : "unknown");
  return out;
}

}  // namespace perfbench
