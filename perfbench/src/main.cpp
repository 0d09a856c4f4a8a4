// perfbench — the VIProf end-to-end benchmark.
//
//   perfbench --workload live_ingest|fleet_history|offline_report
//             --seed N --seconds S --trace 0|1
//             [--slow-layer SPAN:US] [--out DIR]
//
// Prints human-readable lines, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 reports the per-layer metrics from spans
// (and writes them to DIR/spans-<workload>-<seed>.jsonl). Exits 1 when any
// operation failed or any answer differed from its oracle, 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>

#include "bench.hpp"

namespace perfbench {

namespace {

/// Every per-layer metric name with its unit, in output order (the
/// per_layer list of BENCHMARK.json). Workloads fill in what they measure;
/// a layer a workload bypasses reports 0.
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"service.send.us_per_frame", "us"},
    {"service.drain.ms", "ms"},
    {"service.map_cache.hit_ratio", "ratio"},
    {"service.flush_to_store.us", "us"},
    {"service.query.top.us", "us"},
    {"service.query.since-epoch.us", "us"},
    {"service.query.arcs.us", "us"},
    {"service.query.memprof.us", "us"},
    {"service.query.sessions.us", "us"},
    {"store.compact.ms", "ms"},
    {"store.segments", "count"},
    {"store.render_top.us", "us"},
    {"store.render_series.us", "us"},
    {"store.render_diff.us", "us"},
    {"fleet.router.ingest.us_per_record", "us"},
    {"fleet.router.attempts", "count"},
    {"fleet.federator.top.us", "us"},
    {"fleet.federator.diff.us", "us"},
    {"fleet.federator.sessions.us", "us"},
    {"core.archive_load.ms", "ms"},
    {"core.log_read.ms", "ms"},
    {"core.aggregate.ns_per_sample", "ns"},
    {"core.callgraph.ns_per_sample", "ns"},
    {"core.render.ms", "ms"},
    {"memprof.object_report.ms", "ms"},
    {"core.resolve.unresolved_frac", "ratio"},
    {"memprof.resolve.resolved_frac", "ratio"},
    {"hw.nmi.cycles_pct", "%"},
    {"core.daemon.cycles_pct", "%"},
    {"core.agent.cycles_pct", "%"},
    {"memprof.agent.cycles_pct", "%"},
    {"overhead.residual_pct", "%"},
    {"jvm.simulate.ms", "ms"},
    {"count.frames", "count"},
    {"count.batches", "count"},
    {"count.records", "count"},
    {"count.intervals", "count"},
    {"count.sessions", "count"},
    {"count.samples", "count"},
    {"count.queries", "count"},
    {"ledger.service.self_pct", "%"},
    {"ledger.store.self_pct", "%"},
    {"ledger.fleet.self_pct", "%"},
    {"ledger.core.self_pct", "%"},
    {"ledger.memprof.self_pct", "%"},
    {"ledger.unattributed_pct", "%"},
    {"ledger.error_pct", "%"},
    {"trace.overhead_pct", "%"},
};

/// The end_to_end list of BENCHMARK.json.
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},           {"ingest_rps", "1/s"},     {"query_p50_us", "us"},
    {"query_p99_us", "us"},     {"report_s", "s"},         {"overhead_pct", "%"},
    {"peak_rss_mb", "MB"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload live_ingest|fleet_history|offline_report\n"
               "                 --seed N --seconds S --trace 0|1\n"
               "                 [--slow-layer SPAN:US] [--out DIR]\n",
               why);
  std::exit(2);
}

/// Metrics of `catalog` in catalog order, from `have`; a name the workload
/// did not report is 0 when `zero_missing`, else a usage error.
std::string metrics_json(const std::vector<std::pair<std::string, std::string>>& catalog,
                         const std::vector<Metric>& have, bool zero_missing) {
  std::set<std::string> known;
  for (const auto& [name, unit] : catalog) known.insert(name);
  for (const Metric& m : have)
    if (known.count(m.name) == 0) usage(("unlisted metric " + m.name).c_str());
  std::string out = "{";
  for (const auto& [name, unit] : catalog) {
    const Metric* found = nullptr;
    for (const Metric& m : have)
      if (m.name == name) found = &m;
    if (found == nullptr && !zero_missing) usage(("missing metric " + name).c_str());
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", found != nullptr ? found->value : 0.0);
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" + unit + "\"}";
  }
  return out + "}";
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && options.seconds > 0.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--slow-layer") {
      const auto colon = value.find(':');
      if (colon == std::string::npos) usage("--slow-layer takes SPAN:US");
      options.slow_layer = value.substr(0, colon);
      options.slow_us = std::strtod(value.c_str() + colon + 1, &end);
      if (*end != '\0' || options.slow_us <= 0.0) usage("--slow-layer takes SPAN:US");
    } else if (flag == "--out") {
      options.out_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace)
    usage("--seed, --seconds and --trace are required");

  Result (*run)(const Options&) = nullptr;
  if (options.workload == "live_ingest") run = run_live_ingest;
  else if (options.workload == "fleet_history") run = run_fleet_history;
  else if (options.workload == "offline_report") run = run_offline_report;
  else usage(("unknown workload '" + options.workload + "'").c_str());

  Tracer& tracer = Tracer::instance();
  tracer.set_slow(options.slow_layer, options.slow_us);
  tracer.set_enabled(options.trace);  // traced runs keep the set-up spans too
  std::printf("host: %s\n", host_fingerprint().c_str());
  std::printf("workload %s, seed %llu, %.0f s, trace %d%s%s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.slow_layer.empty() ? "" : ", slowed span ",
              options.slow_layer.c_str());
  std::fflush(stdout);

  Result result = run(options);
  result.e2e("peak_rss_mb", peak_rss_mb(), "MB");

  std::printf("end-to-end%s:\n", options.trace ? " (traced run; not reported)" : "");
  for (const Metric& m : result.end_to_end)
    std::printf("  %-16s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("  %-16s %16.6f (%llu of %llu operations failed)\n", "failed_frac",
              static_cast<double>(result.failed) / static_cast<double>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  if (options.trace) {
    std::printf("per-layer:\n");
    for (const Metric& m : result.per_layer)
      std::printf("  %-36s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    const std::string path = options.out_dir + "/spans-" + options.workload + "-" +
                             std::to_string(options.seed) + ".jsonl";
    if (tracer.write(path)) std::printf("spans written to %s\n", path.c_str());
    else std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
  }

  const std::string metrics =
      options.trace ? metrics_json(kPerLayer, result.per_layer, true)
                    : metrics_json(kEndToEnd, result.end_to_end, false);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              result.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  return result.failed == 0 ? 0 : 1;
}
