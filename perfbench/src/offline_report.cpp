// offline_report: the paper's post-processing path, viprof_report's steps
// over each session's files.
//
// Set-up simulates a long, skewed pseudojbb session (few epochs, many
// samples), an antlr session (many epochs, cold code, many code maps) and a
// leak-shaped memprof session, each also under the base arm, and renders
// the serial (one worker) report of each as the oracle. Each measured
// round then reports every session in tools/viprof_report.cpp order:
// ArchiveResolver load, SampleLogReader::read per event,
// ResolvePipeline::aggregate_profile and aggregate_callgraph on two
// workers, memprof::build_object_report, render. After the report it
// answers kQueriesPerRound seeded top-N views of the built aggregates.
//
// All the work is in core and memprof; service, store and fleet are
// bypassed, so changes to those layers should not move this workload.
#include <cstdio>

#include "bench.hpp"
#include "core/archive.hpp"
#include "core/resolve_pipeline.hpp"
#include "core/sample_log.hpp"
#include "memprof/report.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kQueriesPerRound = 120;

/// One session's report and the aggregates behind it.
struct Report {
  std::string text;
  core::Profile profile;
  std::unique_ptr<core::Resolver> resolver;  // the call graph resolves through it
  std::unique_ptr<core::CallGraph> graph;
  memprof::ObjectReport objects;
  std::uint64_t samples = 0;
  std::uint64_t graph_samples = 0;
};

Report report(const SimSession& sim, core::ResolvePipeline& pipeline) {
  const std::uint64_t trace = trace_id_of(sim.id);
  const os::Vfs& vfs = sim.world();
  Report out;
  std::unique_ptr<core::ArchiveResolver> archive;
  {
    Span span("core.archive_load", trace);
    archive = std::make_unique<core::ArchiveResolver>(vfs, "archive", true);
  }
  const auto resolve = [&archive](const core::LoggedSample& s, core::ResolveStats&) {
    return archive->resolve(s);
  };
  std::vector<core::LoggedSample> time_samples;
  for (const hw::EventKind event : kReportEvents) {
    std::vector<core::LoggedSample> samples;
    {
      Span span("core.log_read", trace);
      samples = core::SampleLogReader::read(vfs, "samples", event);
    }
    {
      Span span("core.aggregate", trace);
      pipeline.aggregate_profile(samples, event, resolve, out.profile);
    }
    out.samples += samples.size();
    if (event == hw::EventKind::kGlobalPowerEvents) time_samples = std::move(samples);
  }
  {
    // The call graph resolves both ends through the session's resolver.
    Span span("core.callgraph", trace);
    out.resolver = std::make_unique<core::Resolver>(
        *sim.machine, sim.session->registrations(), true);
    out.resolver->load();
    out.graph = std::make_unique<core::CallGraph>(*out.resolver);
    pipeline.aggregate_callgraph(time_samples, *out.graph);
    out.graph_samples = time_samples.size();
  }
  {
    Span span("memprof.object_report", trace);
    out.objects = memprof::build_object_report(vfs, "samples", archive->registrations());
  }
  {
    Span span("core.render", trace);
    out.text = out.profile.render(kReportEvents, kTop) + "-- call graph --\n" +
               out.graph->render(kTop) + "-- memory profile --\n" +
               memprof::render_memprof(out.objects.sites, out.objects.profile, kTop);
  }
  return out;
}

struct Inputs {
  std::vector<SimSession> sims;
  std::vector<std::string> oracle;  // serial report text per session
  double simulate_s = 0.0;
};

std::unique_ptr<Inputs> set_up(std::uint64_t seed) {
  const std::vector<SessionSpec> specs = {
      {"offline-jbb", "pseudojbb", 1.0, mix(seed, 21)},
      {"offline-antlr", "antlr", 3.0, mix(seed, 22)},
      {"offline-leak", "leakshaped", 1.0, mix(seed, 23)},
  };
  auto in = std::make_unique<Inputs>();
  const std::uint64_t t0 = now_ns();
  in->sims = simulate(specs);
  in->simulate_s = static_cast<double>(now_ns() - t0) / 1e9;
  core::ResolvePipeline serial(core::PipelineConfig{1});
  for (const SimSession& sim : in->sims) in->oracle.push_back(report(sim, serial).text);
  return in;
}

}  // namespace

Result run_offline_report(const Options& options) {
  Result result;
  Timings timings;
  const std::unique_ptr<Inputs> in = set_up_repeatedly(set_up, options.seed, timings);

  core::PipelineConfig config;
  config.threads = kWorkers;
  core::ResolvePipeline pipeline(config);
  support::Xoshiro256 rng(mix(options.seed, 0x0ff));
  // View k shows 5 + 5 * (k % 10) rows plus a seeded 0..4.
  std::vector<std::size_t> tops;
  for (std::size_t k = 0; k < kQueriesPerRound; ++k)
    tops.push_back(5 + 5 * (k % 10) + rng.below(5));
  Latency latency;
  // Per round: samples folded into the reports (PC and object samples),
  // PC samples aggregated by the pipeline, and call-graph samples.
  std::uint64_t samples_per_round = 0, pc_samples_per_round = 0, graph_samples_per_round = 0;
  std::uint64_t jit_resolved = 0, jit_unresolved = 0, obj_resolved = 0, obj_samples = 0;

  Rounds rounds(options);
  while (rounds.next()) {
    const std::uint64_t t0 = now_ns();
    std::vector<Report> reports;
    for (const SimSession& sim : in->sims) reports.push_back(report(sim, pipeline));
    const double report_round_s = static_cast<double>(now_ns() - t0) / 1e9;
    timings.report_s.push_back({rounds.count(), report_round_s});

    // Interactive top-N views over the built aggregates, the same list
    // every round: view k shows session k % 3's profile, call graph and
    // memory profile, top tops[k] rows each.
    for (std::size_t k = 0; k < kQueriesPerRound; ++k) {
      const Report& r = reports[k % reports.size()];
      const std::size_t top = tops[k];
      const std::uint64_t q0 = now_ns();
      std::string answer;
      {
        Span span("core.query");
        answer = r.profile.render(kReportEvents, top) + r.graph->render(top) +
                 memprof::render_memprof(r.objects.sites, r.objects.profile, top);
      }
      latency.add(rounds.count(), static_cast<double>(now_ns() - q0) / 1e3);
      result.check(!answer.empty(), "offline top-N view rendered nothing");
    }
    rounds.end();

    samples_per_round = pc_samples_per_round = graph_samples_per_round = 0;
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const Report& r = reports[i];
      result.check(r.text == in->oracle[i],
                   "2-worker report of " + in->sims[i].id + " != serial report");
      samples_per_round += r.samples + r.objects.samples;
      pc_samples_per_round += r.samples;
      graph_samples_per_round += r.graph_samples;
      jit_resolved += r.resolver->jit_resolved();
      jit_unresolved += r.resolver->jit_unresolved();
      obj_resolved += r.objects.stats.resolved;
      obj_samples += r.objects.samples;
    }
    timings.round_rps.push_back(static_cast<double>(samples_per_round) / report_round_s);
  }

  std::printf("offline_report: %zu sessions, %zu rounds of %llu samples\n",
              in->sims.size(), rounds.count(),
              static_cast<unsigned long long>(samples_per_round));

  report_end_to_end(rounds, latency, timings, in->sims, result);
  report_span_metrics(rounds, result);
  report_ledger(rounds, result);
  const auto totals = Tracer::instance().totals(rounds.span_mark());
  const double traced = static_cast<double>(rounds.traced_count());
  const double agg_samples = traced * static_cast<double>(pc_samples_per_round);
  const double graph_samples = traced * static_cast<double>(graph_samples_per_round);
  result.layer("core.aggregate.ns_per_sample",
               agg_samples > 0 ? span_total(totals, "core.aggregate", 1.0) / agg_samples
                               : 0.0,
               "ns");
  result.layer("core.callgraph.ns_per_sample",
               graph_samples > 0 ? span_total(totals, "core.callgraph", 1.0) / graph_samples
                                 : 0.0,
               "ns");
  const double jit = static_cast<double>(jit_resolved + jit_unresolved);
  result.layer("core.resolve.unresolved_frac",
               jit > 0 ? static_cast<double>(jit_unresolved) / jit : 0.0, "ratio");
  result.layer("memprof.resolve.resolved_frac",
               obj_samples > 0 ? static_cast<double>(obj_resolved) /
                                     static_cast<double>(obj_samples)
                               : 0.0,
               "ratio");
  result.layer("count.sessions", static_cast<double>(in->sims.size()), "count");
  result.layer("count.samples", static_cast<double>(samples_per_round), "count");
  result.layer("count.records", static_cast<double>(samples_per_round), "count");
  result.layer("count.queries", static_cast<double>(latency.count()), "count");
  return result;
}

}  // namespace perfbench
