// viprof_report — offline post-processing over an exported session
// directory (the opreport analogue). Works purely from files: the archive
// manifest, RVM.map, the epoch code maps and the per-event sample logs.
//
//   viprof_report --in /tmp/session [--top 20] [--threads N] [--oprofile-view]
#include <cstdio>
#include <string>

#include "core/annotate.hpp"
#include "core/archive.hpp"
#include "core/report.hpp"
#include "core/resolve_pipeline.hpp"
#include "core/sample_log.hpp"
#include "memprof/report.hpp"
#include "os/vfs.hpp"
#include "support/arg_scan.hpp"

namespace {

constexpr const char* kUsage =
    "usage: viprof_report --in DIR [--top N] [--threads N]\n"
    "                     [--oprofile-view] [--annotate IMAGE:SYMBOL]\n"
    "  --threads N resolves samples on N worker threads\n"
    "  (0 = one per hardware thread); output is identical.\n"
    "  --oprofile-view resolves as stock OProfile would\n"
    "  (anon ranges, opaque boot image) for comparison.\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace viprof;

  std::string in_dir;
  std::string annotate_target;
  std::size_t top = 20;
  std::size_t threads = 1;
  bool vm_aware = true;
  support::ArgScan args(argc, argv, kUsage);
  while (args.next()) {
    if (args.is("--in")) in_dir = args.value();
    else if (args.is("--top")) top = args.value_u64();
    else if (args.is("--threads")) threads = args.value_u64();
    else if (args.is("--oprofile-view")) vm_aware = false;
    else if (args.is("--annotate")) annotate_target = args.value();
    else args.fail_unknown();
  }
  if (in_dir.empty()) args.fail();

  os::Vfs vfs;
  vfs.import_from_directory(in_dir);
  const core::ArchiveResolver resolver(vfs, "archive", vm_aware);

  core::Profile profile;
  const std::vector<hw::EventKind>& events = core::kReportEvents;
  // The ArchiveResolver keeps no outcome tallies; the pipeline's per-shard
  // stats are discarded.
  core::ResolvePipeline pipeline(core::PipelineConfig{threads});
  const auto resolve_fn = [&resolver](const core::LoggedSample& s,
                                      core::ResolveStats&) {
    return resolver.resolve(s);
  };
  std::vector<core::LoggedSample> time_samples;  // kept for --annotate
  std::uint64_t total = 0;
  for (hw::EventKind event : events) {
    std::vector<core::LoggedSample> samples =
        core::SampleLogReader::read(vfs, "samples", event);
    total += samples.size();
    pipeline.aggregate_profile(samples, event, resolve_fn, profile);
    if (event == hw::EventKind::kGlobalPowerEvents) time_samples = std::move(samples);
  }
  // Object-centric memory profile (DESIGN.md §15): DMISS_OBJ samples
  // resolved against the epoch object maps, ranked per allocation site.
  const memprof::ObjectReport obj =
      memprof::build_object_report(vfs, "samples", resolver.registrations());

  if (total == 0 && obj.samples == 0) {
    std::fprintf(stderr, "no samples under %s/samples\n", in_dir.c_str());
    return 1;
  }

  if (total != 0) {
    std::printf("%llu samples, %zu images, %zu processes (%s view)\n\n",
                static_cast<unsigned long long>(total), resolver.image_count(),
                resolver.process_count(), vm_aware ? "VIProf" : "stock OProfile");
    std::printf("%s", profile.render(events, top).c_str());
  }

  if (obj.samples != 0 || !obj.sites.sites().empty()) {
    std::printf("%s-- memory profile (%llu object samples) --\n%s",
                total != 0 ? "\n" : "", static_cast<unsigned long long>(obj.samples),
                memprof::render_memprof(obj.sites, obj.profile, top).c_str());
  }

  if (!annotate_target.empty()) {
    const auto colon = annotate_target.find(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "--annotate wants IMAGE:SYMBOL\n");
      return support::kExitUsage;
    }
    // Reuse the already-read time samples instead of re-reading the log.
    const core::Annotation ann = core::annotate(
        time_samples, [&](const core::LoggedSample& s) { return resolver.resolve(s); },
        annotate_target.substr(0, colon), annotate_target.substr(colon + 1));
    std::printf("\n-- annotation (time samples) --\n%s", ann.render().c_str());
  }
  return 0;
}
