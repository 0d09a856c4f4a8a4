// viprof_fsck — integrity checker and recovery tool for an exported
// session directory (the e2fsck analogue for a sample tree).
//
//   viprof_fsck --in DIR [--out DIR] [--samples SUBDIR] [--quiet] [--metrics]
//
// Thin CLI over core::fsck_tree: scans every per-event sample log (record
// framing: sequence numbers + checksums) and every epoch code and object
// map (declared counts + checksum trailer), reports findings through the self-telemetry
// registry (fsck.* counters; --metrics dumps them), and — with --out —
// emits the recoverable subset. A tree with no sample log under SUBDIR is
// not a session tree: usage error, never "clean".
//
// Each layer has one fsck front end: this tool for session trees,
// `viprof_store fsck` for a profile store (DESIGN.md §11) and
// `viprof_fleet fsck` for a fleet namespace (DESIGN.md §12).
//
// Exit status mirrors the verdict:
//   0  clean          every artifact verified end to end
//   1  salvaged       damage found; every damaged artifact partly recovered
//   2  unrecoverable  some artifact yielded nothing usable
//   3  usage errors, and a missing, empty or sample-less DIR
#include <cstdio>
#include <filesystem>
#include <string>

#include "core/fsck.hpp"
#include "os/vfs.hpp"
#include "support/arg_scan.hpp"
#include "support/telemetry.hpp"

namespace {

constexpr const char* kUsage =
    "usage: viprof_fsck --in DIR [--out DIR] [--samples SUBDIR] [--quiet]\n"
    "                   [--metrics]\n"
    "  --in DIR        exported session directory to check\n"
    "  --out DIR       write the recoverable subset here\n"
    "  --samples NAME  sample subtree inside DIR (default: samples)\n"
    "  --quiet         only print the final verdict\n"
    "  --metrics       dump the fsck.* telemetry registry after the scan\n"
    "store and fleet checks: viprof_store fsck, viprof_fleet fsck\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace viprof;

  std::string in_dir;
  std::string out_dir;
  core::FsckOptions opts;
  bool quiet = false;
  bool metrics = false;
  support::ArgScan args(argc, argv, kUsage);
  while (args.next()) {
    if (args.is("--in")) in_dir = args.value();
    else if (args.is("--out")) out_dir = args.value();
    else if (args.is("--samples")) opts.samples_dir = args.value();
    else if (args.is("--quiet")) quiet = true;
    else if (args.is("--metrics")) metrics = true;
    else args.fail_unknown();
  }
  if (in_dir.empty()) args.fail();
  if (!std::filesystem::is_directory(in_dir)) {
    std::fprintf(stderr, "viprof_fsck: %s is not a directory\n", in_dir.c_str());
    return core::kFsckExitUsage;
  }

  os::Vfs vfs;
  vfs.import_from_directory(in_dir);
  if (vfs.file_count() == 0) {
    std::fprintf(stderr, "viprof_fsck: nothing under %s\n", in_dir.c_str());
    return core::kFsckExitUsage;
  }

  os::Vfs out;
  opts.write_recovery = !out_dir.empty();
  opts.verbose = !quiet;
  support::Telemetry telemetry;
  const core::FsckReport report = core::fsck_tree(vfs, &out, telemetry, opts);
  if (report.logs_scanned == 0) {
    std::fprintf(stderr, "viprof_fsck: no sample log under %s/%s\n", in_dir.c_str(),
                 opts.samples_dir.c_str());
    return core::kFsckExitUsage;
  }
  if (!quiet && !report.details.empty()) std::fputs(report.details.c_str(), stdout);
  if (opts.write_recovery) out.export_to_directory(out_dir);
  std::printf("%s%s\n", report.summary.c_str(),
              out_dir.empty() ? "" : (", recovery tree written to " + out_dir).c_str());
  if (metrics) std::fputs(report.metrics.render_text("fsck.").c_str(), stdout);
  return static_cast<int>(report.verdict);
}
