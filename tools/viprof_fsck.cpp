// viprof_fsck — integrity checker and recovery tool for an exported
// session directory (the e2fsck analogue for a sample tree).
//
//   viprof_fsck --in DIR [--out DIR] [--samples SUBDIR] [--quiet] [--metrics]
//   viprof_fsck --in DIR --store [--out DIR] [--quiet]
//   viprof_fsck --in DIR --fleet [--quiet]
//
// Thin CLI over core::fsck_tree: scans every per-event sample log (record
// framing: sequence numbers + checksums) and every epoch code and object
// map (declared counts + checksum trailer), reports findings through the self-telemetry
// registry (fsck.* counters; --metrics dumps them), and — with --out —
// emits the recoverable subset.
//
// --store switches to the persistent profile store layout (DESIGN.md §11):
// the crc-guarded manifest and §7-framed segment files are checked through
// store::ProfileStore::fsck, and --out writes the repaired store.
//
// --fleet switches to a fleet namespace (DESIGN.md §12): the crc-guarded
// fleet manifest is parsed, every shard partition is walked through store
// recovery, and the degradation ledger is audited — the check fails unless
// acked == stored + lost exactly and the stored total matches what the
// partitions actually hold.
//
// Exit status mirrors the verdict:
//   0  clean          every artifact verified end to end
//   1  salvaged       damage found; every damaged artifact partly recovered
//   2  unrecoverable  some artifact yielded nothing usable
//   3  usage errors
#include <cstdio>
#include <filesystem>
#include <string>

#include "core/fsck.hpp"
#include "fleet/fsck.hpp"
#include "os/vfs.hpp"
#include "store/profile_store.hpp"
#include "support/arg_scan.hpp"
#include "support/telemetry.hpp"

namespace {

constexpr const char* kUsage =
    "usage: viprof_fsck --in DIR [--out DIR] [--samples SUBDIR] [--quiet]\n"
    "                   [--metrics]\n"
    "       viprof_fsck --in DIR --store [--out DIR] [--quiet]\n"
    "       viprof_fsck --in DIR --fleet [--quiet]\n"
    "  --in DIR        exported session directory to check\n"
    "  --out DIR       write the recoverable subset here\n"
    "  --samples NAME  sample subtree inside DIR (default: samples)\n"
    "  --store         DIR is a persistent profile store (manifest +\n"
    "                  segment files) rather than a sample tree\n"
    "  --fleet         DIR is a fleet namespace: fleet manifest + one store\n"
    "                  partition per shard; audits the degradation ledger\n"
    "  --quiet         only print the final verdict\n"
    "  --metrics       dump the fsck.* telemetry registry after the scan\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace viprof;

  std::string in_dir;
  std::string out_dir;
  core::FsckOptions opts;
  bool quiet = false;
  bool metrics = false;
  bool store_layout = false;
  bool fleet_layout = false;
  support::ArgScan args(argc, argv, kUsage);
  while (args.next()) {
    if (args.is("--in")) in_dir = args.value();
    else if (args.is("--out")) out_dir = args.value();
    else if (args.is("--samples")) opts.samples_dir = args.value();
    else if (args.is("--store")) store_layout = true;
    else if (args.is("--fleet")) fleet_layout = true;
    else if (args.is("--quiet")) quiet = true;
    else if (args.is("--metrics")) metrics = true;
    else args.fail_unknown();
  }
  if (in_dir.empty()) args.fail();
  if (store_layout && fleet_layout) args.fail();
  if (!std::filesystem::is_directory(in_dir)) {
    std::fprintf(stderr, "viprof_fsck: %s is not a directory\n", in_dir.c_str());
    return support::kExitUsage;
  }

  os::Vfs vfs;
  vfs.import_from_directory(in_dir);
  if (vfs.file_count() == 0) {
    std::fprintf(stderr, "viprof_fsck: nothing under %s\n", in_dir.c_str());
    return support::kExitUsage;
  }

  if (fleet_layout) {
    const fleet::FleetFsckReport report = fleet::fsck_fleet(vfs);
    if (!quiet && !report.details.empty()) std::fputs(report.details.c_str(), stdout);
    std::printf("%s\n", report.summary.c_str());
    return static_cast<int>(report.verdict);
  }

  if (store_layout) {
    store::StoreConfig config;
    config.root = "";  // --in DIR is the store root
    store::ProfileStore st(vfs, config);
    // Without --out this is a read-only dry run; with --out, open() applies
    // the repairs inside the Vfs and the repaired store is exported whole.
    const store::StoreRecovery rec = out_dir.empty() ? st.fsck() : st.open();
    const bool recovered =
        !out_dir.empty() && rec.verdict != core::FsckVerdict::kUnrecoverable;
    if (recovered) vfs.export_to_directory(out_dir);
    if (!quiet && !rec.details.empty()) std::fputs(rec.details.c_str(), stdout);
    std::printf("%s%s\n", rec.summary.c_str(),
                recovered ? (", repaired store written to " + out_dir).c_str() : "");
    return static_cast<int>(rec.verdict);
  }

  os::Vfs out;
  opts.write_recovery = !out_dir.empty();
  opts.verbose = !quiet;
  support::Telemetry telemetry;
  const core::FsckReport report = core::fsck_tree(vfs, &out, telemetry, opts);
  if (!quiet && !report.details.empty()) std::fputs(report.details.c_str(), stdout);
  if (opts.write_recovery) out.export_to_directory(out_dir);
  std::printf("%s%s\n", report.summary.c_str(),
              out_dir.empty() ? "" : (", recovery tree written to " + out_dir).c_str());
  if (metrics) std::fputs(report.metrics.render_text("fsck.").c_str(), stdout);
  return static_cast<int>(report.verdict);
}
