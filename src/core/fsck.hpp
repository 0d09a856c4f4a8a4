// Integrity scan of an exported session tree — the library behind
// viprof_fsck (the e2fsck analogue for a sample tree).
//
// Scans three file kinds: every per-event sample log (record framing:
// sequence numbers + checksums), every epoch code map and every epoch
// object map (declared counts + checksum trailer). It reports findings
// through the self-telemetry registry (fsck.* counters, DESIGN.md §8) and
// classifies the whole tree:
//
//   kClean         — every artifact verified end to end;
//   kSalvaged      — damage found, but every damaged artifact yielded at
//                    least part of its content (degraded, usable);
//   kUnrecoverable — some damaged artifact yielded nothing usable (a sample
//                    log with no verifiable record, a map with no
//                    salvageable entry, an object map with no readable
//                    header or nothing salvaged of what it declared).
//
// The verdict values double as the viprof_fsck exit codes; usage errors
// exit with kFsckExitUsage.
#pragma once

#include <cstdint>
#include <string>

#include "os/vfs.hpp"
#include "support/telemetry.hpp"

namespace viprof::core {

enum class FsckVerdict : std::uint8_t { kClean = 0, kSalvaged = 1, kUnrecoverable = 2 };

inline const char* to_string(FsckVerdict v) {
  switch (v) {
    case FsckVerdict::kClean:         return "clean";
    case FsckVerdict::kSalvaged:      return "salvaged";
    case FsckVerdict::kUnrecoverable: return "unrecoverable";
  }
  return "?";
}

/// viprof_fsck exit codes: the verdict value verbatim, plus usage errors.
inline constexpr int kFsckExitClean = 0;
inline constexpr int kFsckExitSalvaged = 1;
inline constexpr int kFsckExitUnrecoverable = 2;
inline constexpr int kFsckExitUsage = 3;

struct FsckOptions {
  std::string samples_dir = "samples";
  /// Emit the recoverable subset into `out` (sample logs re-framed from
  /// their verified records, code maps re-serialised, damaged object maps
  /// rewritten as their salvaged prefix, everything else copied verbatim).
  bool write_recovery = false;
  /// Per-file findings appended to FsckReport::details.
  bool verbose = true;
};

struct FsckReport {
  FsckVerdict verdict = FsckVerdict::kClean;
  bool corrupt = false;  // any damage at all (verdict != kClean)

  // Sample logs.
  std::uint64_t logs_scanned = 0;
  std::uint64_t valid_records = 0;
  std::uint64_t salvaged_records = 0;
  std::uint64_t discarded_lines = 0;
  std::uint64_t missing_records = 0;
  std::uint64_t duplicate_records = 0;
  std::uint64_t dead_logs = 0;  // corrupt logs with nothing verifiable

  // Epoch code maps.
  std::uint64_t maps_intact = 0;
  std::uint64_t maps_truncated = 0;
  std::uint64_t map_entries_salvaged = 0;
  std::uint64_t dead_maps = 0;  // truncated maps with zero salvaged entries

  // Epoch object maps. Over damaged maps with a readable header the loss is
  // exact: objects_salvaged + objects_lost == the headers' declared object
  // counts (what the writing agent acked), and likewise for deaths.
  std::uint64_t omaps_intact = 0;
  std::uint64_t omaps_truncated = 0;
  std::uint64_t objects_salvaged = 0;
  std::uint64_t objects_lost = 0;
  std::uint64_t deaths_salvaged = 0;
  std::uint64_t deaths_lost = 0;
  std::uint64_t dead_omaps = 0;  // damaged object maps that yielded nothing

  std::string details;  // per-file findings (verbose mode)
  std::string summary;  // one-line verdict summary

  /// Registry view of the findings above (fsck.* namespace), for
  /// viprof_stat and the tests.
  support::TelemetrySnapshot metrics;
};

/// Scans the tree in `in`. When opts.write_recovery, the recoverable subset
/// is written into `out` (must be non-null then). Findings are reported
/// through `telemetry` (fsck.* counters) and mirrored in the returned report.
FsckReport fsck_tree(const os::Vfs& in, os::Vfs* out, support::Telemetry& telemetry,
                     const FsckOptions& opts = {});

}  // namespace viprof::core
