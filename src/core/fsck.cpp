#include "core/fsck.hpp"

#include <optional>
#include <vector>

#include "core/code_map.hpp"
#include "core/object_map.hpp"
#include "core/sample_log.hpp"
#include "hw/event.hpp"
#include "support/check.hpp"
#include "support/format.hpp"

namespace viprof::core {

namespace {

std::string basename_of(const std::string& path) {
  const auto slash = path.rfind('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::string u64(std::uint64_t v) { return std::to_string(v); }

/// The pid a map's path keys it by (0 when the path names none, as salvage_file reads it).
hw::Pid pid_of(const std::string& path) { return pid_from_map_path(path).value_or(0); }

}  // namespace

FsckReport fsck_tree(const os::Vfs& in, os::Vfs* out, support::Telemetry& telemetry,
                     const FsckOptions& opts) {
  if (opts.write_recovery) VIPROF_CHECK(out != nullptr);
  FsckReport report;

  support::Counter& ctr_valid = telemetry.counter("fsck.samples.valid");
  support::Counter& ctr_salvaged = telemetry.counter("fsck.samples.salvaged");
  support::Counter& ctr_discarded = telemetry.counter("fsck.samples.discarded_lines");
  support::Counter& ctr_missing = telemetry.counter("fsck.samples.missing");
  support::Counter& ctr_duplicates = telemetry.counter("fsck.samples.duplicates");
  support::Counter& ctr_dead_logs = telemetry.counter("fsck.logs.unrecoverable");
  support::Counter& ctr_maps_intact = telemetry.counter("fsck.maps.intact");
  support::Counter& ctr_maps_truncated = telemetry.counter("fsck.maps.truncated");
  support::Counter& ctr_map_entries = telemetry.counter("fsck.maps.entries_salvaged");
  support::Counter& ctr_dead_maps = telemetry.counter("fsck.maps.unrecoverable");
  support::Counter& ctr_omaps_intact = telemetry.counter("fsck.omaps.intact");
  support::Counter& ctr_omaps_truncated = telemetry.counter("fsck.omaps.truncated");
  support::Counter& ctr_objects_salvaged = telemetry.counter("fsck.omaps.objects_salvaged");
  support::Counter& ctr_objects_lost = telemetry.counter("fsck.omaps.objects_lost");
  support::Counter& ctr_deaths_salvaged = telemetry.counter("fsck.omaps.deaths_salvaged");
  support::Counter& ctr_deaths_lost = telemetry.counter("fsck.omaps.deaths_lost");
  support::Counter& ctr_dead_omaps = telemetry.counter("fsck.omaps.unrecoverable");

  // --- Sample logs: one file per event, verified record by record ---------
  std::optional<SampleLogWriter> rewriter;
  if (opts.write_recovery) rewriter.emplace(*out, opts.samples_dir);
  std::vector<std::string> rewritten_paths;
  for (hw::EventKind event : hw::kAllEventKinds) {
    SampleLogReadStatus st;
    const auto samples = SampleLogReader::read_checked(in, opts.samples_dir, event, st);
    if (st.missing) continue;
    const std::string path = SampleLogWriter::path_for(opts.samples_dir, event);
    rewritten_paths.push_back(path);
    ++report.logs_scanned;
    report.valid_records += st.valid;
    report.salvaged_records += st.salvaged;
    report.discarded_lines += st.discarded_lines;
    report.missing_records += st.missing_records;
    report.duplicate_records += st.duplicate_records;
    if (!st.clean()) {
      report.corrupt = true;
      // A corrupt log that kept *nothing* verifiable is a total loss: the
      // event's profile cannot be reconstructed at all.
      if (st.valid == 0 && st.discarded_lines > 0) ++report.dead_logs;
    }
    if (opts.verbose) {
      report.details += path + ' ' + (st.clean() ? "clean" : "CORRUPT") + ": " +
                        u64(st.valid) + " valid";
      if (!st.clean()) {
        report.details += ", " + u64(st.salvaged) + " salvaged, " +
                          u64(st.discarded_lines) + " line(s) discarded (" +
                          u64(st.discarded_bytes) + " bytes)";
      }
      if (st.missing_records != 0)
        report.details += ", " + u64(st.missing_records) + " missing (sequence gaps)";
      if (st.duplicate_records != 0)
        report.details += ", " + u64(st.duplicate_records) + " duplicate(s) dropped";
      report.details += '\n';
    }
    if (opts.write_recovery) {
      for (const LoggedSample& s : samples) rewriter->append(event, s);
    }
  }
  if (opts.write_recovery) rewriter->flush();

  // --- Epoch code maps: entry count + checksum trailer --------------------
  for (const std::string& path : in.list("")) {
    if (basename_of(path).rfind("map.", 0) != 0) continue;
    const auto contents = in.read(path);
    const CodeMapFile::Recovery rec = CodeMapFile::salvage_file(path, *contents);
    if (rec.intact) {
      ++report.maps_intact;
    } else {
      ++report.maps_truncated;
      report.map_entries_salvaged += rec.file.entries.size();
      report.corrupt = true;
      if (rec.file.entries.empty() && rec.entries_expected > 0) ++report.dead_maps;
      if (opts.verbose) {
        report.details += path + " CORRUPT: salvaged " + u64(rec.file.entries.size()) +
                          " of " + u64(rec.entries_expected) + " entries (epoch " +
                          u64(rec.file.epoch) +
                          (rec.header_ok ? ")" : ", epoch from file name)") + '\n';
      }
    }
    if (opts.write_recovery) out->write(path, rec.file.serialize(pid_of(path)));
  }

  // --- Epoch object maps: declared counts + checksum trailer ---------------
  for (const std::string& path : in.list("")) {
    if (basename_of(path).rfind("omap.", 0) != 0) continue;
    const auto contents = in.read(path);
    const ObjectMapFile::Recovery rec = ObjectMapFile::salvage_file(path, *contents);
    if (rec.intact) {
      ++report.omaps_intact;
      continue;  // copied verbatim below
    }
    ++report.omaps_truncated;
    report.corrupt = true;
    if (!rec.header_ok) {
      // Nothing verifiable, not even the declared counts: the epoch is a
      // total loss and only the file name says it existed.
      ++report.dead_omaps;
      if (opts.verbose)
        report.details += path + " CORRUPT: no readable header (epoch " +
                          u64(rec.file.epoch) + " from file name)\n";
    } else {
      const std::uint64_t obj_got = rec.file.objects.size();
      const std::uint64_t dead_got = rec.file.dead.size();
      report.objects_salvaged += obj_got;
      report.objects_lost += rec.objects_expected - obj_got;
      report.deaths_salvaged += dead_got;
      report.deaths_lost += rec.dead_expected - dead_got;
      if (obj_got == 0 && dead_got == 0 &&
          (rec.objects_expected > 0 || rec.dead_expected > 0)) {
        ++report.dead_omaps;
      }
      if (opts.verbose) {
        report.details += path + " CORRUPT: salvaged " + u64(obj_got) + " of " +
                          u64(rec.objects_expected) + " object(s), " + u64(dead_got) +
                          " of " + u64(rec.dead_expected) + " death(s) (epoch " +
                          u64(rec.file.epoch) + ")\n";
      }
    }
    // The salvaged prefix keeps its truncated marker through the round
    // trip, so resolution against the recovery tree still refuses to walk
    // past this epoch.
    if (opts.write_recovery) out->write(path, rec.file.serialize(pid_of(path)));
  }

  // --- Everything else (manifest, RVM.map, reports) copies verbatim -------
  if (opts.write_recovery) {
    for (const std::string& path : in.list("")) {
      if (out->exists(path)) continue;  // already rewritten above
      bool handled = false;
      for (const std::string& p : rewritten_paths) handled = handled || p == path;
      if (!handled) out->write(path, *in.read(path));
    }
  }

  report.verdict = !report.corrupt ? FsckVerdict::kClean
                   : (report.dead_logs != 0 || report.dead_maps != 0 ||
                      report.dead_omaps != 0)
                       ? FsckVerdict::kUnrecoverable
                       : FsckVerdict::kSalvaged;

  ctr_valid.inc(report.valid_records);
  ctr_salvaged.inc(report.salvaged_records);
  ctr_discarded.inc(report.discarded_lines);
  ctr_missing.inc(report.missing_records);
  ctr_duplicates.inc(report.duplicate_records);
  ctr_dead_logs.inc(report.dead_logs);
  ctr_maps_intact.inc(report.maps_intact);
  ctr_maps_truncated.inc(report.maps_truncated);
  ctr_map_entries.inc(report.map_entries_salvaged);
  ctr_dead_maps.inc(report.dead_maps);
  ctr_omaps_intact.inc(report.omaps_intact);
  ctr_omaps_truncated.inc(report.omaps_truncated);
  ctr_objects_salvaged.inc(report.objects_salvaged);
  ctr_objects_lost.inc(report.objects_lost);
  ctr_deaths_salvaged.inc(report.deaths_salvaged);
  ctr_deaths_lost.inc(report.deaths_lost);
  ctr_dead_omaps.inc(report.dead_omaps);
  telemetry.gauge("fsck.verdict").set(static_cast<double>(report.verdict));
  report.metrics = telemetry.snapshot();

  report.summary = std::string(to_string(report.verdict)) + ": " +
                   u64(report.valid_records) + " valid sample(s) (" +
                   u64(report.salvaged_records) + " salvaged), " +
                   u64(report.discarded_lines) + " discarded, " +
                   u64(report.missing_records) + " missing, " +
                   u64(report.duplicate_records) + " duplicate(s); " +
                   u64(report.maps_intact) + " map(s) intact, " +
                   u64(report.maps_truncated) + " truncated (" +
                   u64(report.map_entries_salvaged) + " entries salvaged)";
  if (report.omaps_intact + report.omaps_truncated > 0) {
    report.summary += "; " + u64(report.omaps_intact) + " object map(s) intact, " +
                      u64(report.omaps_truncated) + " truncated (" +
                      u64(report.objects_salvaged) + " object(s) salvaged, " +
                      u64(report.objects_lost) + " lost)";
  }
  return report;
}

}  // namespace viprof::core
