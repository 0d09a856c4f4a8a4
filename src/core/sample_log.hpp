// On-"disk" sample files: the daemon's output, the post-processor's input.
//
// One file per hardware event, mirroring OProfile's per-event sample files.
// Records carry the epoch assigned at logging time so post-processing can
// select the right code map; everything else (image, symbol) is resolved
// offline — the paper's "delay most of the work to the offline profile
// analysis stage" design.
//
// Crash-consistent framing: every record carries a per-file sequence number
// and an FNV-1a checksum. A reader never trusts a line it cannot verify —
// torn or corrupted regions are skipped and *counted* (salvage), sequence
// gaps reveal records that were dropped or lost in a crash, and duplicate
// sequence numbers (a re-tried batch that half-landed) are discarded. The
// writer keeps failed batches in a bounded in-memory spill buffer so a
// transient write error loses nothing; overflow drops are counted too.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "hw/event.hpp"
#include "hw/types.hpp"
#include "os/vfs.hpp"

namespace viprof::core {

struct LoggedSample {
  hw::Address pc = 0;
  hw::Address caller_pc = 0;
  hw::CpuMode mode = hw::CpuMode::kUser;
  hw::Pid pid = 0;
  std::uint64_t epoch = 0;
  std::uint64_t cycle = 0;
};

/// The sample-line codec, the one place that knows the line grammar
///   "<seq> <pc:hex> <caller:hex> <mode:u|k|h> <pid> <epoch> <cycle> <crc:%08x>\n"
/// where <crc> is FNV-1a over everything before its separating space. No
/// call allocates; kMaxSampleLine bounds one line.
inline constexpr std::size_t kMaxSampleLine = 128;

/// Writes one framed line into `buf`; returns it as a view into `buf`.
std::string_view format_sample_line(std::uint64_t seq, const LoggedSample& sample,
                                    char (&buf)[kMaxSampleLine]);

/// Scans the seven fields off the front of `text` and advances past them,
/// skipping whitespace before each; what follows is the caller's to judge.
/// Refuses a sign, a value too wide for its field or a bare "0x".
bool scan_sample_fields(std::string_view& text, std::uint64_t& seq, LoggedSample& out);

/// Outcome of one flush() call over all per-event files.
struct LogFlushResult {
  std::uint64_t write_errors = 0;     // appends rejected (batch retained)
  std::uint64_t torn_writes = 0;      // appends that landed torn
  std::uint64_t records_dropped = 0;  // spill-buffer overflow drops
  std::uint64_t bytes_dropped = 0;
  bool fully_flushed = true;          // false while a batch is spilled
};

class SampleLogWriter {
 public:
  SampleLogWriter(os::Vfs& vfs, std::string dir) : vfs_(&vfs), dir_(std::move(dir)) {}

  void append(hw::EventKind event, const LoggedSample& sample);

  /// Writes buffered lines out to the VFS (daemon does this per drain).
  /// Batches whose append fails are retained in the spill buffer, bounded
  /// by `spill_capacity_bytes`; the oldest records are dropped (and
  /// counted) on overflow. Safe to call again to retry a spilled batch.
  LogFlushResult flush();

  /// Crash: the in-memory spill/pending buffer is lost. Returns the number
  /// of records discarded; their sequence numbers stay consumed, so readers
  /// see the loss as a sequence gap.
  std::uint64_t discard_pending();

  /// Bytes currently buffered (pending + spilled) across all events.
  std::size_t pending_bytes() const;

  /// Spill-buffer bound; flush() drops the oldest records beyond it.
  void set_spill_capacity(std::size_t bytes) { spill_capacity_ = bytes; }

  std::uint64_t written(hw::EventKind event) const {
    return written_[hw::event_index(event)];
  }

  /// Records dropped from the spill buffer so far (all events).
  std::uint64_t spill_dropped() const { return spill_dropped_; }

  static std::string path_for(const std::string& dir, hw::EventKind event);

 private:
  os::Vfs* vfs_;
  std::string dir_;
  std::string pending_[hw::kEventKindCount];
  std::uint64_t pending_records_[hw::kEventKindCount] = {};
  std::uint64_t next_seq_[hw::kEventKindCount] = {};
  std::uint64_t written_[hw::kEventKindCount] = {};
  std::uint64_t spill_dropped_ = 0;
  std::size_t spill_capacity_ = 256 * 1024;
};

/// What the reader found in one sample file. `missing`, "empty" (valid == 0
/// with neither missing nor corrupt) and `corrupt` are distinct outcomes.
struct SampleLogReadStatus {
  bool missing = false;   // file does not exist
  bool corrupt = false;   // framing damage found (torn/overwritten bytes)
  std::uint64_t valid = 0;              // records returned to the caller
  std::uint64_t salvaged = 0;           // valid records from a damaged file
  std::uint64_t discarded_lines = 0;    // unparseable / checksum-mismatch lines
  std::uint64_t discarded_bytes = 0;
  std::uint64_t duplicate_records = 0;  // sequence numbers seen twice
  std::uint64_t missing_records = 0;    // inferred from sequence gaps
  std::uint64_t max_seq = 0;            // highest verified sequence number

  bool empty() const { return !missing && !corrupt && valid == 0; }
  bool clean() const { return !missing && !corrupt; }
};

/// Incremental parser over the sample-log line format, sharing
/// read_checked()'s exact verification and sequence accounting. Feed it
/// chunks of log text — the whole file (read_checked does) or one streamed
/// wire batch at a time (the profile service does) — and it accumulates
/// verified samples plus a running SampleLogReadStatus across calls, so a
/// stream parsed batch-by-batch reports byte-identical salvage/gap/dup
/// counts to the same bytes read as one file.
///
/// Each chunk should end on a line boundary; a trailing unterminated line
/// is treated as damage (counted, discarded), exactly as at end-of-file.
class SampleStreamParser {
 public:
  /// Parses every line in `text`, appending verified samples to `out`;
  /// `Sink` needs push_back(LoggedSample). The file reader and the service's
  /// arena-backed batch decode share this one code path for verification,
  /// salvage and sequence accounting. Explicitly instantiated in sample_log.cpp
  /// for std::vector<LoggedSample> and support::ArenaVector<LoggedSample>.
  template <typename Sink>
  void parse_into(std::string_view text, Sink& out);

  /// Accumulated status. `salvaged` is maintained (= valid when damage was
  /// seen); `missing` stays false — only file readers can observe it.
  const SampleLogReadStatus& status() const { return status_; }

  /// Next sequence number the stream should carry (dedup watermark).
  std::uint64_t next_expected() const { return next_expected_; }

 private:
  SampleLogReadStatus status_;
  std::uint64_t next_expected_ = 0;
};

class SampleLogReader {
 public:
  /// All verifiable samples of `event` under `dir`; empty if the file does
  /// not exist. Convenience wrapper over read_checked.
  static std::vector<LoggedSample> read(const os::Vfs& vfs, const std::string& dir,
                                        hw::EventKind event);

  /// Salvaging read: verifies framing record by record, skips (and counts)
  /// damage, and reports exactly what was recovered, lost and discarded.
  static std::vector<LoggedSample> read_checked(const os::Vfs& vfs,
                                                const std::string& dir,
                                                hw::EventKind event,
                                                SampleLogReadStatus& status);
};

}  // namespace viprof::core
