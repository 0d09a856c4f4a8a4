// On-"disk" sample files: the daemon's output, the post-processor's input.
//
// One file per hardware event, mirroring OProfile's per-event sample files.
// Records carry the epoch assigned at logging time so post-processing can
// select the right code map; everything else (image, symbol) is resolved
// offline — the paper's "delay most of the work to the offline profile
// analysis stage" design.
//
// Crash-consistent framing: every record carries a per-file sequence number
// and a checksum keyed by its event (framed-text v2, sample_line_hash), so a
// line copied into another event's log, or into a streamed batch whose
// header names another event, fails like a torn one. A reader never trusts
// a line it cannot verify —
// torn or corrupted regions are skipped and *counted* (salvage), sequence
// numbers never seen reveal records that were dropped or lost in a crash,
// and a sequence number seen before (a re-tried batch that half-landed) is
// a discarded duplicate. The writer keeps failed batches in a bounded
// in-memory spill buffer so a transient write error loses nothing; overflow
// drops are counted too.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "hw/event.hpp"
#include "hw/types.hpp"
#include "os/vfs.hpp"
#include "support/framed_text.hpp"

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
/// where <crc> is the line's FrameHash over everything before its
/// separating space. No call allocates; kMaxSampleLine bounds one line.
inline constexpr std::size_t kMaxSampleLine = 128;

/// The frame hash of `event`'s sample lines: v2, keyed by the event, which
/// a reader takes from the file name or the batch header.
support::FrameHash sample_line_hash(hw::EventKind event);

/// Writes one line framed under `hash` into `buf`; returns it as a view
/// into `buf`.
std::string_view format_sample_line(std::uint64_t seq, const LoggedSample& sample,
                                    support::FrameHash hash, char (&buf)[kMaxSampleLine]);

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

/// The sequence numbers one sample stream has delivered: sorted, disjoint,
/// non-touching runs of consecutive numbers. Only membership is kept, so the
/// same records arriving in any order leave the same set, and the dedup rule
/// "a record counts iff its seq is new" commutes across chunks, readers and
/// ingest workers. Extending the last run is O(1), and the first two runs
/// live inline: an in-order stream with one gap never touches the heap.
class SeqSet {
 public:
  /// Adds `seq`; false when it was present already.
  bool insert(std::uint64_t seq) { return insert_run(seq, seq); }

  /// Adds every seq of [first, last] when none of them is present; else
  /// changes nothing and returns false.
  bool insert_run(std::uint64_t first, std::uint64_t last) {
    if (n_ != 0) {
      Run& tail = runs()[n_ - 1];
      if (first > tail.last && first - tail.last == 1) {
        tail.last = last;
        distinct_ += last - first + 1;
        return true;
      }
    }
    return insert_run_slow(first, last);
  }

  std::uint64_t distinct() const { return distinct_; }
  /// Highest seq present; 0 when empty.
  std::uint64_t max() const { return n_ == 0 ? 0 : runs()[n_ - 1].last; }
  std::size_t run_count() const { return n_; }

 private:
  struct Run {
    std::uint64_t first = 0, last = 0;  // inclusive
  };
  static constexpr std::size_t kInline = 2;

  Run* runs() { return heap_.empty() ? inline_ : heap_.data(); }
  const Run* runs() const { return heap_.empty() ? inline_ : heap_.data(); }
  bool insert_run_slow(std::uint64_t first, std::uint64_t last);

  Run inline_[kInline];
  std::vector<Run> heap_;  // every run, once there were more than kInline
  std::size_t n_ = 0;
  std::uint64_t distinct_ = 0;
};

/// Lines refused while verifying sample text. Sums, so chunks verified on
/// any thread, in any order, add up exactly.
struct SampleLineDamage {
  std::uint64_t lines = 0;
  std::uint64_t bytes = 0;
};

/// Verifies every line of `text` under `hash` against no stream state: a
/// verified record goes to `out` and its seq to `seqs`; a torn, unframed,
/// foreign-keyed or malformed line (an unterminated tail too) is skipped
/// and counted in `damage`. Instantiated for the service's ArenaVector
/// sinks; pair it with SampleStreamParser::admit.
template <typename Sink, typename SeqSink>
void decode_sample_lines(std::string_view text, support::FrameHash hash, Sink& out,
                         SeqSink& seqs, SampleLineDamage& damage);

/// Incremental parser over the sample-log line format, sharing
/// read_checked()'s exact verification and sequence accounting. Feed it
/// chunks of log text — the whole file (read_checked does) or one streamed
/// wire batch at a time (the profile service does) — and it accumulates
/// verified samples plus a running SampleLogReadStatus across calls. A
/// record counts iff its seq is new to the stream's SeqSet, so any split of
/// the same lines into chunks, admitted in any order, reports the same
/// counts as the bytes read as one file: missing = max_seq + 1 - distinct.
///
/// Each chunk should end on a line boundary; a trailing unterminated line
/// is treated as damage (counted, discarded), exactly as at end-of-file.
class SampleStreamParser {
 public:
  /// Parses every line in `text`, verified under `hash`, appending
  /// verified samples whose seq is new to `out`; `Sink` needs
  /// push_back(LoggedSample). Explicitly instantiated in sample_log.cpp for
  /// std::vector<LoggedSample> and support::ArenaVector<LoggedSample>.
  template <typename Sink>
  void parse_into(std::string_view text, support::FrameHash hash, Sink& out);

  /// Admits one chunk decode_sample_lines verified elsewhere: keeps, in
  /// order and compacted to the front of `samples`, the records whose seq
  /// is new, counts the rest as duplicates and adds `damage`. Returns how
  /// many were kept. One SeqSet insert per run of consecutive seqs.
  std::size_t admit(std::span<LoggedSample> samples, std::span<const std::uint64_t> seqs,
                    const SampleLineDamage& damage);

  /// Accumulated status. `salvaged` = valid once damage was seen;
  /// `missing` stays false — only file readers can observe it.
  SampleLogReadStatus status() const;

 private:
  SeqSet seen_;
  SampleLineDamage damage_;
  std::uint64_t duplicates_ = 0;
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
