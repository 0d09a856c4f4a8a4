// Segment files: the store's on-disk unit, framed for salvage.
//
// A segment is an append-only text file of records using the §7 framing
// discipline (sample_log.hpp): every line is `body SP crc8hex`, lines carry
// strictly increasing sequence numbers, and a reader verifies each line
// independently — a torn tail or flipped bit costs exactly the damaged
// lines, never the file. The crc is framed-text v2, keyed by the segment
// id the reader takes from the manifest entry or the file name, so a line
// spliced in from another segment fails like a torn one. A v1 segment
// (unkeyed FNV-1a, from an older build) still reads: its header says so.
// Record types:
//
//   <seq> H viprof-segment v2 <segment_id>          file header (seq 0)
//   <seq> D <id>\t<string>                          dictionary entry
//   <seq> I <tlo> <thi> <elo> <ehi> <pid> <fseq> <rows>\t<session>
//   <seq> R <domain> <c0>..<c4> <img_id> <sym_id>   one profile row
//   <seq> S <interval_count>                        seal record
//
// Image and symbol names are interned once per segment (D records); rows
// reference them by id, so a method signature is stored once per segment,
// not once per row. An interval *commits* only when every one of its
// declared rows verified and every referenced dictionary id resolved;
// otherwise the whole interval is dropped and counted — loss is always
// accounted, never silent.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "store/interval.hpp"
#include "support/framed_text.hpp"

namespace viprof::store {

/// Builds the framed bytes of one segment incrementally. The caller appends
/// the returned chunks to the segment file in order; the writer owns the
/// line sequence numbers and the string-intern dictionary.
class SegmentWriter {
 public:
  explicit SegmentWriter(std::uint64_t segment_id);

  /// The header line; append this first (returned once, by value).
  std::string header();

  /// Frames `iv`: new dictionary entries, the interval record, one row
  /// record per profile row. Returns the bytes to append.
  std::string encode_interval(const IntervalProfile& iv);

  /// The seal record; a sealed segment is immutable from then on.
  std::string encode_seal(std::uint64_t interval_count);

 private:
  std::string frame(const std::string& body);
  std::uint64_t intern(support::Name name, std::string& out);

  std::uint64_t segment_id_;
  support::FrameHash hash_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_dict_id_ = 0;
  /// Process-wide name -> this segment's dictionary id, numbered in
  /// first-use order (never in interner-id order).
  std::unordered_map<support::Name, std::uint64_t> dict_;
};

/// Everything a read of one segment file yields: the committed intervals
/// plus an exact account of what did not survive.
struct SegmentSalvage {
  bool header_ok = false;
  bool sealed = false;
  std::uint64_t segment_id = 0;
  std::uint64_t seal_declared = 0;     // interval count in the S record

  std::uint64_t lines_valid = 0;
  std::uint64_t lines_discarded = 0;   // failed checksum / unparseable
  std::uint64_t duplicate_lines = 0;   // repeated seq, discarded
  std::uint64_t gap_lines = 0;         // inferred missing from seq gaps

  std::uint64_t intervals_salvaged = 0;
  std::uint64_t intervals_dropped = 0;  // seen but incomplete/unresolvable
  std::uint64_t rows_salvaged = 0;
  std::uint64_t rows_dropped = 0;       // declared rows of dropped intervals

  std::vector<IntervalProfile> intervals;

  /// No damage of any kind (a clean unsealed segment is still clean).
  bool clean() const {
    return header_ok && lines_discarded == 0 && duplicate_lines == 0 &&
           gap_lines == 0 && intervals_dropped == 0 &&
           (!sealed || seal_declared == intervals_salvaged);
  }
};

/// The frame hash of segment `id`'s lines.
support::FrameHash segment_frame_hash(std::uint64_t id);

/// Verifies and decodes a segment file, skipping and counting damage.
/// `segment_id` is the segment the caller expects (from the manifest or the
/// file name) and keys every v2 line. With no id known, the id the header
/// line names is used, unverified, as the key: only lines that verify under
/// it count. The file reads as v1 when its first verifying line (the
/// header, unless that is damaged) is a v1 frame.
SegmentSalvage read_segment(const std::string& contents,
                            std::optional<std::uint64_t> segment_id);

}  // namespace viprof::store
