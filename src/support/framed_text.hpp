// The crc-framed text codec: the two framings every crash-consistent text
// format in the tree uses, in one place.
//
//   Whole-file trailer  the file ends with the line "crc XXXXXXXX\n", the
//                       checksum of every byte before that line, and nothing
//                       follows it (code maps, object maps, the store and
//                       fleet manifests, the service snapshot).
//   Per-line frame      every line is "body SP XXXXXXXX\n", the checksum of
//                       body (sample logs, store segments).
//
// Both read one accept set for the checksum: exactly eight hex digits
// (either case) after exactly one space, ending the line. No sign, no 0x
// prefix, no padding, no short or long digit runs. Writers emit "%08x".
//
// Which checksum is the format version, taken by every reader below as a
// FrameHash, a (hash, seed) choice:
//
//   v2  XXH32 seeded with a per-file key (frame_key) that the reader gets
//       from outside the framed bytes: the file path (event, pid, epoch),
//       the manifest entry (segment id) or the batch header (event). A line
//       or a whole file copied from another file does not verify. Every
//       writer emits v2.
//   v1  unkeyed FNV-1a, the format before v2. Read only where an older
//       build's files can still be on disk: store segments and the store
//       and fleet manifests, whose header line names the version. Anywhere
//       else a v1 file is damage, counted like any other.
//
// Whole-file formats read in one of two ways. The all-or-nothing ones
// (manifests, snapshot) go through for_each_framed_line. The map formats
// salvage through walk_framed_file: header, an optional `truncated`
// marker, item lines, the trailer; it stops at the first line that does
// not parse, so a torn or flipped file yields its longest parsing prefix.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>

#include "support/hash.hpp"
#include "support/str_scan.hpp"

namespace viprof::support {

/// Hex digits of a crc field.
inline constexpr std::size_t kCrcDigits = 8;

/// The checksum of one framed file: format v1 (FNV-1a, no seed) or v2
/// (XXH32 under the file's key).
struct FrameHash {
  enum class Version : std::uint8_t { kV1 = 1, kV2 = 2 };
  Version version = Version::kV2;
  std::uint32_t seed = 0;

  static constexpr FrameHash v1() { return {Version::kV1, 0}; }
  static constexpr FrameHash v2(std::uint32_t key) { return {Version::kV2, key}; }

  std::uint32_t operator()(const char* data, std::size_t size) const {
    return version == Version::kV1 ? fnv1a(data, size) : xxh32(data, size, seed);
  }
  std::uint32_t operator()(std::string_view bytes) const {
    return (*this)(bytes.data(), bytes.size());
  }
};

/// The kind of file a v2 key names, so two kinds never share a key.
enum class FrameKind : std::uint64_t {
  kSampleLog = 1,
  kCodeMap = 2,
  kObjectMap = 3,
  kSegment = 4,
  kStoreManifest = 5,
  kFleetManifest = 6,
  kSnapshot = 7,
};

/// The v2 key of one file: its kind and up to two identity fields (an
/// event, a pid and an epoch, a segment id), each mixed in by fmix64 and
/// the result folded to 32 bits. Persisted: never change the mixing.
inline std::uint32_t frame_key(FrameKind kind, std::uint64_t a = 0, std::uint64_t b = 0) {
  std::uint64_t h = fmix64(static_cast<std::uint64_t>(kind));
  h = fmix64(h ^ a);
  h = fmix64(h ^ b);
  return static_cast<std::uint32_t>(h ^ h >> 32);
}

/// Writes `crc` as eight lower-case hex digits at `p`; returns the end.
inline char* put_crc(char* p, std::uint32_t crc) {
  for (int shift = 28; shift >= 0; shift -= 4)
    *p++ = "0123456789abcdef"[crc >> shift & 0xf];
  return p;
}

/// Reads a crc field: exactly eight hex digits, nothing else.
inline bool scan_crc(std::string_view digits, std::uint32_t& crc) {
  if (digits.size() != kCrcDigits) return false;
  std::uint32_t v = 0;
  for (const char c : digits) {
    const int digit = hex_value(c);
    if (digit < 0) return false;
    v = v << 4 | static_cast<std::uint32_t>(digit);
  }
  crc = v;
  return true;
}

// --- Per-line frame -------------------------------------------------------

/// Appends "body SP crc\n".
inline void append_framed_line(std::string& out, std::string_view body, FrameHash hash) {
  char crc[kCrcDigits];
  put_crc(crc, hash(body));
  out += body;
  out += ' ';
  out.append(crc, kCrcDigits);
  out += '\n';
}

/// Verifies one framed line (terminator stripped) and yields its body,
/// which is never empty. False when the frame is malformed or the crc does
/// not match under `hash`; `body` is then untouched.
inline bool unframe_line(std::string_view line, FrameHash hash, std::string_view& body) {
  if (line.size() < kCrcDigits + 2) return false;
  const std::size_t crc_at = line.size() - kCrcDigits;
  std::uint32_t crc = 0;
  if (line[crc_at - 1] != ' ' || !scan_crc(line.substr(crc_at), crc)) return false;
  const std::string_view framed = line.substr(0, crc_at - 1);
  if (hash(framed) != crc) return false;
  body = framed;
  return true;
}

// --- Whole-file trailer ---------------------------------------------------

/// Appends the trailer line over everything already in `out`.
inline void append_crc_trailer(std::string& out, FrameHash hash) {
  char line[] = "crc 00000000\n";
  put_crc(line + 4, hash(out));
  out += line;
}

/// A trailer line (terminator stripped): "crc" SP eight hex digits.
inline bool scan_crc_line(std::string_view line, std::uint32_t& crc) {
  return scan_lit(line, "crc ") && scan_crc(line, crc);
}

/// Strict check: `text` ends with a trailer line whose crc, under `hash`,
/// covers every byte before it. Returns those bytes (empty or
/// '\n'-terminated), or nullopt.
inline std::optional<std::string_view> strip_crc_trailer(std::string_view text,
                                                         FrameHash hash) {
  if (text.empty() || text.back() != '\n') return std::nullopt;
  const std::size_t nl = text.rfind('\n', text.size() - 2);
  const std::size_t at = nl == std::string_view::npos ? 0 : nl + 1;
  std::uint32_t crc = 0;
  if (!scan_crc_line(text.substr(at, text.size() - 1 - at), crc) ||
      hash(text.data(), at) != crc)
    return std::nullopt;
  return text.substr(0, at);
}

/// One version of an all-or-nothing format: the header line that names it
/// and the checksum it frames with.
struct FramedVersion {
  std::string_view header;
  FrameHash hash;
};

/// The all-or-nothing reading of a trailer-framed file: true when the
/// first non-blank line is the header of one of `versions`, the trailer
/// verifies under that version's hash, and `on_line` accepts every later
/// non-blank line.
template <typename OnLine>
bool for_each_framed_line(std::string_view text,
                          std::initializer_list<FramedVersion> versions,
                          OnLine&& on_line) {
  LineCursor cursor(text);
  std::string_view line;
  while (cursor.next(line) && line.empty()) continue;
  const FramedVersion* version = nullptr;
  for (const FramedVersion& v : versions)
    if (line == v.header) version = &v;
  if (version == nullptr) return false;
  const auto body = strip_crc_trailer(text, version->hash);
  if (!body) return false;
  // The lines after the header; the header line ends inside `body`, since
  // it is not the trailer line.
  cursor = LineCursor(body->substr(text.size() - cursor.tail().size()));
  while (cursor.next(line))
    if (!line.empty() && !on_line(line)) return false;
  return true;
}

/// What walk_framed_file found.
struct FramedWalk {
  bool header_ok = false;  // the header parsed (even as an unterminated line)
  bool truncated = false;  // the `truncated` marker followed the header
  bool intact = false;     // every line parsed, the trailer verified, nothing after
  bool trailer_failed = false;  // a trailer line was reached and did not verify
  std::uint32_t trailer_crc = 0;  // the crc that trailer line reads
  std::size_t header_bytes = 0;   // the header line, '\n' included
  std::size_t body_bytes = 0;     // the bytes that trailer line covers
  std::size_t consumed = 0;  // bytes of the lines that parsed, trailer included
};

/// The salvage walk over a trailer-framed file:
///
///   header\n [truncated\n] item\n ... crc XXXXXXXX\n
///
/// `header(line)` and `item(line)` return false on a malformed line; the
/// walk stops at the first one, or at an unterminated line, since a tear
/// mid-line can leave a prefix that still parses. An unterminated header is
/// still offered to `header` (the epoch in it is worth having) but nothing
/// after it is read.
template <typename Header, typename Item>
FramedWalk walk_framed_file(std::string_view text, FrameHash hash, Header&& header,
                            Item&& item) {
  FramedWalk w;
  LineCursor cursor(text);
  std::string_view line;
  if (!cursor.next(line)) {
    w.header_ok = !cursor.tail().empty() && header(cursor.tail());
    return w;
  }
  if (!header(line)) return w;
  w.header_ok = true;
  w.header_bytes = w.consumed = line.size() + 1;
  bool first = true;
  while (cursor.next(line)) {
    std::uint32_t crc = 0;
    if (scan_crc_line(line, crc)) {
      w.trailer_crc = crc;
      w.body_bytes = w.consumed;
      w.trailer_failed = hash(text.data(), w.consumed) != crc;
      w.intact = !w.trailer_failed && w.consumed + line.size() + 1 == text.size();
      w.consumed += line.size() + 1;
      return w;
    }
    if (first && line == "truncated") {
      w.truncated = true;
    } else if (!item(line)) {
      return w;
    }
    first = false;
    w.consumed += line.size() + 1;
  }
  return w;
}

/// Whether the items a walk read may be used. A torn file (no trailer
/// reached) keeps its parsing prefix, and a verified trailer vouches for
/// every line. A whole file whose trailer fails is foreign (framed under
/// another key, or v1) or flipped where no line parse can see it, so its
/// items count only when the trailer verifies with the header line
/// replaced by `header`, the header the file's name vouches for: a flipped
/// header field that the name repairs.
inline bool walked_items_usable(std::string_view text, const FramedWalk& w,
                                FrameHash hash, std::string_view header) {
  if (!w.trailer_failed) return true;
  std::string repaired(header);
  repaired += '\n';
  repaired += text.substr(w.header_bytes, w.body_bytes - w.header_bytes);
  return hash(repaired) == w.trailer_crc;
}

}  // namespace viprof::support
