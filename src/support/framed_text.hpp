// The crc-framed text codec: the two framings every crash-consistent text
// format in the tree uses, in one place.
//
//   Whole-file trailer  the file ends with the line "crc XXXXXXXX\n", the
//                       FNV-1a of every byte before that line, and nothing
//                       follows it (code maps, object maps, the store and
//                       fleet manifests, the service snapshot).
//   Per-line frame      every line is "body SP XXXXXXXX\n", the FNV-1a of
//                       body (sample logs, store segments).
//
// Both read one accept set for the checksum: exactly eight hex digits
// (either case) after exactly one space, ending the line. No sign, no 0x
// prefix, no padding, no short or long digit runs. Writers emit "%08x".
//
// Whole-file formats read in one of two ways. The all-or-nothing ones
// (manifests, snapshot) go through for_each_framed_line. The map formats
// salvage through walk_framed_file: header, an optional `truncated`
// marker, item lines, the trailer; it stops at the first line that does
// not parse, so a torn or flipped file yields its longest parsing prefix.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "support/hash.hpp"
#include "support/str_scan.hpp"

namespace viprof::support {

/// Hex digits of a crc field.
inline constexpr std::size_t kCrcDigits = 8;

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
inline void append_framed_line(std::string& out, std::string_view body) {
  char crc[kCrcDigits];
  put_crc(crc, fnv1a(body.data(), body.size()));
  out += body;
  out += ' ';
  out.append(crc, kCrcDigits);
  out += '\n';
}

/// Verifies one framed line (terminator stripped) and yields its body,
/// which is never empty. False when the frame is malformed or the crc does
/// not match; `body` is then untouched.
inline bool unframe_line(std::string_view line, std::string_view& body) {
  if (line.size() < kCrcDigits + 2) return false;
  const std::size_t crc_at = line.size() - kCrcDigits;
  std::uint32_t crc = 0;
  if (line[crc_at - 1] != ' ' || !scan_crc(line.substr(crc_at), crc)) return false;
  const std::string_view framed = line.substr(0, crc_at - 1);
  if (fnv1a(framed.data(), framed.size()) != crc) return false;
  body = framed;
  return true;
}

// --- Whole-file trailer ---------------------------------------------------

/// Appends the trailer line over everything already in `out`.
inline void append_crc_trailer(std::string& out) {
  char line[] = "crc 00000000\n";
  put_crc(line + 4, fnv1a(out.data(), out.size()));
  out += line;
}

/// A trailer line (terminator stripped): "crc" SP eight hex digits.
inline bool scan_crc_line(std::string_view line, std::uint32_t& crc) {
  return scan_lit(line, "crc ") && scan_crc(line, crc);
}

/// Strict check: `text` ends with a trailer line whose crc covers every byte
/// before it. Returns those bytes (empty or '\n'-terminated), or nullopt.
inline std::optional<std::string_view> strip_crc_trailer(std::string_view text) {
  if (text.empty() || text.back() != '\n') return std::nullopt;
  const std::size_t nl = text.rfind('\n', text.size() - 2);
  const std::size_t at = nl == std::string_view::npos ? 0 : nl + 1;
  std::uint32_t crc = 0;
  if (!scan_crc_line(text.substr(at, text.size() - 1 - at), crc) ||
      fnv1a(text.data(), at) != crc)
    return std::nullopt;
  return text.substr(0, at);
}

/// The all-or-nothing reading of a trailer-framed file: true when the
/// trailer verifies, the first non-blank line is `header`, and `on_line`
/// accepts every later non-blank line.
template <typename OnLine>
bool for_each_framed_line(std::string_view text, std::string_view header,
                          OnLine&& on_line) {
  const auto body = strip_crc_trailer(text);
  if (!body) return false;
  LineCursor cursor(*body);
  std::string_view line;
  bool saw_header = false;
  while (cursor.next(line)) {
    if (line.empty()) continue;
    if (!saw_header) {
      if (line != header) return false;
      saw_header = true;
    } else if (!on_line(line)) {
      return false;
    }
  }
  return saw_header;
}

/// What walk_framed_file found.
struct FramedWalk {
  bool header_ok = false;  // the header parsed (even as an unterminated line)
  bool truncated = false;  // the `truncated` marker followed the header
  bool intact = false;     // every line parsed, the trailer verified, nothing after
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
FramedWalk walk_framed_file(std::string_view text, Header&& header, Item&& item) {
  FramedWalk w;
  LineCursor cursor(text);
  std::string_view line;
  if (!cursor.next(line)) {
    w.header_ok = !cursor.tail().empty() && header(cursor.tail());
    return w;
  }
  if (!header(line)) return w;
  w.header_ok = true;
  w.consumed = line.size() + 1;
  bool first = true;
  while (cursor.next(line)) {
    std::uint32_t crc = 0;
    if (scan_crc_line(line, crc)) {
      w.intact = fnv1a(text.data(), w.consumed) == crc &&
                 w.consumed + line.size() + 1 == text.size();
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

}  // namespace viprof::support
