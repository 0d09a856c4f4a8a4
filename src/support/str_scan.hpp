// Single-pass string-view scanning for the hot file parsers.
//
// The crash-consistent file formats (sample logs, epoch code maps, RVM.map)
// are parsed millions of lines at a time during post-processing; going
// through istringstream + sscanf allocates and re-scans every line. These
// helpers walk a string_view exactly once: a LineCursor that only yields
// newline-terminated lines (an unterminated tail is how a torn write
// presents, and must never be trusted), plus field scanners matching the
// formats the writers emit. Numeric scanners skip leading spaces like
// sscanf's conversions do, so canonical and whitespace-padded files parse
// identically to the old sscanf loops; they refuse a sign or an overflow,
// which sscanf took and no writer emits.
#pragma once

#include <cstdint>
#include <string_view>

namespace viprof::support {

/// Walks newline-terminated lines of a buffer without copying.
class LineCursor {
 public:
  explicit LineCursor(std::string_view text) : rest_(text) {}

  /// Yields the next '\n'-terminated line (terminator stripped). Returns
  /// false at end of buffer *or* when only an unterminated tail remains —
  /// callers treat that tail as damage (see CodeMapFile::salvage).
  bool next(std::string_view& line) {
    const std::size_t nl = rest_.find('\n');
    if (nl == std::string_view::npos) return false;
    line = rest_.substr(0, nl);
    rest_.remove_prefix(nl + 1);
    return true;
  }

  /// Bytes after the last newline: non-empty means a torn final line.
  std::string_view tail() const { return rest_; }

 private:
  std::string_view rest_;
};

inline bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

inline void skip_ws(std::string_view& s) {
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
}

/// True when nothing but whitespace remains.
inline bool at_end(std::string_view s) {
  skip_ws(s);
  return s.empty();
}

/// Consumes a literal prefix; false (s untouched) on mismatch.
inline bool scan_lit(std::string_view& s, std::string_view lit) {
  if (s.substr(0, lit.size()) != lit) return false;
  s.remove_prefix(lit.size());
  return true;
}

/// Unsigned decimal; needs at least one digit. Skips leading whitespace.
/// Fails on overflow.
inline bool scan_u64(std::string_view& s, std::uint64_t& out) {
  skip_ws(s);
  std::size_t i = 0;
  std::uint64_t v = 0;
  while (i < s.size() && s[i] >= '0' && s[i] <= '9') {
    const auto digit = static_cast<std::uint64_t>(s[i] - '0');
    if (v > (~std::uint64_t{0} - digit) / 10) return false;
    v = v * 10 + digit;
    ++i;
  }
  if (i == 0) return false;
  s.remove_prefix(i);
  out = v;
  return true;
}

inline int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Unsigned hex with optional 0x/0X prefix; needs at least one digit.
/// `max_digits` (0 = unlimited) bounds the digits consumed, mirroring
/// sscanf's %8x field width for the crc trailer. Fails on overflow.
inline bool scan_hex64(std::string_view& s, std::uint64_t& out,
                       std::size_t max_digits = 0) {
  skip_ws(s);
  std::string_view t = s;
  if (t.size() >= 2 && t[0] == '0' && (t[1] == 'x' || t[1] == 'X') &&
      hex_value(t.size() > 2 ? t[2] : '\0') >= 0) {
    t.remove_prefix(2);
  }
  std::size_t i = 0;
  std::uint64_t v = 0;
  while (i < t.size() && hex_value(t[i]) >= 0 &&
         (max_digits == 0 || i < max_digits)) {
    if (v >> 60 != 0) return false;
    v = (v << 4) | static_cast<std::uint64_t>(hex_value(t[i]));
    ++i;
  }
  if (i == 0) return false;
  t.remove_prefix(i);
  s = t;
  out = v;
  return true;
}

/// A file's "crc XXXXXXXX" trailer line (at most 8 hex digits), nothing after.
inline bool scan_crc_line(std::string_view line, std::uint32_t& crc) {
  std::uint64_t value = 0;
  if (!scan_lit(line, "crc") || !scan_hex64(line, value, 8) || !at_end(line))
    return false;
  crc = static_cast<std::uint32_t>(value);
  return true;
}

/// Whitespace-delimited token (non-empty). Skips leading whitespace.
inline bool scan_token(std::string_view& s, std::string_view& out) {
  skip_ws(s);
  std::size_t i = 0;
  while (i < s.size() && !is_space(s[i])) ++i;
  if (i == 0) return false;
  out = s.substr(0, i);
  s.remove_prefix(i);
  return true;
}

}  // namespace viprof::support
