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
//
// Every file-to-index path (sample logs, code maps, object maps, RVM.map,
// the archive's registrations) runs through these few loops, so they are kept branch-light:
// hex digits and whitespace classify by one table or mask lookup per byte,
// and decimal/hex overflow is the carry of __builtin_{mul,add}_overflow
// instead of a division per digit. The accept set is pinned against the
// earlier compare-chain scanners by tests/test_support_str_scan.cpp.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
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

namespace detail {

/// Bit c set for each whitespace byte c < 64: ' ', \t, \v, \f, \r.
inline constexpr std::uint64_t kSpaceMask =
    (1ull << ' ') | (1ull << '\t') | (1ull << '\v') | (1ull << '\f') | (1ull << '\r');

/// Digit value of every byte, -1 for non-hex-digits (non-ASCII included).
inline constexpr std::array<std::int8_t, 256> kHexValue = [] {
  std::array<std::int8_t, 256> t{};
  for (auto& v : t) v = -1;
  for (int c = 0; c < 10; ++c) t['0' + c] = static_cast<std::int8_t>(c);
  for (int c = 0; c < 6; ++c) {
    t['a' + c] = static_cast<std::int8_t>(10 + c);
    t['A' + c] = static_cast<std::int8_t>(10 + c);
  }
  return t;
}();

}  // namespace detail

inline bool is_space(char c) {
  const auto u = static_cast<unsigned char>(c);
  return u <= ' ' && ((detail::kSpaceMask >> u) & 1u) != 0;
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

/// Unsigned decimal; needs at least one digit. Skips leading whitespace
/// (kept skipped even on failure). Fails on overflow, leaving `out` alone.
inline bool scan_u64(std::string_view& s, std::uint64_t& out) {
  skip_ws(s);
  std::size_t i = 0;
  std::uint64_t v = 0;
  for (; i < s.size(); ++i) {
    const unsigned digit = static_cast<unsigned char>(s[i]) - unsigned{'0'};
    if (digit > 9) break;
    if (__builtin_mul_overflow(v, 10u, &v) || __builtin_add_overflow(v, digit, &v))
      return false;
  }
  if (i == 0) return false;
  s.remove_prefix(i);
  out = v;
  return true;
}

/// Hex digit value of `c`, or -1.
inline int hex_value(char c) {
  return detail::kHexValue[static_cast<unsigned char>(c)];
}

/// Unsigned hex with optional 0x/0X prefix; needs at least one digit. A
/// bare "0x" parses as 0 and leaves the "x". `max_digits` (0 = unlimited)
/// bounds the digits consumed, mirroring sscanf's field width (%8x).
/// Fails on overflow. Leading whitespace stays skipped even on
/// failure; `out` is written only on success.
inline bool scan_hex64(std::string_view& s, std::uint64_t& out,
                       std::size_t max_digits = 0) {
  skip_ws(s);
  std::size_t p = 0;
  if (s.size() >= 3 && s[0] == '0' && (s[1] | 0x20) == 'x' /* x or X */ &&
      hex_value(s[2]) >= 0)
    p = 2;
  const std::size_t avail = s.size() - p;
  const std::size_t limit =
      max_digits == 0 || max_digits > avail ? avail : max_digits;
  std::size_t i = 0;
  std::uint64_t v = 0;
  for (; i < limit; ++i) {
    const int digit = hex_value(s[p + i]);
    if (digit < 0) break;
    if (__builtin_mul_overflow(v, 16u, &v)) return false;
    v |= static_cast<unsigned>(digit);
  }
  if (i == 0) return false;
  s.remove_prefix(p + i);
  out = v;
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

/// The decimal number after the last `prefix` in a file name, when
/// `suffix` is all that follows it: "jit/7/map.00000012" with "map." gives
/// 12. nullopt when the prefix is absent or anything else surrounds the digits.
inline std::optional<std::uint64_t> scan_name_number(std::string_view name,
                                                     std::string_view prefix,
                                                     std::string_view suffix = {}) {
  const std::size_t at = name.rfind(prefix);
  if (at == std::string_view::npos) return std::nullopt;
  std::string_view rest = name.substr(at + prefix.size());
  std::uint64_t value = 0;
  if (!scan_u64(rest, value) || rest != suffix) return std::nullopt;
  return value;
}

/// The decimal number a path's last component spells after exactly
/// `prefix`: "jit/7/map.00000012" with "map." gives 12, while
/// "jit/7/omap.00000012" gives nullopt (the component must start with it).
inline std::optional<std::uint64_t> scan_basename_number(std::string_view path,
                                                         std::string_view prefix) {
  const std::size_t slash = path.rfind('/');
  std::string_view rest = slash == std::string_view::npos ? path : path.substr(slash + 1);
  if (!scan_lit(rest, prefix)) return std::nullopt;
  std::uint64_t value = 0;
  if (!scan_u64(rest, value) || !rest.empty()) return std::nullopt;
  return value;
}

}  // namespace viprof::support
