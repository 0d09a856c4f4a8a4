// Single-pass scanner helpers: these replace the istringstream + sscanf
// parse loops, so the tests pin the sscanf-isms callers depend on —
// leading-whitespace skipping, %8x-style digit caps, and a LineCursor
// that refuses to yield an unterminated tail — and the two places they
// are deliberately stricter: no sign, no overflow. The table-driven
// scanners are also diffed against the compare-chain versions they
// replaced, kept below as oracles, on seeded edge-heavy inputs.
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "support/rng.hpp"
#include "support/str_scan.hpp"

namespace viprof::support {
namespace {

TEST(LineCursorTest, YieldsOnlyTerminatedLines) {
  LineCursor cursor("one\ntwo\nchopped");
  std::string_view line;
  ASSERT_TRUE(cursor.next(line));
  EXPECT_EQ(line, "one");
  ASSERT_TRUE(cursor.next(line));
  EXPECT_EQ(line, "two");
  EXPECT_FALSE(cursor.next(line));  // the tail is not a line
  EXPECT_EQ(cursor.tail(), "chopped");
}

TEST(LineCursorTest, EmptyLinesAndCleanEnd) {
  LineCursor cursor("\na\n");
  std::string_view line;
  ASSERT_TRUE(cursor.next(line));
  EXPECT_EQ(line, "");
  ASSERT_TRUE(cursor.next(line));
  EXPECT_EQ(line, "a");
  EXPECT_FALSE(cursor.next(line));
  EXPECT_TRUE(cursor.tail().empty());
}

TEST(ScanU64Test, SkipsLeadingWhitespaceLikeSscanf) {
  std::string_view s = "  \t42 rest";
  std::uint64_t v = 0;
  ASSERT_TRUE(scan_u64(s, v));
  EXPECT_EQ(v, 42u);
  EXPECT_EQ(s, " rest");
}

TEST(ScanU64Test, RejectsNonDigits) {
  std::string_view s = "x42";
  std::uint64_t v = 0;
  EXPECT_FALSE(scan_u64(s, v));
  EXPECT_EQ(s, "x42");  // untouched on failure
}

TEST(ScanU64Test, OverflowFailsInsteadOfWrapping) {
  // sscanf saturated and the old loop wrapped; neither value is the text's.
  std::uint64_t v = 0;
  std::string_view s = "18446744073709551615 x";
  ASSERT_TRUE(scan_u64(s, v));
  EXPECT_EQ(v, ~std::uint64_t{0});
  s = "18446744073709551616";
  EXPECT_FALSE(scan_u64(s, v));
  s = "0000000000000000000000000042";  // long, but in range
  ASSERT_TRUE(scan_u64(s, v));
  EXPECT_EQ(v, 42u);
  s = "+42";  // no sign, unlike sscanf
  EXPECT_FALSE(scan_u64(s, v));
}

TEST(ScanHex64Test, OverflowFailsInsteadOfWrapping) {
  std::uint64_t v = 0;
  std::string_view s = "ffffffffffffffff";
  ASSERT_TRUE(scan_hex64(s, v));
  EXPECT_EQ(v, ~std::uint64_t{0});
  s = "10000000000000000";
  EXPECT_FALSE(scan_hex64(s, v));
  s = "00000000000000000000abc";
  ASSERT_TRUE(scan_hex64(s, v));
  EXPECT_EQ(v, 0xabcu);
}

TEST(ScanHex64Test, OptionalPrefixAndCase) {
  std::uint64_t v = 0;
  std::string_view s = "0x1aB rest";
  ASSERT_TRUE(scan_hex64(s, v));
  EXPECT_EQ(v, 0x1abu);
  EXPECT_EQ(s, " rest");

  s = "deadBEEF";
  ASSERT_TRUE(scan_hex64(s, v));
  EXPECT_EQ(v, 0xdeadbeefull);

  // "0x" with no digit after it is the number 0 followed by an 'x', as
  // with sscanf %x: the prefix is only taken when a digit follows.
  s = "0x";
  ASSERT_TRUE(scan_hex64(s, v));
  EXPECT_EQ(v, 0u);
  EXPECT_EQ(s, "x");
}

TEST(ScanHex64Test, MaxDigitsMirrorsSscanfFieldWidth) {
  // The crc trailer is written as %08x and read back with %8x.
  std::uint64_t v = 0;
  std::string_view s = "123456789";
  ASSERT_TRUE(scan_hex64(s, v, 8));
  EXPECT_EQ(v, 0x12345678u);
  EXPECT_EQ(s, "9");
}

TEST(ScanLitTest, ConsumesExactPrefixOnly) {
  std::string_view s = "epoch 7";
  ASSERT_TRUE(scan_lit(s, "epoch"));
  EXPECT_EQ(s, " 7");
  EXPECT_FALSE(scan_lit(s, "entries"));
  EXPECT_EQ(s, " 7");
}

TEST(ScanTokenTest, WhitespaceDelimited) {
  std::string_view s = "  com.example.K.m  next";
  std::string_view tok;
  ASSERT_TRUE(scan_token(s, tok));
  EXPECT_EQ(tok, "com.example.K.m");
  ASSERT_TRUE(scan_token(s, tok));
  EXPECT_EQ(tok, "next");
  EXPECT_FALSE(scan_token(s, tok));  // nothing but the end left
}

TEST(AtEndTest, TrailingWhitespaceIsEnd) {
  EXPECT_TRUE(at_end(""));
  EXPECT_TRUE(at_end("   \t\r"));
  EXPECT_FALSE(at_end(" x"));
}


// ---- Oracle: the compare-chain scanners, verbatim except for names. ----
namespace oracle {

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

void skip_ws(std::string_view& s) {
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
}

bool scan_u64(std::string_view& s, std::uint64_t& out) {
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

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

bool scan_hex64(std::string_view& s, std::uint64_t& out, std::size_t max_digits = 0) {
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

}  // namespace oracle

TEST(ScannerDifferentialTest, ClassifiersMatchOnEveryByte) {
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    EXPECT_EQ(is_space(c), oracle::is_space(c)) << "byte " << b;
    EXPECT_EQ(hex_value(c), oracle::hex_value(c)) << "byte " << b;
  }
}

/// Edge-heavy numeric text: whitespace runs, 0x/0X and bare prefixes,
/// decimals around 2^64, 15-17 hex digits, non-ASCII and NUL bytes.
std::string random_field(support::Xoshiro256& rng) {
  static constexpr std::string_view kSpaces = " \t\r\v\f\n";
  static constexpr std::string_view kDec = "0123456789";
  static constexpr std::string_view kHex = "0123456789abcdefABCDEF";
  static constexpr std::string_view kJunk = "xXgG+- .:\0";
  std::string s;
  const auto pick = [&rng](std::string_view set) {
    return set[static_cast<std::size_t>(rng.below(set.size()))];
  };
  for (auto n = rng.below(4); n > 0; --n) s += pick(kSpaces);
  switch (rng.below(4)) {
    case 0: s += "0x"; break;
    case 1: s += "0X"; break;
    case 2: s += "0"; break;
    default: break;
  }
  switch (rng.below(6)) {
    case 0: {  // 19-21 digits straddling 2^64 = 18446744073709551616
      std::string d = "18446744073709551615";
      d.back() = static_cast<char>('0' + rng.below(10));
      if (rng.below(2) == 0) d[static_cast<std::size_t>(rng.below(d.size()))] = pick(kDec);
      if (rng.below(3) == 0) d.pop_back();
      if (rng.below(3) == 0) d += pick(kDec);
      s += d;
      break;
    }
    case 1:  // 15-17 hex digits, the hex overflow edge
      for (auto n = 15 + rng.below(3); n > 0; --n) s += pick(kHex);
      break;
    case 2:
      for (auto n = rng.below(24); n > 0; --n) s += pick(kDec);
      break;
    case 3:
      for (auto n = rng.below(24); n > 0; --n) s += pick(kHex);
      break;
    case 4:  // raw bytes, non-ASCII included
      for (auto n = rng.below(6); n > 0; --n) s += static_cast<char>(rng.below(256));
      break;
    default:
      break;
  }
  for (auto n = rng.below(3); n > 0; --n)
    s += rng.below(3) == 0 ? static_cast<char>(0x80 + rng.below(128)) : pick(kJunk);
  return s;
}

TEST(ScannerDifferentialTest, ScannersMatchOracleOnSeededInputs) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 0x5eedull}) {
    support::Xoshiro256 rng(seed);
    for (int i = 0; i < 20000; ++i) {
      const std::string text = random_field(rng);
      constexpr std::uint64_t kSentinel = 0xa5a5a5a5a5a5a5a5ull;

      std::string_view got = text, want = text;
      std::uint64_t got_v = kSentinel, want_v = kSentinel;
      ASSERT_EQ(scan_u64(got, got_v), oracle::scan_u64(want, want_v)) << text;
      ASSERT_EQ(got_v, want_v) << text;
      ASSERT_EQ(got.data(), want.data()) << text;
      ASSERT_EQ(got.size(), want.size()) << text;

      const std::size_t cap = rng.below(3) == 0 ? 0 : rng.below(20);
      got = want = text;
      got_v = want_v = kSentinel;
      ASSERT_EQ(scan_hex64(got, got_v, cap), oracle::scan_hex64(want, want_v, cap))
          << text << " cap " << cap;
      ASSERT_EQ(got_v, want_v) << text << " cap " << cap;
      ASSERT_EQ(got.data(), want.data()) << text << " cap " << cap;
      ASSERT_EQ(got.size(), want.size()) << text << " cap " << cap;

      got = want = text;
      skip_ws(got);
      oracle::skip_ws(want);
      ASSERT_EQ(got.data(), want.data()) << text;
    }
  }
}

}  // namespace
}  // namespace viprof::support
