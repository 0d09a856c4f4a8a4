// Single-pass scanner helpers: these replace the istringstream + sscanf
// parse loops, so the tests pin the sscanf-isms callers depend on —
// leading-whitespace skipping, %8x-style digit caps, and a LineCursor
// that refuses to yield an unterminated tail — and the two places they
// are deliberately stricter: no sign, no overflow.
#include <gtest/gtest.h>

#include <string_view>

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

}  // namespace
}  // namespace viprof::support
