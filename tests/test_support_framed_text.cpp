// The crc-framed text codec: the one accept set for a crc field, the line
// frame, the whole-file trailer and the salvage walk the map formats share.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "support/framed_text.hpp"

namespace viprof::support {
namespace {

std::string crc_hex(std::string_view bytes) {
  char digits[kCrcDigits];
  put_crc(digits, fnv1a(bytes.data(), bytes.size()));
  return std::string(digits, kCrcDigits);
}

TEST(FramedText, CrcFieldIsExactlyEightHexDigits) {
  std::uint32_t crc = 0;
  ASSERT_TRUE(scan_crc("00c0ffee", crc));
  EXPECT_EQ(crc, 0x00c0ffeeu);
  ASSERT_TRUE(scan_crc("DEADbeef", crc));  // either case
  EXPECT_EQ(crc, 0xdeadbeefu);
  for (const char* bad : {"c0ffee", "0c0ffee", "000c0ffee", "0x0ffee1", "+0c0ffee",
                          " 0c0ffee", "0c0ffee ", "0c0ffeeg", ""})
    EXPECT_FALSE(scan_crc(bad, crc)) << "[" << bad << "]";
}

TEST(FramedText, LineFrameRoundTripsAndRefusesDamage) {
  std::string out;
  append_framed_line(out, "7 R jit 1 2");
  EXPECT_EQ(out, "7 R jit 1 2 " + crc_hex("7 R jit 1 2") + "\n");

  std::string_view body;
  const std::string line = out.substr(0, out.size() - 1);
  ASSERT_TRUE(unframe_line(line, body));
  EXPECT_EQ(body, "7 R jit 1 2");

  std::string flipped = line;
  flipped[0] = '8';
  EXPECT_FALSE(unframe_line(flipped, body));
  EXPECT_FALSE(unframe_line(line.substr(0, line.size() - 1), body));  // 7 digits
  EXPECT_FALSE(unframe_line("7 R jit 1 2  " + crc_hex("7 R jit 1 2"), body));
  EXPECT_FALSE(unframe_line(" " + crc_hex(""), body));  // empty body
}

TEST(FramedText, TrailerMustVerifyAndEndTheFile) {
  std::string file = "header\nline\n";
  append_crc_trailer(file);
  EXPECT_EQ(file, "header\nline\ncrc " + crc_hex("header\nline\n") + "\n");
  ASSERT_TRUE(strip_crc_trailer(file).has_value());
  EXPECT_EQ(*strip_crc_trailer(file), "header\nline\n");

  const std::string no_nl = file.substr(0, file.size() - 1);
  for (const std::string& bad :
       {no_nl, file + "x", file + "\n", no_nl + " \n", no_nl + "0\n",
        "header\nlinE\n" + file.substr(12), std::string("")})
    EXPECT_FALSE(strip_crc_trailer(bad).has_value()) << bad;

  std::string empty;
  append_crc_trailer(empty);
  EXPECT_EQ(strip_crc_trailer(empty), "");
}

TEST(FramedText, AllOrNothingReadSkipsBlankLinesAndChecksTheHeader) {
  std::string file = "\nhead v1\na\n\nb\n";
  append_crc_trailer(file);
  std::vector<std::string> seen;
  const auto collect = [&seen](std::string_view line) {
    seen.emplace_back(line);
    return true;
  };
  EXPECT_TRUE(for_each_framed_line(file, "head v1", collect));
  EXPECT_EQ(seen, (std::vector<std::string>{"a", "b"}));
  EXPECT_FALSE(for_each_framed_line(file, "head v2", collect));
  EXPECT_FALSE(for_each_framed_line(file, "head v1", [](std::string_view) { return false; }));
}

TEST(FramedText, WalkStopsAtTheFirstBadLineAndReportsWhatItRead) {
  std::string file = "h\ntruncated\n1\n2\n";
  append_crc_trailer(file);
  std::vector<std::string> items;
  const auto header = [](std::string_view line) { return line == "h"; };
  const auto item = [&items](std::string_view line) {
    if (line.size() != 1 || line[0] < '0' || line[0] > '9') return false;
    items.emplace_back(line);
    return true;
  };

  FramedWalk w = walk_framed_file(file, header, item);
  EXPECT_TRUE(w.header_ok && w.truncated && w.intact);
  EXPECT_EQ(w.consumed, file.size());
  EXPECT_EQ(items, (std::vector<std::string>{"1", "2"}));

  // A bad line ends the walk; the trailer is never reached.
  items.clear();
  w = walk_framed_file("h\n1\nx\n2\n" + file.substr(file.find("crc")), header, item);
  EXPECT_TRUE(w.header_ok);
  EXPECT_FALSE(w.intact);
  EXPECT_EQ(w.consumed, 4u);
  EXPECT_EQ(items, (std::vector<std::string>{"1"}));

  // `truncated` counts only right after the header.
  items.clear();
  w = walk_framed_file("h\n1\ntruncated\n", header, item);
  EXPECT_FALSE(w.truncated);
  EXPECT_EQ(items, (std::vector<std::string>{"1"}));

  // An unterminated last line is never trusted; an unterminated header is
  // still read.
  items.clear();
  w = walk_framed_file("h\n1\n2", header, item);
  EXPECT_EQ(items, (std::vector<std::string>{"1"}));
  EXPECT_FALSE(w.intact);
  w = walk_framed_file("h", header, item);
  EXPECT_TRUE(w.header_ok);
  EXPECT_EQ(w.consumed, 0u);
  EXPECT_FALSE(walk_framed_file("", header, item).header_ok);

  // Bytes after the trailer make the file damaged, not the trailer wrong.
  w = walk_framed_file(file + "junk\n", header, item);
  EXPECT_TRUE(w.header_ok);
  EXPECT_FALSE(w.intact);
}

}  // namespace
}  // namespace viprof::support
