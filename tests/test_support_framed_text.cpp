// The crc-framed text codec: the one accept set for a crc field, the line
// frame, the whole-file trailer and the salvage walk the map formats share.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "support/framed_text.hpp"

namespace viprof::support {
namespace {

/// The key every v2 frame here is seeded with.
constexpr std::uint32_t kSeed = 0x5eed1234u;
constexpr FrameHash kHash = FrameHash::v2(kSeed);

/// The v2 checksum: XXH32 of `bytes` under kSeed, as eight hex digits.
std::string crc_hex(std::string_view bytes) {
  char digits[kCrcDigits];
  put_crc(digits, xxh32(bytes.data(), bytes.size(), kSeed));
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

// The v2 keys are persisted in every crc a writer emits: pinned, so a
// change to the mixing cannot pass unseen. Distinct identities, distinct
// keys, and the kind keeps two formats with one identity apart.
TEST(FramedText, FrameKeysArePinnedAndKeepKindsApart) {
  EXPECT_EQ(frame_key(FrameKind::kSampleLog, 0), 0x1f8367bfu);
  EXPECT_EQ(frame_key(FrameKind::kCodeMap, 101, 3), 0xa2d57eb5u);
  EXPECT_EQ(frame_key(FrameKind::kObjectMap, 101, 3), 0xd9b9e084u);
  EXPECT_EQ(frame_key(FrameKind::kSegment, 7), 0x3aa6325du);
  EXPECT_EQ(frame_key(FrameKind::kStoreManifest), 0xa4505effu);
  EXPECT_EQ(frame_key(FrameKind::kFleetManifest), 0xe69aaa3cu);
  EXPECT_EQ(frame_key(FrameKind::kSnapshot), 0x94282133u);
  EXPECT_NE(frame_key(FrameKind::kCodeMap, 101, 3), frame_key(FrameKind::kCodeMap, 3, 101));
  EXPECT_NE(frame_key(FrameKind::kCodeMap, 101, 3), frame_key(FrameKind::kCodeMap, 102, 3));
  EXPECT_NE(frame_key(FrameKind::kCodeMap, 101, 3), frame_key(FrameKind::kCodeMap, 101, 4));
  EXPECT_EQ(FrameHash::v2(0x1234u)("abc"), xxh32("abc", 3, 0x1234u));
  EXPECT_EQ(FrameHash::v1()("abc"), fnv1a("abc", 3));
}

TEST(FramedText, LineFrameRoundTripsAndRefusesDamage) {
  std::string out;
  append_framed_line(out, "7 R jit 1 2", kHash);
  EXPECT_EQ(out, "7 R jit 1 2 " + crc_hex("7 R jit 1 2") + "\n");

  std::string_view body;
  const std::string line = out.substr(0, out.size() - 1);
  ASSERT_TRUE(unframe_line(line, kHash, body));
  EXPECT_EQ(body, "7 R jit 1 2");

  std::string flipped = line;
  flipped[0] = '8';
  EXPECT_FALSE(unframe_line(flipped, kHash, body));
  EXPECT_FALSE(unframe_line(line.substr(0, line.size() - 1), kHash, body));  // 7 digits
  EXPECT_FALSE(unframe_line("7 R jit 1 2  " + crc_hex("7 R jit 1 2"), kHash, body));
  EXPECT_FALSE(unframe_line(" " + crc_hex(""), kHash, body));  // empty body
}

TEST(FramedText, TrailerMustVerifyAndEndTheFile) {
  std::string file = "header\nline\n";
  append_crc_trailer(file, kHash);
  EXPECT_EQ(file, "header\nline\ncrc " + crc_hex("header\nline\n") + "\n");
  ASSERT_TRUE(strip_crc_trailer(file, kHash).has_value());
  EXPECT_EQ(*strip_crc_trailer(file, kHash), "header\nline\n");

  const std::string no_nl = file.substr(0, file.size() - 1);
  for (const std::string& bad :
       {no_nl, file + "x", file + "\n", no_nl + " \n", no_nl + "0\n",
        "header\nlinE\n" + file.substr(12), std::string("")})
    EXPECT_FALSE(strip_crc_trailer(bad, kHash).has_value()) << bad;

  std::string empty;
  append_crc_trailer(empty, kHash);
  EXPECT_EQ(strip_crc_trailer(empty, kHash), "");
}

TEST(FramedText, AllOrNothingReadSkipsBlankLinesAndChecksTheHeader) {
  std::string file = "\nhead v1\na\n\nb\n";
  append_crc_trailer(file, kHash);
  std::vector<std::string> seen;
  const auto collect = [&seen](std::string_view line) {
    seen.emplace_back(line);
    return true;
  };
  EXPECT_TRUE(for_each_framed_line(file, {{"head v1", kHash}}, collect));
  EXPECT_EQ(seen, (std::vector<std::string>{"a", "b"}));
  EXPECT_FALSE(for_each_framed_line(file, {{"head v2", kHash}}, collect));
  EXPECT_FALSE(for_each_framed_line(file, {{"head v1", kHash}},
                                    [](std::string_view) { return false; }));
}

TEST(FramedText, AllOrNothingReadFramesUnderTheVersionItsHeaderNames) {
  // One reader, two versions: the header picks the (hash, seed) the trailer
  // must verify under.
  const std::initializer_list<FramedVersion> versions = {{"head v2", kHash},
                                                         {"head v1", FrameHash::v1()}};
  std::string v2 = "head v2\na\n";
  append_crc_trailer(v2, kHash);
  std::string v1 = "head v1\na\n";
  append_crc_trailer(v1, FrameHash::v1());
  EXPECT_EQ(v1.substr(v1.size() - 9, 8), [] {
    char digits[kCrcDigits];
    put_crc(digits, fnv1a(std::string("head v1\na\n")));
    return std::string(digits, kCrcDigits);
  }());
  const auto accept = [](std::string_view line) { return line == "a"; };
  EXPECT_TRUE(for_each_framed_line(v2, versions, accept));
  EXPECT_TRUE(for_each_framed_line(v1, versions, accept));
  // A header naming one version over a trailer framed by the other, or under
  // another key, is damage.
  std::string swapped = "head v1\na\n";
  append_crc_trailer(swapped, kHash);
  EXPECT_FALSE(for_each_framed_line(swapped, versions, accept));
  EXPECT_FALSE(for_each_framed_line(v2, {{"head v2", FrameHash::v2(kSeed + 1)}}, accept));
}

TEST(FramedText, WalkStopsAtTheFirstBadLineAndReportsWhatItRead) {
  std::string file = "h\ntruncated\n1\n2\n";
  append_crc_trailer(file, kHash);
  std::vector<std::string> items;
  const auto header = [](std::string_view line) { return line == "h"; };
  const auto item = [&items](std::string_view line) {
    if (line.size() != 1 || line[0] < '0' || line[0] > '9') return false;
    items.emplace_back(line);
    return true;
  };

  FramedWalk w = walk_framed_file(file, kHash, header, item);
  EXPECT_TRUE(w.header_ok && w.truncated && w.intact);
  EXPECT_EQ(w.consumed, file.size());
  EXPECT_EQ(items, (std::vector<std::string>{"1", "2"}));

  // A bad line ends the walk; the trailer is never reached.
  items.clear();
  w = walk_framed_file("h\n1\nx\n2\n" + file.substr(file.find("crc")), kHash, header, item);
  EXPECT_TRUE(w.header_ok);
  EXPECT_FALSE(w.intact);
  EXPECT_EQ(w.consumed, 4u);
  EXPECT_EQ(items, (std::vector<std::string>{"1"}));

  // `truncated` counts only right after the header.
  items.clear();
  w = walk_framed_file("h\n1\ntruncated\n", kHash, header, item);
  EXPECT_FALSE(w.truncated);
  EXPECT_EQ(items, (std::vector<std::string>{"1"}));

  // An unterminated last line is never trusted; an unterminated header is
  // still read.
  items.clear();
  w = walk_framed_file("h\n1\n2", kHash, header, item);
  EXPECT_EQ(items, (std::vector<std::string>{"1"}));
  EXPECT_FALSE(w.intact);
  w = walk_framed_file("h", kHash, header, item);
  EXPECT_TRUE(w.header_ok);
  EXPECT_EQ(w.consumed, 0u);
  EXPECT_FALSE(walk_framed_file("", kHash, header, item).header_ok);

  // Bytes after the trailer make the file damaged, not the trailer wrong.
  w = walk_framed_file(file + "junk\n", kHash, header, item);
  EXPECT_TRUE(w.header_ok);
  EXPECT_FALSE(w.intact);
  EXPECT_FALSE(w.trailer_failed);
}

TEST(FramedText, WholeFileItemsNeedATrailerThatVouchesForThem) {
  const auto header = [](std::string_view line) { return line.starts_with("h"); };
  const auto item = [](std::string_view line) { return line.size() == 1; };
  std::string file = "h1\na\nb\n";
  append_crc_trailer(file, kHash);

  // Verified, or torn before the trailer: the parsing prefix is usable.
  FramedWalk w = walk_framed_file(file, kHash, header, item);
  EXPECT_TRUE(w.intact);
  EXPECT_TRUE(walked_items_usable(file, w, kHash, "h1"));
  const std::string torn = file.substr(0, file.find("crc"));
  w = walk_framed_file(torn, kHash, header, item);
  EXPECT_FALSE(w.trailer_failed);
  EXPECT_TRUE(walked_items_usable(torn, w, kHash, "h1"));

  // The same whole file under another key, or framed v1: refused.
  w = walk_framed_file(file, FrameHash::v2(kSeed ^ 1), header, item);
  EXPECT_TRUE(w.trailer_failed);
  EXPECT_FALSE(walked_items_usable(file, w, FrameHash::v2(kSeed ^ 1), "h1"));
  std::string v1 = "h1\na\nb\n";
  append_crc_trailer(v1, FrameHash::v1());
  w = walk_framed_file(v1, kHash, header, item);
  EXPECT_FALSE(walked_items_usable(v1, w, kHash, "h1"));

  // A flipped header field that the vouched-for header repairs: usable.
  std::string flipped = file;
  flipped[1] = '7';
  w = walk_framed_file(flipped, kHash, header, item);
  EXPECT_TRUE(w.trailer_failed);
  EXPECT_EQ(w.header_bytes, 3u);
  EXPECT_EQ(w.body_bytes, 7u);
  EXPECT_TRUE(walked_items_usable(flipped, w, kHash, "h1"));
  EXPECT_FALSE(walked_items_usable(flipped, w, kHash, "h7"));
  // A flipped item is not repaired by the header.
  flipped = file;
  flipped[3] = 'z';
  w = walk_framed_file(flipped, kHash, header, item);
  EXPECT_FALSE(walked_items_usable(flipped, w, kHash, "h1"));
}

}  // namespace
}  // namespace viprof::support
