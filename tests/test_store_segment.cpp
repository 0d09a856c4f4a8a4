// Segment file framing: §7 discipline applied to interval profiles. A
// writer/reader round trip must be lossless; every kind of damage (torn
// tail, flipped bytes, duplicated or missing lines) must be skipped *and
// counted*, never silently absorbed or fatal.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "store/segment.hpp"
#include "support/framed_text.hpp"

namespace viprof::store {
namespace {

constexpr auto kTime = hw::EventKind::kGlobalPowerEvents;
constexpr auto kDmiss = hw::EventKind::kBsqCacheReference;

const std::vector<hw::EventKind> kEvents = {kTime, kDmiss};

core::Resolution res(const std::string& image, const std::string& symbol) {
  core::Resolution r;
  r.image = image;
  r.symbol = symbol;
  r.domain = core::SampleDomain::kJit;
  return r;
}

IntervalProfile make_interval(std::uint64_t tick, std::uint64_t seed) {
  IntervalProfile iv;
  iv.session = "vm-" + std::to_string(seed % 2);
  iv.pid = 40 + seed % 2;
  iv.tick_lo = iv.tick_hi = tick;
  iv.epoch_lo = seed;
  iv.epoch_hi = seed + 1;
  iv.first_seq = 0;  // assigned by the store; irrelevant to framing
  iv.profile.add(kTime, res("RVM.map", "org.jikesrvm.compile"), 10 + seed);
  iv.profile.add(kTime, res("anon (tgid:40 range:0x1000)", "java.util.HashMap.get"),
                 3 + seed);
  iv.profile.add(kDmiss, res("RVM.map", "org.jikesrvm.compile"), seed + 1);
  return iv;
}

std::string whole_segment(SegmentWriter& w, const std::vector<IntervalProfile>& ivs) {
  std::string content = w.header();
  for (const IntervalProfile& iv : ivs) content += w.encode_interval(iv);
  content += w.encode_seal(ivs.size());
  return content;
}

TEST(StoreSegment, RoundTripIsLossless) {
  SegmentWriter w(7);
  const std::vector<IntervalProfile> ivs = {make_interval(3, 0), make_interval(4, 1)};
  const SegmentSalvage got = read_segment(whole_segment(w, ivs), 7);

  EXPECT_TRUE(got.clean());
  EXPECT_TRUE(got.header_ok);
  EXPECT_TRUE(got.sealed);
  EXPECT_EQ(got.segment_id, 7u);
  ASSERT_EQ(got.intervals.size(), 2u);
  EXPECT_EQ(got.intervals_dropped, 0u);
  EXPECT_EQ(got.rows_dropped, 0u);
  for (std::size_t i = 0; i < ivs.size(); ++i) {
    EXPECT_EQ(got.intervals[i].session, ivs[i].session);
    EXPECT_EQ(got.intervals[i].pid, ivs[i].pid);
    EXPECT_EQ(got.intervals[i].tick_lo, ivs[i].tick_lo);
    EXPECT_EQ(got.intervals[i].epoch_lo, ivs[i].epoch_lo);
    EXPECT_EQ(got.intervals[i].epoch_hi, ivs[i].epoch_hi);
    // Byte-identical rendering: rows, counts and insertion order survive.
    EXPECT_EQ(got.intervals[i].profile.render(kEvents, 10),
              ivs[i].profile.render(kEvents, 10));
  }
}

TEST(StoreSegment, DictionaryInternsAcrossIntervals) {
  SegmentWriter w(1);
  std::string first = w.encode_interval(make_interval(1, 0));
  std::string second = w.encode_interval(make_interval(2, 0));  // same symbols
  // The first interval carries the dictionary; the second must reference
  // it without re-emitting D lines.
  EXPECT_NE(first.find(" D "), std::string::npos);
  EXPECT_EQ(second.find(" D "), std::string::npos);
}

TEST(StoreSegment, UnsealedSegmentStillSalvages) {
  SegmentWriter w(2);
  std::string content = w.header();  // sequenced: header takes seq 0
  content += w.encode_interval(make_interval(1, 0));
  const SegmentSalvage got = read_segment(content, 2);
  EXPECT_TRUE(got.clean());
  EXPECT_FALSE(got.sealed);
  EXPECT_EQ(got.intervals_salvaged, 1u);
}

TEST(StoreSegment, TornTailIsDiscardedAndCounted) {
  SegmentWriter w(3);
  const std::vector<IntervalProfile> ivs = {make_interval(1, 0), make_interval(2, 1)};
  std::string content = whole_segment(w, ivs);
  content.resize(content.size() - 5);  // tear mid-line (the seal record)

  const SegmentSalvage got = read_segment(content, 3);
  EXPECT_FALSE(got.clean());
  EXPECT_FALSE(got.sealed);  // the seal record was the torn line
  EXPECT_GE(got.lines_discarded, 1u);
  EXPECT_EQ(got.intervals_salvaged, 2u);  // data lines all landed
}

TEST(StoreSegment, CorruptLineDropsItsIntervalWithRowAccounting) {
  SegmentWriter w(4);
  const std::vector<IntervalProfile> ivs = {make_interval(1, 0), make_interval(2, 1)};
  std::string content = whole_segment(w, ivs);
  // Flip one byte inside the *second* interval's first R record.
  const std::size_t iv2 = content.find(" I 2 ");  // second interval's I line
  ASSERT_NE(iv2, std::string::npos);
  const std::size_t r = content.find(" R ", iv2);
  ASSERT_NE(r, std::string::npos);
  content[r + 3] = content[r + 3] == '0' ? '1' : '0';

  const SegmentSalvage got = read_segment(content, 4);
  EXPECT_FALSE(got.clean());
  EXPECT_GE(got.lines_discarded, 1u);
  // One interval fully intact, the damaged one dropped with its rows.
  EXPECT_EQ(got.intervals_salvaged + got.intervals_dropped, 2u);
  EXPECT_EQ(got.intervals_dropped, 1u);
  EXPECT_GT(got.rows_dropped, 0u);
  EXPECT_EQ(got.rows_salvaged, ivs[0].profile.row_count());
}

TEST(StoreSegment, DuplicateAndMissingLinesAreCounted) {
  SegmentWriter w(5);
  const std::vector<IntervalProfile> ivs = {make_interval(1, 0)};
  const std::string content = whole_segment(w, ivs);

  // Duplicate a full line (replayed write): skipped, counted, harmless.
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < content.size()) {
    const std::size_t nl = content.find('\n', start);
    lines.push_back(content.substr(start, nl - start + 1));
    start = nl + 1;
  }
  ASSERT_GE(lines.size(), 4u);
  std::string dup;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    dup += lines[i];
    if (i == 2) dup += lines[2];
  }
  const SegmentSalvage with_dup = read_segment(dup, 5);
  EXPECT_EQ(with_dup.duplicate_lines, 1u);
  EXPECT_EQ(with_dup.intervals_salvaged, 1u);

  // Remove a middle line: a sequence gap, and the interval it belonged to
  // fails its declared-row count.
  std::string gap;
  for (std::size_t i = 0; i < lines.size(); ++i)
    if (i != 3) gap += lines[i];
  const SegmentSalvage with_gap = read_segment(gap, 5);
  EXPECT_FALSE(with_gap.clean());
  EXPECT_GE(with_gap.gap_lines, 1u);
  EXPECT_EQ(with_gap.intervals_dropped, 1u);
}

TEST(StoreSegment, RowsPastASequenceGapNeverCommitToTheOpenInterval) {
  SegmentWriter w(7);
  const std::vector<IntervalProfile> ivs = {make_interval(1, 0), make_interval(2, 1)};
  const std::string content = whole_segment(w, ivs);
  std::vector<std::string> lines;
  for (std::size_t start = 0; start < content.size();) {
    const std::size_t nl = content.find('\n', start);
    lines.push_back(content.substr(start, nl - start + 1));
    start = nl + 1;
  }
  const auto index_of = [&lines](const char* marker, std::size_t from) {
    for (std::size_t i = from; i < lines.size(); ++i)
      if (lines[i].find(marker) != std::string::npos) return i;
    return lines.size();
  };
  // Each interval has two rows. Lose the first interval's second row, the
  // second interval's dictionary and record, and its second row: the first
  // interval then sees exactly its declared two rows, one of them not its own.
  const std::size_t iv1 = index_of(" I ", 0);
  const std::size_t iv2 = index_of(" I ", iv1 + 1);
  ASSERT_LT(iv2 + 2, lines.size());
  std::string damaged;
  for (std::size_t i = 0; i < lines.size(); ++i)
    if (i <= iv1 + 1 || i == iv2 + 1 || i > iv2 + 2) damaged += lines[i];

  const SegmentSalvage got = read_segment(damaged, 7);
  EXPECT_GT(got.gap_lines, 0u);
  EXPECT_EQ(got.intervals_salvaged, 0u);
  EXPECT_TRUE(got.intervals.empty());
  EXPECT_EQ(got.intervals_dropped, 1u);
}

TEST(StoreSegment, GarbageAndEmptyInputsAreRejectedNotFatal) {
  const SegmentSalvage empty = read_segment("", 0);
  EXPECT_FALSE(empty.header_ok);
  EXPECT_EQ(empty.intervals_salvaged, 0u);

  const SegmentSalvage noise = read_segment("this is not a segment\nat all\n", 0);
  EXPECT_FALSE(noise.header_ok);
  EXPECT_FALSE(noise.clean());
  EXPECT_EQ(noise.intervals_salvaged, 0u);
}

TEST(StoreSegment, CrcFieldTakesOnlyEightHexDigits) {
  // A line frame's crc is exactly eight hex digits, as in the sample logs.
  // Search segment ids for a header body whose v2 crc (XXH32 under the
  // id's key) fits in 24 bits, so it can also be spelled with a 0x prefix
  // or a sign inside the 8-byte field.
  std::uint64_t id = 0;
  const auto header_body = [&id] { return "0 H viprof-segment v2 " + std::to_string(id); };
  const auto v2_crc = [&id](const std::string& body) {
    return support::xxh32(body.data(), body.size(),
                          support::frame_key(support::FrameKind::kSegment, id));
  };
  while (v2_crc(header_body()) >= (1u << 24)) ++id;
  const std::string body = header_body();
  const std::uint32_t crc = v2_crc(body);
  SegmentWriter w(id);
  ASSERT_EQ(w.header().substr(0, body.size() + 1), body + " ");  // seq 0
  const std::string seal = w.encode_seal(0);                       // seq 1
  const auto framed = [&](const char* format) {
    char field[16];
    std::snprintf(field, sizeof field, format, crc);
    return body + " " + field + "\n" + seal;
  };

  const SegmentSalvage canonical = read_segment(framed("%08x"), id);
  EXPECT_TRUE(canonical.clean());
  EXPECT_TRUE(canonical.header_ok);
  EXPECT_TRUE(read_segment(framed("%08X"), id).clean());  // digits of either case

  for (const char* format : {"0x%06x", "0X%06x", "+%07x"}) {
    const SegmentSalvage got = read_segment(framed(format), id);
    EXPECT_FALSE(got.header_ok) << format;
    EXPECT_EQ(got.lines_discarded, 1u) << format;
    EXPECT_FALSE(got.clean()) << format;
  }
}

}  // namespace
}  // namespace viprof::store
