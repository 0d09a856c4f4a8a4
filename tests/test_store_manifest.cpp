// Manifest round trip and damage rejection. The manifest is the store's
// single source of truth for which segments are live, so its parse is
// all-or-nothing: a valid file reproduces every field exactly, anything
// else (flipped byte, truncation, missing trailer) yields nullopt and the
// recovery path falls back to a full scan.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "store/manifest.hpp"

namespace viprof::store {
namespace {

Manifest make_manifest() {
  Manifest m;
  m.generation = 9;
  m.next_seq = 123;
  m.next_segment = 5;
  m.dropped_intervals = 7;
  m.dropped_rows = 70;
  m.dropped_segments = 2;

  ManifestSegment sealed;
  sealed.name = "segments/seg-000003.vseg";
  sealed.id = 3;
  sealed.sealed = true;
  sealed.intervals = 8;
  sealed.rows = 41;
  sealed.tick_lo = 10;
  sealed.tick_hi = 17;
  sealed.seq_lo = 30;
  sealed.seq_hi = 37;
  m.segments.push_back(sealed);

  ManifestSegment active;
  active.name = "segments/seg-000004.vseg";
  active.id = 4;
  active.sealed = false;
  active.seq_lo = 38;
  m.segments.push_back(active);

  m.tombstones.push_back("segments/seg-000001.vseg");
  return m;
}

TEST(StoreManifest, RoundTripPreservesEveryField) {
  const Manifest m = make_manifest();
  const auto got = Manifest::parse(m.serialize());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->generation, m.generation);
  EXPECT_EQ(got->next_seq, m.next_seq);
  EXPECT_EQ(got->next_segment, m.next_segment);
  EXPECT_EQ(got->dropped_intervals, m.dropped_intervals);
  EXPECT_EQ(got->dropped_rows, m.dropped_rows);
  EXPECT_EQ(got->dropped_segments, m.dropped_segments);
  ASSERT_EQ(got->segments.size(), 2u);
  EXPECT_EQ(got->segments[0].name, m.segments[0].name);
  EXPECT_EQ(got->segments[0].id, 3u);
  EXPECT_TRUE(got->segments[0].sealed);
  EXPECT_EQ(got->segments[0].intervals, 8u);
  EXPECT_EQ(got->segments[0].rows, 41u);
  EXPECT_EQ(got->segments[0].tick_lo, 10u);
  EXPECT_EQ(got->segments[0].tick_hi, 17u);
  EXPECT_EQ(got->segments[0].seq_lo, 30u);
  EXPECT_EQ(got->segments[0].seq_hi, 37u);
  EXPECT_FALSE(got->segments[1].sealed);
  ASSERT_EQ(got->tombstones.size(), 1u);
  EXPECT_EQ(got->tombstones[0], "segments/seg-000001.vseg");
  // Serialisation is canonical: a round-tripped manifest re-serialises to
  // the same bytes (generation swaps can be compared textually).
  EXPECT_EQ(got->serialize(), m.serialize());
}

TEST(StoreManifest, FindLocatesSegmentsByName) {
  Manifest m = make_manifest();
  ASSERT_NE(m.find("segments/seg-000004.vseg"), nullptr);
  EXPECT_EQ(m.find("segments/seg-000004.vseg")->id, 4u);
  EXPECT_EQ(m.find("segments/seg-999999.vseg"), nullptr);
}

TEST(StoreManifest, DamageIsRejectedWhole) {
  const std::string good = make_manifest().serialize();

  std::string flipped = good;
  const std::size_t pos = flipped.find("41");  // a sealed row count
  ASSERT_NE(pos, std::string::npos);
  flipped[pos] = '9';
  EXPECT_FALSE(Manifest::parse(flipped).has_value());

  std::string truncated = good.substr(0, good.size() / 2);
  EXPECT_FALSE(Manifest::parse(truncated).has_value());

  std::string no_trailer = good.substr(0, good.rfind("crc "));
  EXPECT_FALSE(Manifest::parse(no_trailer).has_value());

  EXPECT_FALSE(Manifest::parse("").has_value());
  EXPECT_FALSE(Manifest::parse("not a manifest\n").has_value());
}

/// Well-formed trailers with something after them: bytes after the trailer
/// line, and junk after the crc line's eight hex digits. The checksum still
/// matches every byte before the trailer, so only a strict trailer check
/// refuses these.
std::vector<std::string> after_trailer_damage(const std::string& good) {
  const std::string no_nl = good.substr(0, good.size() - 1);
  return {good + "tombstone segments/seg-000009.vseg\n", good + "x", good + "\n",
          no_nl + "XYZ\n", no_nl + " 7\n", no_nl + "0\n"};
}

TEST(StoreManifest, NothingMayFollowTheCrcTrailer) {
  const std::string good = make_manifest().serialize();
  ASSERT_TRUE(Manifest::parse(good).has_value());
  for (const std::string& bad : after_trailer_damage(good))
    EXPECT_FALSE(Manifest::parse(bad).has_value()) << bad;
}

TEST(FleetManifest, NothingMayFollowTheCrcTrailer) {
  FleetManifest m;
  m.generation = 4;
  m.ledger.acked_records = 12;
  m.ledger.stored_records = 12;
  FleetShard shard;
  shard.name = "shard-0";
  shard.root = partition_root(shard.name);
  shard.sessions = 2;
  shard.records = 12;
  m.shards.push_back(shard);
  const std::string good = m.serialize();
  ASSERT_TRUE(FleetManifest::parse(good).has_value());
  EXPECT_EQ(FleetManifest::parse(good)->serialize(), good);
  for (const std::string& bad : after_trailer_damage(good))
    EXPECT_FALSE(FleetManifest::parse(bad).has_value()) << bad;
}

}  // namespace
}  // namespace viprof::store
