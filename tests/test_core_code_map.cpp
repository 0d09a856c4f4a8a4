#include <gtest/gtest.h>

#include "core/code_map.hpp"
#include "core/object_map.hpp"

namespace viprof::core {
namespace {

/// Every map here is kPid's unless a test says otherwise.
constexpr hw::Pid kPid = 42;

/// The frame hash of kPid's map of `epoch`.
support::FrameHash key(std::uint64_t epoch) { return CodeMapFile::frame_hash(kPid, epoch); }

CodeMapFile map_of(std::uint64_t epoch,
                   std::vector<std::tuple<hw::Address, std::uint64_t, std::string>> rows) {
  CodeMapFile file;
  file.epoch = epoch;
  for (auto& [addr, size, sym] : rows)
    file.entries.push_back({addr, size, support::Name(sym)});
  return file;
}

TEST(CodeMapFile, SerializeParseRoundTrip) {
  const CodeMapFile original =
      map_of(3, {{0x1000, 256, "a.b.c"}, {0x2000, 512, "d.e.f"}});
  const auto parsed = CodeMapFile::parse(original.serialize(kPid), key(3));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->epoch, 3u);
  ASSERT_EQ(parsed->entries.size(), 2u);
  EXPECT_EQ(parsed->entries[0].address, 0x1000u);
  EXPECT_EQ(parsed->entries[0].size, 256u);
  EXPECT_EQ(parsed->entries[0].symbol, "a.b.c");
  EXPECT_EQ(parsed->entries[1].symbol, "d.e.f");
}

TEST(CodeMapFile, EmptyMapRoundTrips) {
  const auto parsed = CodeMapFile::parse(map_of(9, {}).serialize(kPid), key(9));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->epoch, 9u);
  EXPECT_TRUE(parsed->entries.empty());
}

TEST(CodeMapFile, MalformedHeaderRejected) {
  EXPECT_FALSE(CodeMapFile::parse("", key(0)).has_value());
  EXPECT_FALSE(CodeMapFile::parse("bogus 3\n", key(3)).has_value());
  EXPECT_FALSE(CodeMapFile::parse("epoch notanumber\n", key(0)).has_value());
}

TEST(CodeMapFile, MalformedEntryRejected) {
  EXPECT_FALSE(CodeMapFile::parse("epoch 1\n0x10\n", key(1)).has_value());
}

TEST(CodeMapFile, PathOrdersByEpoch) {
  const std::string p1 = CodeMapFile::path_for("jit_maps", 100, 1);
  const std::string p10 = CodeMapFile::path_for("jit_maps", 100, 10);
  const std::string p2 = CodeMapFile::path_for("jit_maps", 100, 2);
  EXPECT_LT(p1, p2);
  EXPECT_LT(p2, p10);  // zero padding keeps numeric order
}

TEST(CodeMapIndex, ResolveInOwnEpoch) {
  CodeMapIndex index;
  index.add(map_of(0, {{0x1000, 100, "m0"}}));
  const auto hit = index.resolve(0x1010, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->symbol, "m0");
  EXPECT_EQ(hit->found_in_epoch, 0u);
  EXPECT_EQ(hit->maps_searched, 1u);
}

TEST(CodeMapIndex, BackwardSearchFindsOlderOccupant) {
  CodeMapIndex index;
  index.add(map_of(0, {{0x1000, 100, "old"}}));
  index.add(map_of(1, {{0x9000, 100, "unrelated"}}));
  index.add(map_of(2, {{0x8000, 100, "another"}}));
  // Sample in epoch 2 at an address only map 0 covers: "the method was
  // neither compiled nor moved during this particular epoch".
  const auto hit = index.resolve(0x1050, 2);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->symbol, "old");
  EXPECT_EQ(hit->found_in_epoch, 0u);
  EXPECT_EQ(hit->maps_searched, 3u);
}

TEST(CodeMapIndex, NewestOccupantWins) {
  CodeMapIndex index;
  // The same address range is recycled across epochs.
  index.add(map_of(0, {{0x1000, 100, "first"}}));
  index.add(map_of(3, {{0x1000, 100, "second"}}));
  EXPECT_EQ(index.resolve(0x1000, 5)->symbol, "second");
  EXPECT_EQ(index.resolve(0x1000, 2)->symbol, "first");  // before the recycle
}

TEST(CodeMapIndex, FutureEpochMapsInvisible) {
  CodeMapIndex index;
  index.add(map_of(4, {{0x1000, 100, "later"}}));
  EXPECT_FALSE(index.resolve(0x1000, 3).has_value());
  EXPECT_TRUE(index.resolve(0x1000, 4).has_value());
}

TEST(CodeMapIndex, MissReturnsNothing) {
  CodeMapIndex index;
  index.add(map_of(0, {{0x1000, 100, "m"}}));
  EXPECT_FALSE(index.resolve(0x5000, 0).has_value());
  EXPECT_FALSE(index.resolve(0x1100, 0).has_value());  // one past the end
}

TEST(CodeMapIndex, SparseEpochsSkipped) {
  CodeMapIndex index;
  index.add(map_of(0, {{0x1000, 100, "m"}}));
  index.add(map_of(7, {{0x2000, 100, "n"}}));
  const auto hit = index.resolve(0x1000, 9);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->symbol, "m");
  EXPECT_EQ(hit->maps_searched, 2u);  // only two maps exist
  EXPECT_EQ(index.max_epoch(), 7u);
}

TEST(CodeMapIndex, LoadFromVfs) {
  os::Vfs vfs;
  vfs.write(CodeMapFile::path_for("jit_maps", 42, 0),
            map_of(0, {{0x1000, 100, "a"}}).serialize(42));
  vfs.write(CodeMapFile::path_for("jit_maps", 42, 1),
            map_of(1, {{0x2000, 100, "b"}}).serialize(42));
  // Another pid's maps must not leak in.
  vfs.write(CodeMapFile::path_for("jit_maps", 43, 0),
            map_of(0, {{0x3000, 100, "c"}}).serialize(43));
  CodeMapIndex index;
  index.load(vfs, "jit_maps", 42);
  EXPECT_EQ(index.map_count(), 2u);
  EXPECT_EQ(index.total_entries(), 2u);
  EXPECT_TRUE(index.resolve(0x2000, 1).has_value());
  EXPECT_FALSE(index.resolve(0x3000, 1).has_value());
}

// --- Damage detection, salvage and the crash-aware lookup -----------------

TEST(CodeMapFile, TornFileRejectedByStrictParseButSalvaged) {
  const CodeMapFile original = map_of(
      5, {{0x1000, 100, "a"}, {0x2000, 100, "b"}, {0x3000, 100, "c"}});
  std::string torn = original.serialize(kPid);
  torn.resize(torn.size() / 2);  // lose the tail: entries + crc trailer

  EXPECT_FALSE(CodeMapFile::parse(torn, key(5)).has_value());
  const auto r = CodeMapFile::salvage(torn, key(5), 99);
  EXPECT_FALSE(r.intact);
  EXPECT_TRUE(r.header_ok);
  EXPECT_EQ(r.file.epoch, 5u);  // header survived: hint not needed
  EXPECT_EQ(r.entries_expected, 3u);
  EXPECT_TRUE(r.file.truncated);
  EXPECT_LT(r.file.entries.size(), 3u);  // a verified prefix only
  for (const CodeMapEntry& e : r.file.entries) EXPECT_FALSE(e.symbol.empty());
}

TEST(CodeMapFile, HeaderlessDamageFallsBackToEpochHint) {
  const auto r = CodeMapFile::salvage("garbage\nmore garbage\n", key(7), 7);
  EXPECT_FALSE(r.intact);
  EXPECT_FALSE(r.header_ok);
  EXPECT_EQ(r.file.epoch, 7u);
  EXPECT_TRUE(r.file.truncated);
  EXPECT_TRUE(r.file.entries.empty());
}

TEST(CodeMapFile, IntactFileSurvivesSalvageUnchanged) {
  const CodeMapFile original = map_of(2, {{0x1000, 100, "a"}});
  const auto r = CodeMapFile::salvage(original.serialize(kPid), key(2), 0);
  EXPECT_TRUE(r.intact);
  EXPECT_FALSE(r.file.truncated);
  EXPECT_EQ(r.file.entries.size(), 1u);
}

TEST(CodeMapFile, TruncatedMarkerRoundTripsThroughReserialization) {
  // fsck re-serialises a salvaged map; the marker must survive so the
  // recovered tree stays honest about what it lost.
  CodeMapFile file = map_of(4, {{0x1000, 100, "a"}});
  file.truncated = true;
  const auto parsed = CodeMapFile::parse(file.serialize(kPid), key(4));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->truncated);
  CodeMapIndex index;
  index.add(*parsed);
  EXPECT_TRUE(index.epoch_truncated(4));
}

TEST(CodeMapFile, StrictParseRejectsCrcMismatchWithFullEntryCount) {
  // One changed byte in a symbol keeps every line well-formed and the
  // entry count exact; only the crc trailer can tell.
  std::string bytes =
      map_of(6, {{0x1000, 100, "a.b.c"}, {0x2000, 100, "d.e.f"}}).serialize(kPid);
  const std::size_t at = bytes.find("a.b.c");
  ASSERT_NE(at, std::string::npos);
  bytes[at] = 'z';

  const auto r = CodeMapFile::salvage(bytes, key(6), 0);
  EXPECT_FALSE(r.intact);
  EXPECT_EQ(r.file.entries.size(), r.entries_expected);
  EXPECT_FALSE(CodeMapFile::parse(bytes, key(6)).has_value());
}

TEST(CodeMapFile, FsckRewrittenTruncatedMapParses) {
  // fsck salvages a torn map and rewrites what it kept: a fresh header
  // count and crc over the kept entries, plus the `truncated` marker.
  const CodeMapFile original = map_of(
      8, {{0x1000, 100, "a"}, {0x2000, 100, "b"}, {0x3000, 100, "c"}});
  std::string torn = original.serialize(kPid);
  torn.resize(torn.find("0x3000"));
  const auto r = CodeMapFile::salvage(torn, key(8), 0);
  ASSERT_FALSE(r.intact);
  ASSERT_EQ(r.file.entries.size(), 2u);

  const std::string rewritten = r.file.serialize(kPid);
  EXPECT_TRUE(CodeMapFile::salvage(rewritten, key(8), 0).intact);
  const auto parsed = CodeMapFile::parse(rewritten, key(8));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->truncated);
  ASSERT_EQ(parsed->entries.size(), 2u);
  EXPECT_EQ(parsed->entries[1].symbol, "b");
}

TEST(CodeMapFile, EpochFromPath) {
  EXPECT_EQ(CodeMapFile::epoch_from_path(CodeMapFile::path_for("jit_maps", 42, 17)),
            17u);
  EXPECT_EQ(CodeMapFile::epoch_from_path("map.00000003"), 3u);
  EXPECT_FALSE(CodeMapFile::epoch_from_path("RVM.map").has_value());
  EXPECT_FALSE(CodeMapFile::epoch_from_path("map.notanumber").has_value());
}

// Each kind reads only its own basename prefix: the "map." inside "omap."
// is not a code map's epoch, and "map." must start the last component.
TEST(CodeMapFile, EpochFromPathIsKindExact) {
  const std::string omap = ObjectMapFile::path_for("obj_maps", 42, 5);
  EXPECT_FALSE(CodeMapFile::epoch_from_path(omap).has_value());
  EXPECT_EQ(ObjectMapFile::epoch_from_path(omap), 5u);
  EXPECT_FALSE(ObjectMapFile::epoch_from_path(CodeMapFile::path_for("jit_maps", 42, 5))
                   .has_value());
  EXPECT_FALSE(CodeMapFile::epoch_from_path("jit_maps/42/xmap.00000005").has_value());
  EXPECT_FALSE(CodeMapFile::epoch_from_path("jit_maps/map.00000005/x").has_value());
  EXPECT_FALSE(CodeMapFile::epoch_from_path("jit_maps/42/map.00000005.tmp").has_value());
  EXPECT_EQ(CodeMapFile::epoch_from_path("map.dir/42/map.00000005"), 5u);
}

// A pid component is read only in the spelling path_for writes: the map
// of "jit_maps/012/..." or of a pid past 32 bits is no pid's map.
TEST(CodeMapFile, PidFromMapPathIsCanonical) {
  EXPECT_EQ(pid_from_map_path(CodeMapFile::path_for("jit_maps", 12, 1)), 12u);
  EXPECT_EQ(pid_from_map_path(ObjectMapFile::path_for("obj_maps", 12, 1)), 12u);
  EXPECT_EQ(pid_from_map_path("jit_maps/0/map.00000001"), 0u);
  EXPECT_EQ(pid_from_map_path("12/map.00000001"), 12u);
  EXPECT_EQ(pid_from_map_path("jit_maps/4294967295/map.00000001"), 4294967295u);
  EXPECT_EQ(CodeMapFile::path_for("jit_maps", 4294967295u, 1),
            "jit_maps/4294967295/map.00000001");

  for (const char* path : {"jit_maps/012/map.00000001", "jit_maps/00/map.00000001",
                           "jit_maps/4294967296/map.00000001",
                           "jit_maps/4294967308/map.00000001",
                           "jit_maps/99999999999999999999/map.00000001",
                           "jit_maps/+12/map.00000001", "jit_maps/1 2/map.00000001",
                           "jit_maps//map.00000001", "map.00000001", "/map.00000001"})
    EXPECT_FALSE(pid_from_map_path(path).has_value()) << path;
}

// A map under a non-canonical pid spelling is listed by no reload, so its
// salvage is keyed as pid 0's: another pid's bytes there keep nothing.
TEST(CodeMapFile, SalvageFileUnderNonCanonicalPidKeepsNothing) {
  const std::string bytes = map_of(1, {{0x1000, 16, "a"}}).serialize(12);
  EXPECT_TRUE(CodeMapFile::salvage_file("jit_maps/12/map.00000001", bytes).intact);
  const CodeMapFile::Recovery r = CodeMapFile::salvage_file("jit_maps/012/map.00000001", bytes);
  EXPECT_FALSE(r.intact);
  EXPECT_TRUE(r.file.entries.empty());
}

TEST(CodeMapIndex, LoadSalvagesDamagedFilesAndCountsThem) {
  os::Vfs vfs;
  vfs.write(CodeMapFile::path_for("jit_maps", 42, 0),
            map_of(0, {{0x1000, 100, "a"}}).serialize(42));
  std::string torn =
      map_of(1, {{0x2000, 100, "b"}, {0x3000, 100, "c"}}).serialize(42);
  torn.resize(torn.size() - 18);  // lose the crc trailer and part of "c"
  vfs.write(CodeMapFile::path_for("jit_maps", 42, 1), torn);

  CodeMapIndex index;
  const auto stats = index.load(vfs, "jit_maps", 42);
  EXPECT_EQ(stats.maps_loaded, 2u);
  EXPECT_EQ(stats.maps_intact, 1u);
  EXPECT_EQ(stats.maps_truncated, 1u);
  EXPECT_TRUE(index.epoch_truncated(1));
  EXPECT_EQ(index.truncated_count(), 1u);
}

TEST(CodeMapIndex, LookupRefusesToCrossMissingEpoch) {
  CodeMapIndex index;
  index.add(map_of(0, {{0x1000, 100, "old"}}));
  index.add(map_of(2, {{0x9000, 100, "other"}}));  // epoch 1's map was lost
  // The lax resolve guesses "old"; the crash-aware lookup refuses.
  EXPECT_EQ(index.resolve(0x1000, 2)->symbol, "old");
  const auto lk = index.lookup(0x1000, 2);
  EXPECT_FALSE(lk.hit.has_value());
  EXPECT_EQ(lk.miss, JitLookupMiss::kMissingEpochMap);
  // Below the gap the walk is contiguous and still works.
  EXPECT_EQ(index.lookup(0x1000, 0).hit->symbol, "old");
}

TEST(CodeMapIndex, LookupRefusesToCrossTruncatedEpoch) {
  CodeMapIndex index;
  index.add(map_of(0, {{0x1000, 100, "old"}}));
  CodeMapFile damaged = map_of(1, {{0x5000, 100, "salvaged"}});
  damaged.truncated = true;
  index.add(damaged);

  // A hit inside the salvaged prefix is trusted (entries are checksummed)...
  EXPECT_EQ(index.lookup(0x5000, 1).hit->symbol, "salvaged");
  // ...but absence proves nothing: the walk stops instead of guessing "old".
  const auto lk = index.lookup(0x1000, 1);
  EXPECT_FALSE(lk.hit.has_value());
  EXPECT_EQ(lk.miss, JitLookupMiss::kTruncatedMap);
}

TEST(CodeMapIndex, LookupMissKinds) {
  CodeMapIndex empty;
  EXPECT_EQ(empty.lookup(0x1000, 3).miss, JitLookupMiss::kNoMaps);

  CodeMapIndex intact;
  intact.add(map_of(0, {{0x1000, 100, "a"}}));
  intact.add(map_of(1, {{0x2000, 100, "b"}}));
  const auto lk = intact.lookup(0x7777, 1);  // all maps intact, pc nowhere
  EXPECT_EQ(lk.miss, JitLookupMiss::kNotFound);
  EXPECT_EQ(intact.lookup(0x1000, 1).hit->maps_searched, 2u);
}

TEST(CodeMapIndex, EntriesSortedEvenIfWrittenUnsorted) {
  CodeMapIndex index;
  index.add(map_of(0, {{0x3000, 100, "c"}, {0x1000, 100, "a"}, {0x2000, 100, "b"}}));
  EXPECT_EQ(index.resolve(0x1000, 0)->symbol, "a");
  EXPECT_EQ(index.resolve(0x2050, 0)->symbol, "b");
  EXPECT_EQ(index.resolve(0x3050, 0)->symbol, "c");
}

// A damaged map whose header epoch lost a digit to bit rot must file its
// salvaged entries under the epoch its file name carries, marked
// truncated; an intact map is unaffected. Both map formats.
TEST(MapSalvage, FlippedHeaderEpochDigitFilesUnderTheFileNameEpoch) {
  const hw::Pid pid = 7;
  os::Vfs vfs;
  // Code maps: epoch 12 written with "epoch 13" in its header; epoch 11 intact.
  const CodeMapFile intact = map_of(11, {{0x1000, 0x100, "app.K.old"}});
  const CodeMapFile damaged =
      map_of(12, {{0x2000, 0x100, "app.K.a"}, {0x3000, 0x100, "app.K.b"}});
  std::string bytes = damaged.serialize(pid);
  ASSERT_EQ(bytes.compare(0, 9, "epoch 12 "), 0);
  bytes[7] = '3';
  const std::string path = CodeMapFile::path_for("jit_maps", pid, 12);
  const std::string intact_path = CodeMapFile::path_for("jit_maps", pid, 11);
  vfs.write(path, bytes);
  vfs.write(intact_path, intact.serialize(pid));

  const CodeMapFile::Recovery r = CodeMapFile::salvage_file(path, bytes);
  EXPECT_FALSE(r.intact);
  EXPECT_TRUE(r.header_ok);
  EXPECT_EQ(r.file.epoch, 12u);
  EXPECT_TRUE(r.file.truncated);
  EXPECT_EQ(r.file.entries.size(), 2u);
  const CodeMapFile::Recovery ok =
      CodeMapFile::salvage_file(intact_path, intact.serialize(pid));
  EXPECT_TRUE(ok.intact);
  EXPECT_EQ(ok.file.serialize(pid), intact.serialize(pid));

  CodeMapIndex index;
  index.load(vfs, "jit_maps", pid);
  EXPECT_EQ(index.map_count(), 2u);
  EXPECT_EQ(index.max_epoch(), 12u);
  EXPECT_TRUE(index.epoch_truncated(12));
  EXPECT_FALSE(index.epoch_truncated(11));
  const CodeMapIndex::Lookup hit = index.lookup(0x2040, 12);
  ASSERT_TRUE(hit.hit.has_value());
  EXPECT_EQ(hit.hit->symbol, "app.K.a");
  EXPECT_EQ(hit.hit->found_in_epoch, 12u);
  EXPECT_EQ(index.lookup(0x2040, 13).miss, JitLookupMiss::kMissingEpochMap);
  EXPECT_TRUE(index.lookup(0x1040, 11).hit.has_value());

  // Object maps: epoch 12 written with "omap 13" in its header.
  ObjectMapFile omap;
  omap.epoch = 12;
  omap.sites = {{0, support::Name("Alloc.site:1")}};
  omap.objects = {{0x6000, 64, 1, 0}, {0x6100, 64, 2, 0}};
  std::string obytes = omap.serialize(pid);
  ASSERT_EQ(obytes.compare(0, 8, "omap 12 "), 0);
  obytes[6] = '3';
  const std::string opath = ObjectMapFile::path_for("obj_maps", pid, 12);
  const std::string ointact_path = ObjectMapFile::path_for("obj_maps", pid, 11);
  ObjectMapFile ointact = omap;
  ointact.epoch = 11;
  vfs.write(opath, obytes);
  vfs.write(ointact_path, ointact.serialize(pid));

  const ObjectMapFile::Recovery orec = ObjectMapFile::salvage_file(opath, obytes);
  EXPECT_FALSE(orec.intact);
  EXPECT_EQ(orec.file.epoch, 12u);
  EXPECT_TRUE(orec.file.truncated);
  EXPECT_EQ(orec.file.objects.size(), 2u);
  const ObjectMapFile::Recovery ook =
      ObjectMapFile::salvage_file(ointact_path, ointact.serialize(pid));
  EXPECT_TRUE(ook.intact);
  EXPECT_EQ(ook.file.serialize(pid), ointact.serialize(pid));

  const ObjectIndexLoad load = load_object_index(vfs, "obj_maps", pid);
  EXPECT_EQ(load.maps_loaded, 2u);
  EXPECT_EQ(load.maps_truncated, 1u);
  EXPECT_EQ(load.index.max_epoch(), 12u);
  EXPECT_TRUE(load.index.epoch_truncated(12));
  EXPECT_FALSE(load.index.epoch_truncated(11));
  const CodeMapIndex::Lookup ohit = load.index.lookup(0x6120, 12);
  ASSERT_TRUE(ohit.hit.has_value());
  EXPECT_EQ(ohit.hit->found_in_epoch, 12u);
}

}  // namespace
}  // namespace viprof::core
