// Object-map format unit tests (DESIGN.md §15): serialise/parse round
// trips, the §7-style salvage sweep with exact salvaged+lost accounting,
// the code-map projection that lets a plain core::CodeMapIndex resolve
// object samples, and the dedup semantics of the per-site accounting table.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/object_map.hpp"
#include "memprof/site_table.hpp"
#include "os/vfs.hpp"

namespace viprof::memprof {
namespace {

core::ObjectMapFile sample_map(std::uint64_t epoch) {
  core::ObjectMapFile file;
  file.epoch = epoch;
  file.sites = {{0, support::Name("Leaky.grow:12")},
                {1, support::Name("Hot.alloc:3")},
                {2, support::Name("Cold.fill:77")}};
  file.objects = {
      {0x6200'0000, 128, 1, 0},
      {0x6200'0080, 1024, 2, 1},
      {0x6200'0480, 64, 3, 2},
      {0x6201'0000, 32768, 4, 1},
  };
  file.dead = {{7, 256, 0}, {9, 64, 2}};
  return file;
}

/// Every map here is kPid's unless a test says otherwise.
constexpr hw::Pid kPid = 101;

/// The frame hash of kPid's map of `epoch`.
support::FrameHash key(std::uint64_t epoch) {
  return core::ObjectMapFile::frame_hash(kPid, epoch);
}

TEST(ObjectMapFile, SerializeParseRoundTrip) {
  const core::ObjectMapFile file = sample_map(5);
  const auto parsed = core::ObjectMapFile::parse(file.serialize(kPid), key(5));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->epoch, 5u);
  EXPECT_FALSE(parsed->truncated);
  ASSERT_EQ(parsed->sites.size(), 3u);
  EXPECT_EQ(parsed->sites[1].name, "Hot.alloc:3");
  ASSERT_EQ(parsed->objects.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(parsed->objects[i].address, file.objects[i].address);
    EXPECT_EQ(parsed->objects[i].size, file.objects[i].size);
    EXPECT_EQ(parsed->objects[i].obj_id, file.objects[i].obj_id);
    EXPECT_EQ(parsed->objects[i].site, file.objects[i].site);
  }
  ASSERT_EQ(parsed->dead.size(), 2u);
  EXPECT_EQ(parsed->dead[0].obj_id, 7u);
  EXPECT_EQ(parsed->dead[1].site, 2u);
}

TEST(ObjectMapFile, TruncatedMarkerSurvivesReserialisation) {
  core::ObjectMapFile file = sample_map(3);
  file.truncated = true;  // a salvaged map rewritten by fsck stays honest
  const auto parsed = core::ObjectMapFile::parse(file.serialize(kPid), key(3));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->truncated);
  EXPECT_EQ(parsed->objects.size(), 4u);
}

TEST(ObjectMapFile, ParseRejectsDamage) {
  std::string blob = sample_map(2).serialize(kPid);
  EXPECT_TRUE(core::ObjectMapFile::parse(blob, key(2)).has_value());
  // Flip one payload byte: the crc trailer must catch it.
  std::string flipped = blob;
  flipped[blob.size() / 2] ^= 0x20;
  EXPECT_FALSE(core::ObjectMapFile::parse(flipped, key(2)).has_value());
  // Drop the trailer entirely.
  EXPECT_FALSE(
      core::ObjectMapFile::parse(blob.substr(0, blob.rfind("crc ")), key(2)).has_value());
  EXPECT_FALSE(core::ObjectMapFile::parse("", key(2)).has_value());
}

// The §7 torn-write sweep: cut the serialised map at *every* byte length
// and salvage. Whenever the header survived, salvaged + lost must equal
// the declared counts exactly — that equality is what makes a torn object
// map a counted loss rather than a silent one — and every salvaged entry
// must byte-match the original prefix (no invented attribution).
TEST(ObjectMapFile, SalvageSweepAccountsForEveryEntry) {
  const core::ObjectMapFile file = sample_map(6);
  const std::string blob = file.serialize(kPid);
  for (std::size_t cut = 0; cut <= blob.size(); ++cut) {
    const core::ObjectMapFile::Recovery r =
        core::ObjectMapFile::salvage(blob.substr(0, cut), key(6), 6);
    if (cut == blob.size()) {
      EXPECT_TRUE(r.intact);
      EXPECT_FALSE(r.file.truncated);
      continue;
    }
    EXPECT_FALSE(r.intact) << "cut=" << cut;
    EXPECT_TRUE(r.file.truncated) << "cut=" << cut;
    EXPECT_EQ(r.file.epoch, 6u) << "cut=" << cut;  // header or hint
    if (r.header_ok) {
      EXPECT_EQ(r.objects_expected, file.objects.size());
      EXPECT_EQ(r.dead_expected, file.dead.size());
      // Exact loss accounting: what was salvaged plus what was lost is
      // exactly what the writer declared (and acked).
      EXPECT_LE(r.file.objects.size(), r.objects_expected);
      EXPECT_LE(r.file.dead.size(), r.dead_expected);
    }
    ASSERT_LE(r.file.objects.size(), file.objects.size());
    for (std::size_t i = 0; i < r.file.objects.size(); ++i) {
      EXPECT_EQ(r.file.objects[i].address, file.objects[i].address);
      EXPECT_EQ(r.file.objects[i].obj_id, file.objects[i].obj_id);
      EXPECT_EQ(r.file.objects[i].site, file.objects[i].site);
    }
    for (std::size_t i = 0; i < r.file.dead.size(); ++i)
      EXPECT_EQ(r.file.dead[i].obj_id, file.dead[i].obj_id);
  }
}

TEST(ObjectMapFile, PathRoundTripAndEpochParsing) {
  const std::string path = core::ObjectMapFile::path_for("obj_maps", 101, 42);
  EXPECT_EQ(path, "obj_maps/101/omap.00000042");
  const auto epoch = core::ObjectMapFile::epoch_from_path(path);
  ASSERT_TRUE(epoch.has_value());
  EXPECT_EQ(*epoch, 42u);
  EXPECT_FALSE(core::ObjectMapFile::epoch_from_path("obj_maps/101/stats").has_value());
  EXPECT_FALSE(core::ObjectMapFile::epoch_from_path("obj_maps/101/omap.").has_value());
  EXPECT_FALSE(core::ObjectMapFile::epoch_from_path("obj_maps/101/omap.12x").has_value());
  // Zero padding keeps VFS listings in epoch order.
  EXPECT_LT(core::ObjectMapFile::path_for("d", 1, 9),
            core::ObjectMapFile::path_for("d", 1, 10));
}

TEST(ObjectMapFile, SiteSymbolRoundTrip) {
  for (std::uint32_t site : {0u, 1u, 7u, 65535u}) {
    const auto parsed = core::site_from_symbol(core::site_symbol(site));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, site);
  }
  EXPECT_FALSE(core::site_from_symbol("Leaky.grow:12").has_value());
  EXPECT_FALSE(core::site_from_symbol("site#").has_value());
  EXPECT_FALSE(core::site_from_symbol("site#x7").has_value());
}

TEST(ObjectMapFile, CodeMapProjectionPreservesRangesAndEpoch) {
  core::ObjectMapFile file = sample_map(9);
  file.truncated = true;
  const core::CodeMapFile code = file.to_code_map();
  EXPECT_EQ(code.epoch, 9u);
  EXPECT_TRUE(code.truncated);
  ASSERT_EQ(code.entries.size(), file.objects.size());
  for (std::size_t i = 0; i < file.objects.size(); ++i) {
    EXPECT_EQ(code.entries[i].address, file.objects[i].address);
    EXPECT_EQ(code.entries[i].size, file.objects[i].size);
    EXPECT_EQ(code.entries[i].symbol, core::site_symbol(file.objects[i].site));
  }
}

TEST(SiteTable, IngestIsIdempotentPerObject) {
  SiteTable table;
  const core::ObjectMapFile map5 = sample_map(5);
  table.ingest(101, map5);
  table.ingest(101, map5);  // a federated query may see a map twice

  // Object 2 moved: it reappears in the next epoch's map at a new address.
  core::ObjectMapFile map6;
  map6.epoch = 6;
  map6.sites = map5.sites;
  map6.objects = {{0x6300'0080, 1024, 2, 1}};
  map6.dead = {{1, 128, 0}};  // object 1 died at the collection closing 5
  table.ingest(101, map6);

  EXPECT_EQ(table.maps_ingested(), 3u);
  const auto& sites = table.sites();
  const SiteStats& s0 = sites.at({101, 0});
  const SiteStats& s1 = sites.at({101, 1});
  // Site 0: object 1 (128 B) allocated once despite double ingest, plus the
  // pre-map death of object 7 (256 B) charged from the dead line alone.
  EXPECT_EQ(s0.alloc_objects, 1u);
  EXPECT_EQ(s0.alloc_bytes, 128u);
  EXPECT_EQ(s0.dead_objects, 2u);  // obj 1 + the dead-line-only obj 7
  EXPECT_EQ(s0.dead_bytes, 128u + 256u);
  // Site 1: objects 2 and 4; the move re-sighting of object 2 charges
  // nothing new.
  EXPECT_EQ(s1.alloc_objects, 2u);
  EXPECT_EQ(s1.alloc_bytes, 1024u + 32768u);
  EXPECT_EQ(s1.live_bytes(), 1024u + 32768u);
  EXPECT_EQ(table.name_of(101, 1), "Hot.alloc:3");

  // merge: adopting the partition, then meeting it again (a federated query
  // seeing the session through two shards) charges nothing twice; only the
  // map counts sum per fold. A later ingest into the adopted partition
  // still dedups against the maps it came with.
  SiteTable merged;
  merged.merge(table);
  merged.merge(table);
  merged.ingest(101, map6);
  EXPECT_EQ(merged.maps_ingested(), 7u);
  ASSERT_EQ(merged.sites().size(), sites.size());
  for (const auto& [key, stats] : sites) {
    const SiteStats& m = merged.sites().at(key);
    EXPECT_EQ(m.name, stats.name);
    EXPECT_EQ(m.alloc_objects, stats.alloc_objects);
    EXPECT_EQ(m.alloc_bytes, stats.alloc_bytes);
    EXPECT_EQ(m.dead_objects, stats.dead_objects);
    EXPECT_EQ(m.dead_bytes, stats.dead_bytes);
  }
}

TEST(SiteTable, DictionaryFallbackNamesLostSites) {
  SiteTable table;
  core::ObjectMapFile bare;  // salvaged so early its dictionary lines are gone
  bare.epoch = 0;
  bare.truncated = true;
  bare.objects = {{0x6200'0000, 64, 1, 4}};
  table.ingest(7, bare);
  EXPECT_EQ(table.maps_truncated(), 1u);
  EXPECT_EQ(table.name_of(7, 4), core::site_symbol(4));
  // A later intact map supplies the real name.
  core::ObjectMapFile named;
  named.epoch = 1;
  named.sites = {{4, support::Name("Real.name:9")}};
  named.objects = {{0x6300'0000, 64, 1, 4}};
  table.ingest(7, named);
  EXPECT_EQ(table.name_of(7, 4), "Real.name:9");
  EXPECT_EQ(table.sites().at({7, 4}).alloc_objects, 1u);  // still deduped
}

TEST(ObjectIndex, LoadSalvagesDamageAndIndexesTheRest) {
  os::Vfs vfs;
  const core::ObjectMapFile m0 = sample_map(0);
  core::ObjectMapFile m1 = sample_map(1);
  m1.objects = {{0x6300'0000, 512, 11, 0}};
  m1.dead.clear();
  ASSERT_EQ(vfs.write(core::ObjectMapFile::path_for("obj_maps", 101, 0), m0.serialize(101)),
            os::IoStatus::kOk);
  const std::string torn = m1.serialize(101);
  ASSERT_EQ(vfs.write(core::ObjectMapFile::path_for("obj_maps", 101, 1),
                      torn.substr(0, torn.size() - 4)),
            os::IoStatus::kOk);
  // A foreign pid's map must not leak into this index.
  ASSERT_EQ(vfs.write(core::ObjectMapFile::path_for("obj_maps", 202, 0), m0.serialize(202)),
            os::IoStatus::kOk);

  const core::ObjectIndexLoad load = core::load_object_index(vfs, "obj_maps", 101);
  EXPECT_EQ(load.maps_loaded, 2u);
  EXPECT_EQ(load.maps_truncated, 1u);
  EXPECT_EQ(load.objects_loaded,
            m0.objects.size() + load.files[1].objects.size());
  ASSERT_EQ(load.files.size(), 2u);
  EXPECT_EQ(load.index.map_count(), 2u);
  EXPECT_TRUE(load.index.epoch_truncated(1));
  // The index resolves an epoch-0 object through the projected symbol.
  const auto hit = load.index.resolve(0x6200'0080 + 4, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->symbol, core::site_symbol(1));
}

}  // namespace
}  // namespace viprof::memprof
