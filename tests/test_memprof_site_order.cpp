// memprof::SiteTable order and duplicate independence (DESIGN.md §15):
// every permutation of four partial object maps, two of them fed twice,
// folded under two scopes that share a pid — in one table, split over two
// tables and merged, and adopted by merge() into an empty table that then
// folds the rest — gives the same sites() and the same render_memprof
// bytes, and those equal per-object first-sighting totals computed here
// with std::set. The maps carry obj_ids 0 and ~0, moved objects re-listed
// in later maps, deaths of objects no surviving map sighted, and site
// dictionaries that disagree or are missing.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/object_map.hpp"
#include "core/report.hpp"
#include "memprof/report.hpp"
#include "memprof/site_table.hpp"
#include "support/rng.hpp"

namespace viprof::memprof {
namespace {

using MapPtr = std::shared_ptr<const core::ObjectMapFile>;
constexpr hw::Pid kPid = 7;
constexpr std::uint32_t kSites = 6;

struct Object {
  std::uint64_t id, size;
  std::uint32_t site;
};

/// Epochs 0..3 of one VM. Each map lists the objects allocated in its
/// epoch plus some earlier ones the collector moved (same id, site and
/// size, new address), and deaths of earlier objects and of objects whose
/// sighting was in a map that is not here.
std::array<MapPtr, 4> four_maps() {
  support::Xoshiro256 rng(0x0b1ec7);
  std::vector<Object> born;
  std::array<MapPtr, 4> maps;
  std::uint64_t next_id = 1;
  for (std::uint64_t epoch = 0; epoch < 4; ++epoch) {
    auto map = std::make_shared<core::ObjectMapFile>();
    map->epoch = epoch;
    // Dictionaries: disagreeing names (the lexicographic minimum wins), one
    // map whose dictionary lines were lost, and no name at all for the last
    // site (it renders as "site#5").
    static const char* const kPrefix[4] = {"Zeta", "Alpha", nullptr, "Mid"};
    if (kPrefix[epoch] != nullptr)
      for (std::uint32_t s = 0; s + 1 < kSites; s += 1 + epoch % 2)
        map->sites.push_back({s, support::Name(std::string(kPrefix[epoch]) + ".site" +
                                               std::to_string(s))});
    hw::Address cursor = 0x6200'0000 + epoch * 0x10'0000;
    const auto list = [&](const Object& o) {
      map->objects.push_back({cursor, o.size, o.id, o.site});
      cursor += o.size;
    };
    const std::size_t earlier = born.size();
    for (int i = 0; i < 40; ++i) {
      Object o{next_id++, 32 + rng.below(8) * 16, static_cast<std::uint32_t>(rng.below(kSites))};
      if (epoch == 0 && i == 0) o.id = 0;
      if (epoch == 2 && i == 0) o.id = ~0ull;
      born.push_back(o);
      list(o);
    }
    for (std::size_t i = 0; i < earlier; ++i)
      if (rng.below(3) == 0) list(born[i]);  // moved by the collection
    for (std::size_t i = 0; i < earlier; ++i)
      if (rng.below(4) == 0)
        map->dead.push_back({born[i].id, born[i].size, born[i].site});
    map->dead.push_back({5000 + epoch, 4096, static_cast<std::uint32_t>(epoch)});
    maps[epoch] = std::move(map);
  }
  return maps;
}

struct Feed {
  std::string scope;
  MapPtr map;
};

/// Ten folds: each map once per scope, in an order made from `p`, and two
/// of them again.
std::vector<Feed> feeds_for(const std::array<MapPtr, 4>& maps, const std::array<int, 4>& p) {
  return {{"a", maps[p[0]]}, {"b", maps[p[3]]}, {"a", maps[p[1]]}, {"b", maps[p[2]]},
          {"a", maps[p[2]]}, {"b", maps[p[1]]}, {"a", maps[p[3]]}, {"b", maps[p[0]]},
          {"a", maps[p[1]]}, {"b", maps[p[3]]}};
}

/// First sighting charges the allocation, first dead line the death, per
/// scope; names are the lexicographic minimum of every dictionary.
std::map<std::uint32_t, SiteStats> oracle_sites(const std::array<MapPtr, 4>& maps) {
  std::map<std::uint32_t, SiteStats> out;
  // Both scopes fold the same four maps; obj_ids never dedup across scopes.
  for (int scope = 0; scope < 2; ++scope) {
    std::set<std::uint64_t> alloc, dead;
    for (const MapPtr& m : maps) {
      for (const core::ObjectMapEntry& e : m->objects) {
        if (!alloc.insert(e.obj_id).second) continue;
        ++out[e.site].alloc_objects;
        out[e.site].alloc_bytes += e.size;
      }
      for (const core::ObjectDeath& d : m->dead) {
        if (!dead.insert(d.obj_id).second) continue;
        ++out[d.site].dead_objects;
        out[d.site].dead_bytes += d.size;
      }
    }
  }
  for (const MapPtr& m : maps)
    for (const core::SiteName& sn : m->sites) {
      SiteStats& s = out[sn.site];
      if (s.name.empty() || sn.name.view() < s.name) s.name = sn.name.str();
    }
  for (auto& [site, s] : out)
    if (s.name.empty()) s.name = core::site_symbol(site);
  return out;
}

void expect_same(const SiteTable& got, const SiteTable& want, const std::string& what) {
  ASSERT_EQ(got.sites().size(), want.sites().size()) << what;
  for (const auto& [key, w] : want.sites()) {
    const auto it = got.sites().find(key);
    ASSERT_NE(it, got.sites().end()) << what;
    const SiteStats& g = it->second;
    EXPECT_EQ(g.name, w.name) << what << " site " << key.second;
    EXPECT_EQ(g.alloc_objects, w.alloc_objects) << what << " site " << key.second;
    EXPECT_EQ(g.alloc_bytes, w.alloc_bytes) << what << " site " << key.second;
    EXPECT_EQ(g.dead_objects, w.dead_objects) << what << " site " << key.second;
    EXPECT_EQ(g.dead_bytes, w.dead_bytes) << what << " site " << key.second;
  }
  const core::Profile profile;
  EXPECT_EQ(render_memprof(got, profile, 50), render_memprof(want, profile, 50)) << what;
}

TEST(SiteTableOrder, EveryPermutationSplitAndMergeGivesTheSameTable) {
  const std::array<MapPtr, 4> maps = four_maps();
  std::array<int, 4> p = {0, 1, 2, 3};

  SiteTable reference;
  for (const Feed& f : feeds_for(maps, p)) reference.ingest(f.scope, kPid, f.map);
  EXPECT_EQ(reference.maps_ingested(), 10u);

  // The reference against per-object totals computed independently.
  const std::map<std::uint32_t, SiteStats> oracle = oracle_sites(maps);
  ASSERT_EQ(reference.sites().size(), oracle.size());
  for (const auto& [site, want] : oracle) {
    const SiteStats& got = reference.sites().at({kPid, site});
    EXPECT_EQ(got.name, want.name) << site;
    EXPECT_EQ(got.alloc_objects, want.alloc_objects) << site;
    EXPECT_EQ(got.alloc_bytes, want.alloc_bytes) << site;
    EXPECT_EQ(got.dead_objects, want.dead_objects) << site;
    EXPECT_EQ(got.dead_bytes, want.dead_bytes) << site;
  }

  int perm = 0;
  do {
    const std::vector<Feed> feeds = feeds_for(maps, p);
    const std::string what = "permutation " + std::to_string(perm);

    SiteTable one;
    for (const Feed& f : feeds) one.ingest(f.scope, kPid, f.map);
    expect_same(one, reference, what + " (one table)");

    // Split at a permutation-dependent point and merged; then the first
    // half adopted whole by an empty table (partitions arrive without
    // seen-sets) that folds the second half map by map.
    const std::size_t cut = 1 + static_cast<std::size_t>(perm) % (feeds.size() - 1);
    SiteTable head, tail;
    for (std::size_t i = 0; i < feeds.size(); ++i)
      (i < cut ? head : tail).ingest(feeds[i].scope, kPid, feeds[i].map);
    SiteTable merged = head;
    merged.merge(tail);
    expect_same(merged, reference, what + " (merged at " + std::to_string(cut) + ")");

    SiteTable both;
    both.merge(head);
    both.merge(tail);
    expect_same(both, reference, what + " (both merged into an empty table)");

    SiteTable adopted;
    adopted.merge(head);
    for (std::size_t i = cut; i < feeds.size(); ++i)
      adopted.ingest(feeds[i].scope, kPid, feeds[i].map);
    expect_same(adopted, reference, what + " (adopted, then folded)");
    ++perm;
  } while (std::next_permutation(p.begin(), p.end()));
  EXPECT_EQ(perm, 24);
}

}  // namespace
}  // namespace viprof::memprof
