// Property test for object-sample resolution (DESIGN.md §15): across
// randomized moving-GC schedules — objects allocated, copied between
// semispaces, promoted to the mature region and reclaimed, with epoch maps
// randomly lost or torn — resolving a data address through the flattened
// epoch index (resolve_object over the code-map projection) must agree
// exactly with a naive backward walk over the object-map files themselves,
// including every crash-aware refusal. Runs under TSan in the sanitizer CI
// stage: the shared prepared index is probed from several threads. The
// same schedules feed the SiteTable merge property: any split of the maps
// over tables, merged in any order, equals one table that ingests them all.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/code_map.hpp"
#include "core/object_map.hpp"
#include "memprof/resolve.hpp"
#include "memprof/site_table.hpp"
#include "support/rng.hpp"

namespace viprof::memprof {
namespace {

constexpr hw::Address kSemiBase[2] = {0x6200'0000, 0x6280'0000};
constexpr hw::Address kMatureBase = 0x6400'0000;

struct LiveObject {
  std::uint64_t id;
  hw::Address address;
  std::uint64_t size;
  std::uint32_t site;
  std::uint32_t age = 0;
  std::uint32_t lifetime;
  bool mature = false;
};

struct Schedule {
  std::map<std::uint64_t, core::ObjectMapFile> kept;  // maps that survived, by epoch
  core::CodeMapIndex index;
  std::uint64_t max_epoch = 0;
  std::vector<hw::Address> interesting;  // addresses that were ever occupied
};

/// Simulates `epochs` epochs of a copying collector over tracked objects,
/// writing one partial map per epoch exactly like the agent: objects
/// allocated this epoch plus objects the previous collection moved, plus
/// the previous collection's deaths. Each serialised map is then randomly
/// lost (never written) or torn (salvaged prefix), and the survivors feed
/// one CodeMapIndex through the to_code_map() projection.
Schedule random_schedule(support::Xoshiro256& rng, std::uint64_t epochs) {
  Schedule out;
  out.max_epoch = epochs == 0 ? 0 : epochs - 1;
  std::vector<LiveObject> live;
  std::vector<std::uint64_t> pending;  // ids for the next map (alloc or moved)
  std::vector<core::ObjectDeath> pending_dead;
  std::uint64_t next_id = 1;
  std::uint64_t mature_cursor = 0;

  auto find_live = [&](std::uint64_t id) -> LiveObject& {
    for (LiveObject& o : live)
      if (o.id == id) return o;
    static LiveObject none;
    ADD_FAILURE() << "pending id " << id << " not live";
    return none;
  };

  for (std::uint64_t e = 0; e < epochs; ++e) {
    std::uint64_t semi_cursor = 0;
    // The previous collection's survivors were copied into this epoch's
    // semispace; place them now (their map entry carries the new address).
    for (const std::uint64_t id : pending) {
      LiveObject& o = find_live(id);
      if (o.mature) continue;  // promoted at the same collection
      o.address = kSemiBase[e % 2] + semi_cursor;
      semi_cursor += o.size;
    }
    // Fresh allocations of this epoch.
    const std::uint64_t births = 1 + rng.below(12);
    for (std::uint64_t i = 0; i < births; ++i) {
      LiveObject o;
      o.id = next_id++;
      o.size = 32 + rng.below(8) * 32;
      o.site = static_cast<std::uint32_t>(rng.below(6));
      o.lifetime = static_cast<std::uint32_t>(rng.below(4));  // 0 = die young
      o.address = kSemiBase[e % 2] + semi_cursor;
      semi_cursor += o.size;
      live.push_back(o);
      pending.push_back(o.id);
    }

    core::ObjectMapFile file;
    file.epoch = e;
    for (std::uint32_t s = 0; s < 6; ++s)
      file.sites.push_back({s, support::Name("alloc.site." + std::to_string(s))});
    for (const std::uint64_t id : pending) {
      const LiveObject& o = find_live(id);
      file.objects.push_back({o.address, o.size, o.id, o.site});
      out.interesting.push_back(o.address);
      out.interesting.push_back(o.address + o.size - 1);
      out.interesting.push_back(o.address + o.size);  // one past: never covered by o
    }
    file.dead = pending_dead;
    pending.clear();
    pending_dead.clear();

    // The write may be lost or torn — exercised through the real
    // serialise/salvage path so the index sees exactly what a reader would.
    const std::uint64_t fate = rng.below(100);
    if (fate < 20) {
      // Lost: the epoch has no map at all.
    } else if (fate < 40) {
      const std::string blob = file.serialize(0);
      const std::size_t cut = rng.below(blob.size());
      const core::ObjectMapFile::Recovery r = core::ObjectMapFile::salvage(
          blob.substr(0, cut), core::ObjectMapFile::frame_hash(0, e), e);
      out.kept.emplace(e, r.file);
      out.index.add(r.file.to_code_map());
    } else {
      out.kept.emplace(e, file);
      out.index.add(file.to_code_map());
    }

    // The collection closing epoch e: age every survivor, reclaim the
    // expired (death recorded in the *next* epoch's map), copy the rest —
    // occasionally promoting to the mature region, where the object stops
    // appearing in any later map.
    std::vector<LiveObject> next_live;
    for (LiveObject& o : live) {
      ++o.age;
      if (!o.mature && o.age > o.lifetime) {
        pending_dead.push_back({o.id, o.size, o.site});
        continue;
      }
      if (o.mature) {
        next_live.push_back(o);
        continue;
      }
      if (rng.below(100) < 15) {
        o.mature = true;
        o.address = kMatureBase + mature_cursor;
        mature_cursor += o.size;
      }
      pending.push_back(o.id);  // moved (or just promoted): in the next map
      next_live.push_back(o);
    }
    live.swap(next_live);
  }
  out.index.prepare();
  return out;
}

/// The naive oracle: the literal backward walk of DESIGN.md §15 over the
/// surviving ObjectMapFiles, independent of CodeMapIndex. Returns the
/// symbol resolve_object must produce.
std::string oracle(const Schedule& s, hw::Address addr, std::uint64_t epoch) {
  if (s.kept.empty()) return kUnresolvedObjNoMap;
  for (std::uint64_t e = epoch;; --e) {
    const auto it = s.kept.find(e);
    if (it == s.kept.end()) return kUnresolvedObjNoMap;
    for (const core::ObjectMapEntry& o : it->second.objects)
      if (o.contains(addr)) return core::site_symbol(o.site);
    if (it->second.truncated) return kUnresolvedObjTruncated;
    if (e == 0) return kUnresolvedObjUntracked;
  }
}

hw::Address random_probe(support::Xoshiro256& rng, const Schedule& s) {
  const std::uint64_t where = rng.below(10);
  if (where == 0) return kSemiBase[0] - 1 - rng.below(0x1000);  // below the heap
  if (where == 1) return kMatureBase + rng.below(0x10'0000);    // mature region
  if (where < 4 || s.interesting.empty())
    return kSemiBase[rng.below(2)] + rng.below(0x4000);  // anywhere in a semispace
  return s.interesting[rng.below(s.interesting.size())];  // boundary-exact
}

class MemprofResolveProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MemprofResolveProperty, IndexMatchesNaiveBackwardWalk) {
  support::Xoshiro256 rng(GetParam() * 0x9e37 + 5);
  const std::uint64_t epochs = 2 + rng.below(12);
  const Schedule s = random_schedule(rng, epochs);

  ObjectResolveStats stats;
  const int kProbes = 3000;
  for (int probe = 0; probe < kProbes; ++probe) {
    const hw::Address addr = random_probe(rng, s);
    const std::uint64_t epoch = rng.below(s.max_epoch + 3);
    const core::Resolution res = resolve_object(&s.index, addr, epoch, &stats);
    ASSERT_EQ(res.symbol, oracle(s, addr, epoch))
        << "addr=" << addr << " epoch=" << epoch << " seed=" << GetParam();
    EXPECT_EQ(res.image, kObjectImage);
    EXPECT_EQ(res.domain, core::SampleDomain::kObject);

    // The flattened lookup the resolver rides on must itself agree with the
    // walkback oracle over projected object entries.
    const auto flat = s.index.lookup(addr, epoch);
    const auto walk = s.index.lookup_walkback(addr, epoch);
    ASSERT_EQ(flat.miss, walk.miss) << "addr=" << addr << " epoch=" << epoch;
    ASSERT_EQ(flat.hit.has_value(), walk.hit.has_value());
    if (flat.hit) ASSERT_EQ(flat.hit->symbol, walk.hit->symbol);
  }
  EXPECT_EQ(stats.resolved + stats.unresolved, static_cast<std::uint64_t>(kProbes));
  EXPECT_EQ(stats.unresolved, stats.no_map + stats.truncated_map + stats.untracked);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemprofResolveProperty,
                         ::testing::Range<std::uint64_t>(0, 16));

// The prepared index is shared read-only by every ingest worker; under TSan
// this asserts the const-query thread-safety contract for the object
// projection, and that concurrent resolution loses no sample to a bin the
// serial walk would not have chosen.
TEST(MemprofResolveProperty, ConcurrentResolutionMatchesSerial) {
  support::Xoshiro256 rng(0xc0ffee);
  const Schedule s = random_schedule(rng, 10);

  constexpr int kThreads = 4;
  constexpr int kProbes = 4000;
  std::vector<ObjectResolveStats> stats(kThreads);
  std::vector<std::uint64_t> mismatches(kThreads, 0);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t]() {
        support::Xoshiro256 trng(0x7000 + t);
        for (int i = 0; i < kProbes; ++i) {
          const hw::Address addr = random_probe(trng, s);
          const std::uint64_t epoch = trng.below(s.max_epoch + 3);
          const core::Resolution res = resolve_object(&s.index, addr, epoch, &stats[t]);
          if (res.symbol != oracle(s, addr, epoch)) ++mismatches[t];
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }

  ObjectResolveStats merged;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
    merged.merge(stats[t]);
  }
  // Replaying each thread's probe stream serially yields the same tallies.
  ObjectResolveStats serial;
  for (int t = 0; t < kThreads; ++t) {
    support::Xoshiro256 trng(0x7000 + t);
    for (int i = 0; i < kProbes; ++i) {
      const hw::Address addr = random_probe(trng, s);
      resolve_object(&s.index, addr, trng.below(s.max_epoch + 3), &serial);
    }
  }
  EXPECT_EQ(merged.resolved, serial.resolved);
  EXPECT_EQ(merged.no_map, serial.no_map);
  EXPECT_EQ(merged.truncated_map, serial.truncated_map);
  EXPECT_EQ(merged.untracked, serial.untracked);
  EXPECT_EQ(merged.backward_steps, serial.backward_steps);
}

void expect_same_sites(const SiteTable& got, const SiteTable& want, std::uint64_t seed) {
  ASSERT_EQ(got.sites().size(), want.sites().size()) << "seed=" << seed;
  for (const auto& [key, w] : want.sites()) {
    const auto it = got.sites().find(key);
    ASSERT_NE(it, got.sites().end()) << "pid=" << key.first << " site=" << key.second;
    const SiteStats& g = it->second;
    EXPECT_EQ(g.name, w.name) << "seed=" << seed;
    EXPECT_EQ(g.alloc_objects, w.alloc_objects) << "seed=" << seed;
    EXPECT_EQ(g.alloc_bytes, w.alloc_bytes) << "seed=" << seed;
    EXPECT_EQ(g.dead_objects, w.dead_objects) << "seed=" << seed;
    EXPECT_EQ(g.dead_bytes, w.dead_bytes) << "seed=" << seed;
  }
}

// SiteTable::merge is an order-free, idempotent union (DESIGN.md §15). Maps
// of two sessions that share pids (lost and torn maps included) are split
// over several tables, some maps fed to two tables, then the tables are
// merged in a random tree — some merged twice or into themselves, some
// folded into again after adopting a partition. The result must have the
// sites() of one table that ingests every map once, and the map counts of
// one table that ingests every map as often as the merges fed it.
class SiteTableMergeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SiteTableMergeProperty, AnySplitAnyMergeOrderEqualsOneTable) {
  const std::uint64_t seed = GetParam();
  support::Xoshiro256 rng(seed * 0x51ab + 3);
  struct Fed {
    std::string scope;
    hw::Pid pid;
    core::ObjectMapFile file;
  };
  std::vector<Fed> maps;
  for (const std::string scope : {"sess-a", "sess-b"}) {
    for (const hw::Pid pid : {7u, 9u}) {
      const Schedule s = random_schedule(rng, 2 + rng.below(8));
      for (const auto& [epoch, file] : s.kept) {
        Fed fed{scope, pid, file};
        // Per-session names: the lexicographic-min winner must not depend
        // on which table saw which session first.
        for (core::SiteName& sn : fed.file.sites) sn.name = sn.name.str() + "." + scope;
        maps.push_back(std::move(fed));
      }
    }
  }
  ASSERT_FALSE(maps.empty());

  struct Part {
    SiteTable table;
    std::vector<std::size_t> fed;  // indices into `maps`, with multiplicity
  };
  const auto feed = [&](Part& part, std::size_t m) {
    part.table.ingest(maps[m].scope, maps[m].pid, maps[m].file);
    part.fed.push_back(m);
  };
  const auto absorb = [](Part& into, const Part& from) {
    into.table.merge(from.table);
    into.fed.insert(into.fed.end(), from.fed.begin(), from.fed.end());
  };
  std::vector<Part> pool(1 + rng.below(5));
  for (std::size_t m = 0; m < maps.size(); ++m) {
    feed(pool[rng.below(pool.size())], m);
    if (rng.below(4) == 0) feed(pool[rng.below(pool.size())], m);  // duplicate partition
  }
  while (pool.size() > 1) {
    const std::size_t i = rng.below(pool.size());
    std::size_t j = rng.below(pool.size() - 1);
    if (j >= i) ++j;
    absorb(pool[i], pool[j]);
    if (rng.below(4) == 0) absorb(pool[i], pool[j]);  // the same partitions again
    if (rng.below(8) == 0) {
      const std::vector<std::size_t> fed = pool[i].fed;
      pool[i].table.merge(pool[i].table);
      pool[i].fed.insert(pool[i].fed.end(), fed.begin(), fed.end());
    }
    if (rng.below(3) == 0) feed(pool[i], rng.below(maps.size()));
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(j));
  }

  SiteTable once;
  for (const Fed& m : maps) once.ingest(m.scope, m.pid, m.file);
  std::vector<std::size_t> order = pool[0].fed;
  for (std::size_t k = order.size(); k > 1; --k) std::swap(order[k - 1], order[rng.below(k)]);
  SiteTable replayed;
  for (const std::size_t m : order) replayed.ingest(maps[m].scope, maps[m].pid, maps[m].file);

  expect_same_sites(pool[0].table, once, seed);
  expect_same_sites(replayed, once, seed);
  EXPECT_EQ(pool[0].table.maps_ingested(), replayed.maps_ingested());
  EXPECT_EQ(pool[0].table.maps_truncated(), replayed.maps_truncated());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SiteTableMergeProperty,
                         ::testing::Range<std::uint64_t>(0, 24));

}  // namespace
}  // namespace viprof::memprof
