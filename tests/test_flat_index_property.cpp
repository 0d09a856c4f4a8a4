// Property test for the flattened epoch index (DESIGN.md §9): on randomized
// map populations — gaps, truncation, churn, epoch collisions, overlapping
// and degenerate entries, small and large (40+ maps of 500+ entries) — the O(log n) flattened resolve()/lookup() must agree exactly
// with the original per-query backward walk, kept as resolve_walkback() /
// lookup_walkback().
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/code_map.hpp"
#include "support/rng.hpp"

namespace viprof::core {
namespace {

bool same_hit(const std::optional<CodeMapIndex::Hit>& a,
              const std::optional<CodeMapIndex::Hit>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a.has_value()) return true;
  return a->symbol == b->symbol && a->found_in_epoch == b->found_in_epoch &&
         a->maps_searched == b->maps_searched && a->address == b->address &&
         a->size == b->size;
}

std::string describe(const std::optional<CodeMapIndex::Hit>& h) {
  if (!h.has_value()) return "(miss)";
  return h->symbol.str() + " @" + std::to_string(h->address) + "+" +
         std::to_string(h->size) + " epoch=" + std::to_string(h->found_in_epoch) +
         " searched=" + std::to_string(h->maps_searched);
}

/// Shape of one randomized map population.
struct Population {
  std::uint64_t max_epochs;
  std::uint64_t min_entries;    // per map file
  std::uint64_t extra_entries;  // up to this many more
  std::uint64_t window_slots;   // entry starts: base + slot * 0x100
  bool odd_map_count;           // forces an odd number of loaded epochs
};

constexpr hw::Address kBase = 0x7000'0000;

Population small_population(support::Xoshiro256& rng) {
  return {2 + rng.below(14), 1, 24, 96, false};
}

/// 41-47 epochs of 500-700 entries each, an odd number of maps: the border
/// runs merge through several rounds with a run left over.
Population large_population(support::Xoshiro256& rng) {
  return {41 + 2 * rng.below(4), 500, 200, 4096, true};
}

CodeMapFile random_file(support::Xoshiro256& rng, const Population& pop,
                        std::uint64_t e, const std::string& tag) {
  CodeMapFile file;
  file.epoch = e;
  file.truncated = rng.below(100) < 20;
  const std::uint64_t entries = pop.min_entries + rng.below(pop.extra_entries);
  for (std::uint64_t i = 0; i < entries; ++i) {
    CodeMapEntry entry;
    entry.address = kBase + rng.below(pop.window_slots) * 0x100;
    // Mix of sizes: empty bodies, small bodies, bodies overlapping the
    // next slot — the walk resolves overlaps by sorted-predecessor probe
    // and the flat view must reproduce that choice.
    const std::uint64_t kind = rng.below(10);
    if (kind == 0) entry.size = 0;
    else if (kind < 8) entry.size = 0x40 + rng.below(0x100);
    else entry.size = 0x200 + rng.below(0x400);
    entry.symbol = tag + std::to_string(e) + "_i" + std::to_string(i);
    file.entries.push_back(std::move(entry));
  }
  // Occasionally an entry at the very top of the address space, where
  // address + size can wrap: such an entry must cover nothing.
  if (rng.below(100) < 10) {
    const support::Name wrap("wrap_" + tag + std::to_string(e));
    file.entries.push_back({~0ull - rng.below(0x40), 0x100, wrap});
  }
  return file;
}

// One randomized index: epochs in [0, max_epochs) each present with ~75%
// probability, ~20% of map files truncated, ~10% of present epochs claimed
// by a second file (merged by add(), which marks the epoch truncated), and
// entries drawn from a bounded address window so placements collide and
// shadow each other across epochs.
CodeMapIndex random_index(support::Xoshiro256& rng, const Population& pop) {
  std::vector<bool> present(pop.max_epochs);
  std::uint64_t count = 0;
  for (std::uint64_t e = 0; e < pop.max_epochs; ++e) {
    present[e] = rng.below(100) >= 25;  // else: missing epoch (lost map write)
    count += present[e] ? 1 : 0;
  }
  if (pop.odd_map_count && count % 2 == 0) {
    present[pop.max_epochs - 1] = !present[pop.max_epochs - 1];
  }
  CodeMapIndex index;
  for (std::uint64_t e = 0; e < pop.max_epochs; ++e) {
    if (!present[e]) continue;
    index.add(random_file(rng, pop, e, "e"));
    if (rng.below(100) < 10) index.add(random_file(rng, pop, e, "dup_e"));
  }
  return index;
}

void expect_flat_matches_walk(Population (*shape)(support::Xoshiro256&),
                              std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  const Population pop = shape(rng);
  CodeMapIndex index = random_index(rng, pop);
  if (index.map_count() == 0) {
    // Degenerate draw: both paths must report kNoMaps.
    const auto lk = index.lookup(kBase, 3);
    EXPECT_EQ(lk.miss, JitLookupMiss::kNoMaps);
    EXPECT_EQ(index.lookup_walkback(kBase, 3).miss, JitLookupMiss::kNoMaps);
    return;
  }
  if (pop.odd_map_count) {
    ASSERT_EQ(index.map_count() % 2, 1u);
  }

  const hw::Address window = pop.window_slots * 0x100 + 0x400;
  for (int probe = 0; probe < 2000; ++probe) {
    // PCs concentrated on the populated window plus occasional outliers
    // (below, far above, near the wrap entries).
    hw::Address pc;
    const std::uint64_t where = rng.below(20);
    if (where == 0) pc = kBase - 1 - rng.below(0x1000);
    else if (where == 1) pc = kBase + window + 0x10'0000 + rng.below(0x1000);
    else if (where == 2) pc = ~0ull - rng.below(0x80);
    else pc = kBase + rng.below(window);
    // Query epochs: in range, at the edges, and above the newest map.
    const std::uint64_t epoch = rng.below(pop.max_epochs + 3);

    const auto flat = index.resolve(pc, epoch);
    const auto walk = index.resolve_walkback(pc, epoch);
    ASSERT_TRUE(same_hit(flat, walk))
        << "resolve pc=" << pc << " epoch=" << epoch << " seed=" << seed
        << "\n  flat: " << describe(flat) << "\n  walk: " << describe(walk);

    const auto flat_lk = index.lookup(pc, epoch);
    const auto walk_lk = index.lookup_walkback(pc, epoch);
    ASSERT_EQ(flat_lk.miss, walk_lk.miss)
        << "lookup pc=" << pc << " epoch=" << epoch << " seed=" << seed
        << " flat=" << to_string(flat_lk.miss) << " walk=" << to_string(walk_lk.miss);
    ASSERT_TRUE(same_hit(flat_lk.hit, walk_lk.hit))
        << "lookup pc=" << pc << " epoch=" << epoch << " seed=" << seed
        << "\n  flat: " << describe(flat_lk.hit)
        << "\n  walk: " << describe(walk_lk.hit);
  }
}

class FlatIndexPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlatIndexPropertyTest, FlattenedQueriesMatchBackwardWalk) {
  expect_flat_matches_walk(small_population, GetParam());
}

class LargeFlatIndexPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LargeFlatIndexPropertyTest, FlattenedQueriesMatchBackwardWalk) {
  expect_flat_matches_walk(large_population, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatIndexPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 24));
INSTANTIATE_TEST_SUITE_P(Seeds, LargeFlatIndexPropertyTest,
                         ::testing::Range<std::uint64_t>(100, 106));

TEST(FlatIndexTest, AddAfterPrepareInvalidatesTheFlattenedView) {
  CodeMapIndex index;
  CodeMapFile f0;
  f0.epoch = 0;
  f0.entries.push_back({0x1000, 0x100, support::Name("old")});
  index.add(std::move(f0));
  EXPECT_EQ(index.resolve(0x1040, 5)->symbol, "old");  // builds the flat view

  CodeMapFile f3;
  f3.epoch = 3;
  f3.entries.push_back({0x1000, 0x100, support::Name("new")});
  index.add(std::move(f3));  // must invalidate and rebuild on next query
  EXPECT_EQ(index.resolve(0x1040, 5)->symbol, "new");
  EXPECT_EQ(index.resolve(0x1040, 2)->symbol, "old");
}

TEST(FlatIndexTest, MovedIndexKeepsAnswering) {
  CodeMapIndex index;
  CodeMapFile f;
  f.epoch = 2;
  f.entries.push_back({0x2000, 0x80, support::Name("sym")});
  index.add(std::move(f));
  index.prepare();

  CodeMapIndex moved(std::move(index));
  ASSERT_TRUE(moved.resolve(0x2010, 2).has_value());
  EXPECT_EQ(moved.resolve(0x2010, 2)->symbol, "sym");

  CodeMapIndex assigned;
  assigned = std::move(moved);
  ASSERT_TRUE(assigned.resolve(0x2010, 2).has_value());
  EXPECT_EQ(assigned.resolve(0x2010, 2)->symbol, "sym");
}

}  // namespace
}  // namespace viprof::core
