// support::U64Set, the flat obj_id seen-set of the memprof site table
// (DESIGN.md §15), against std::unordered_set: seeded insert / reserve /
// clear / contains sequences over keys that repeat, keys 0 and ~0 (0 is
// the empty-slot value, held beside the table), and runs of keys built to
// share one home slot at every table size, so probes wrap past the end.
#include "support/u64_set.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "support/rng.hpp"

namespace viprof::support {
namespace {

// The multiplier U64Set hashes with; its inverse mod 2^64 lets a test pick
// keys by the product, i.e. by home slot.
constexpr std::uint64_t kFib = 0x9e3779b97f4a7c15ull;

std::uint64_t inverse_mod_2_64(std::uint64_t a) {
  std::uint64_t x = a;  // Newton: each step doubles the correct low bits
  for (int i = 0; i < 6; ++i) x *= 2 - a * x;
  return x;
}

/// `n` keys whose hash products share their top 20 bits `top`: one home
/// slot in any table of up to 2^20 slots.
std::vector<std::uint64_t> colliding_run(std::uint64_t top, std::size_t n) {
  const std::uint64_t inv = inverse_mod_2_64(kFib);
  std::vector<std::uint64_t> keys;
  for (std::uint64_t j = 0; j < n; ++j) keys.push_back(((top << 44) | j) * inv);
  return keys;
}

std::uint64_t draw_key(Xoshiro256& rng, const std::vector<std::uint64_t>& run) {
  switch (rng.below(5)) {
    case 0: return rng.below(64);  // small: many repeats, 0 included
    case 1: return ~0ull - rng.below(4);
    case 2: return run[rng.below(run.size())];
    case 3: return rng();
    default: return rng.below(2) == 0 ? 0 : ~0ull;
  }
}

TEST(U64Set, ZeroAndAllOnesAreOrdinaryKeys) {
  U64Set set;
  EXPECT_FALSE(set.contains(0));
  EXPECT_TRUE(set.insert(0));
  EXPECT_EQ(set.bytes(), 0u);  // key 0 lives beside the table
  EXPECT_FALSE(set.insert(0));
  EXPECT_TRUE(set.insert(~0ull));
  EXPECT_FALSE(set.insert(~0ull));
  EXPECT_TRUE(set.contains(0));
  EXPECT_TRUE(set.contains(~0ull));
  EXPECT_FALSE(set.contains(1));
  EXPECT_EQ(set.size(), 2u);
  set.clear();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.contains(0));
  EXPECT_FALSE(set.contains(~0ull));
  EXPECT_TRUE(set.insert(0));
}

TEST(U64Set, CollidingRunsWrapPastTheEndOfTheTable) {
  // 0xfffff: every key's home is the last slot of the table.
  for (const std::uint64_t top : {0xfffffull, 0ull, 0x12345ull}) {
    const std::vector<std::uint64_t> run = colliding_run(top, 300);
    U64Set set;
    for (const std::uint64_t k : run) EXPECT_TRUE(set.insert(k)) << k;
    for (const std::uint64_t k : run) EXPECT_FALSE(set.insert(k)) << k;
    for (const std::uint64_t k : run) EXPECT_TRUE(set.contains(k)) << k;
    EXPECT_FALSE(set.contains(run.back() + 1));
    EXPECT_EQ(set.size(), run.size());
  }
}

TEST(U64Set, CapacityFollowsInsertedKeysOnly) {
  U64Set set;
  set.reserve(0);
  EXPECT_EQ(set.bytes(), 0u);
  for (int i = 0; i < 100'000; ++i) set.insert(42);  // one key, offered often
  EXPECT_EQ(set.bytes(), 16 * sizeof(std::uint64_t));
  // n distinct keys take the smallest power of two (>= 16) slots that keeps
  // the table at most 3/4 full.
  for (std::uint64_t n : {12u, 13u, 1000u, 49'152u, 49'153u}) {
    U64Set grown;
    for (std::uint64_t k = 1; k <= n; ++k) grown.insert(k * 977);
    std::size_t slots = 16;
    while (n * 4 > slots * 3) slots *= 2;
    EXPECT_EQ(grown.bytes(), slots * sizeof(std::uint64_t)) << n;
    U64Set reserved;
    reserved.reserve(n);
    EXPECT_EQ(reserved.bytes(), slots * sizeof(std::uint64_t)) << n;
    for (std::uint64_t k = 1; k <= n; ++k) reserved.insert(k * 977);
    EXPECT_EQ(reserved.bytes(), slots * sizeof(std::uint64_t)) << n;
  }
}

class U64SetDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(U64SetDifferential, MatchesUnorderedSetOverSeededSequences) {
  const std::uint64_t seed = GetParam();
  Xoshiro256 rng(seed);
  const std::vector<std::uint64_t> run = colliding_run(rng.below(1u << 20), 200);
  U64Set set;
  std::unordered_set<std::uint64_t> oracle;
  for (int step = 0; step < 20'000; ++step) {
    const std::uint64_t op = rng.below(1000);
    if (op < 2) {
      set.clear();
      oracle.clear();
    } else if (op < 10) {
      set.reserve(oracle.size() + rng.below(3000));
    } else if (op < 300) {
      const std::uint64_t k = draw_key(rng, run);
      ASSERT_EQ(set.contains(k), oracle.count(k) == 1) << "seed=" << seed << " key=" << k;
    } else {
      const std::uint64_t k = draw_key(rng, run);
      ASSERT_EQ(set.insert(k), oracle.insert(k).second) << "seed=" << seed << " key=" << k;
    }
    ASSERT_EQ(set.size(), oracle.size()) << "seed=" << seed << " step=" << step;
  }
  for (const std::uint64_t k : oracle) EXPECT_TRUE(set.contains(k)) << "seed=" << seed;
  for (const std::uint64_t k : run)
    EXPECT_EQ(set.contains(k), oracle.count(k) == 1) << "seed=" << seed;
  // A copy holds the same keys and changes independently.
  U64Set copy = set;
  for (const std::uint64_t k : oracle) EXPECT_TRUE(copy.contains(k));
  const std::uint64_t fresh = 0x5eed'0000'0000'0001ull;
  copy.insert(fresh);
  EXPECT_EQ(set.contains(fresh), oracle.count(fresh) == 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, U64SetDifferential,
                         ::testing::Values(1u, 2u, 3u, 0x51deu, 0xfeedu, 0xc0ffeeu));

}  // namespace
}  // namespace viprof::support
