// Arena / ArenaVector: the bump allocator behind zero-copy batch decode
// (DESIGN.md §14). The properties that matter to the ingest path: alignment
// of every returned pointer, stability of allocations until reset(), block
// recycling (reset() keeps storage, steady state stops growing), oversized
// requests, and ArenaVector growth preserving contents.
#include "support/arena.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

namespace viprof::support {
namespace {

TEST(Arena, AllocationsAreAlignedAndDisjoint) {
  Arena arena(512);
  std::vector<std::pair<char*, std::size_t>> allocs;
  for (std::size_t i = 1; i <= 64; ++i) {
    const std::size_t bytes = i * 7 % 96 + 1;
    auto* p = static_cast<char*>(arena.allocate(bytes, 8));
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 8, 0u);
    std::memset(p, static_cast<int>(i), bytes);
    allocs.emplace_back(p, bytes);
  }
  // No allocation overlaps another: every byte still holds its fill value.
  for (std::size_t i = 0; i < allocs.size(); ++i) {
    for (std::size_t b = 0; b < allocs[i].second; ++b) {
      ASSERT_EQ(static_cast<unsigned char>(allocs[i].first[b]), i + 1)
          << "allocation " << i << " byte " << b << " was clobbered";
    }
  }
}

TEST(Arena, TracksAllocatedAndReservedBytes) {
  Arena arena(1024);
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  EXPECT_EQ(arena.bytes_reserved(), 0u);
  arena.allocate(100);
  arena.allocate(200);
  EXPECT_EQ(arena.bytes_allocated(), 300u);
  EXPECT_GE(arena.bytes_reserved(), 300u);
}

TEST(Arena, ResetRecyclesBlocksWithoutFreeing) {
  Arena arena(1024);
  for (int i = 0; i < 32; ++i) arena.allocate(512);
  const std::size_t reserved = arena.bytes_reserved();
  ASSERT_GT(reserved, 0u);

  arena.reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  EXPECT_EQ(arena.bytes_reserved(), reserved);  // blocks kept, not freed

  // The same workload after reset() reuses the block chain: steady-state
  // batches allocate no new storage.
  for (int i = 0; i < 32; ++i) arena.allocate(512);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
}

TEST(Arena, OversizedRequestGetsDedicatedBlock) {
  Arena arena(256);
  auto* small = static_cast<char*>(arena.allocate(16));
  auto* big = static_cast<char*>(arena.allocate(64 * 1024));
  ASSERT_NE(big, nullptr);
  std::memset(big, 0xab, 64 * 1024);
  // The small allocation survives the oversized splice.
  std::memset(small, 0xcd, 16);
  EXPECT_EQ(static_cast<unsigned char>(big[0]), 0xab);
  EXPECT_GE(arena.bytes_reserved(), 64u * 1024);
}

// The server's batch-body arenas take one allocation a cycle. When a
// request outgrows the recycled block it must replace that block, not be
// spliced in front of it: otherwise every new largest body leaves one dead
// block behind for good.
TEST(Arena, GrowingOneAllocationCyclesKeepOneBlock) {
  constexpr std::size_t kBlock = 1024;
  Arena arena(kBlock);
  std::size_t largest = 0;
  for (std::size_t cycle = 1; cycle <= 40; ++cycle) {
    arena.reset();
    const std::size_t bytes = cycle * 700;  // every cycle outgrows the last
    largest = bytes;
    auto* p = static_cast<char*>(arena.allocate(bytes));
    std::memset(p, 0x5a, bytes);
    ASSERT_LE(arena.bytes_reserved(), largest + alignof(std::max_align_t) + kBlock)
        << "cycle " << cycle;
  }
  // A smaller request after the growth reuses the one big block.
  arena.reset();
  const std::size_t reserved = arena.bytes_reserved();
  arena.allocate(100);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
}

// Several allocations a cycle: only blocks past the ones this cycle filled
// are replaced, so earlier allocations stay intact.
TEST(Arena, ReplacingARecycledBlockKeepsLiveAllocations) {
  Arena arena(1024);
  for (int i = 0; i < 4; ++i) arena.allocate(900);  // four one-request blocks
  arena.reset();
  auto* a = static_cast<char*>(arena.allocate(900));
  std::memset(a, 0x11, 900);
  auto* b = static_cast<char*>(arena.allocate(8000));  // outgrows block 2
  std::memset(b, 0x22, 8000);
  auto* c = static_cast<char*>(arena.allocate(900));  // block 3 is recycled
  std::memset(c, 0x33, 900);
  for (int i = 0; i < 900; ++i) ASSERT_EQ(a[i], 0x11);
  for (int i = 0; i < 8000; ++i) ASSERT_EQ(b[i], 0x22);
  EXPECT_EQ(arena.bytes_allocated(), 900u + 8000u + 900u);
}

TEST(ArenaVector, GrowthPreservesContents) {
  Arena arena(512);  // small blocks force several regrows
  ArenaVector<std::uint64_t> v(arena);
  EXPECT_TRUE(v.empty());
  for (std::uint64_t i = 0; i < 10'000; ++i) v.push_back(i * 3);
  ASSERT_EQ(v.size(), 10'000u);
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    ASSERT_EQ(v[i], i * 3) << "element " << i << " lost across growth";
  }
  // Range iteration agrees with indexing.
  std::uint64_t n = 0;
  for (std::uint64_t x : v) {
    ASSERT_EQ(x, n * 3);
    ++n;
  }
  EXPECT_EQ(n, 10'000u);
}

TEST(ArenaVector, ReserveThenFillNeverRegrows) {
  Arena arena;
  ArenaVector<int> v(arena);
  v.reserve(1000);
  const std::size_t reserved = arena.bytes_reserved();
  int* base = v.data();
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  EXPECT_EQ(v.data(), base);  // no regrow: pointers into it stayed valid
  EXPECT_EQ(arena.bytes_reserved(), reserved);
}

TEST(ArenaVector, ClearReusesCapacity) {
  Arena arena;
  ArenaVector<int> v(arena);
  for (int i = 0; i < 100; ++i) v.push_back(i);
  int* base = v.data();
  v.clear();
  EXPECT_TRUE(v.empty());
  for (int i = 0; i < 100; ++i) v.push_back(-i);
  EXPECT_EQ(v.data(), base);
  EXPECT_EQ(v[99], -99);
}

}  // namespace
}  // namespace viprof::support
