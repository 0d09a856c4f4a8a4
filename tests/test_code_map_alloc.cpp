// Pins DESIGN.md §9's claim that the flattened epoch index is built in flat
// arrays: prepare() makes the same, small number of heap allocations however
// many entries the maps hold, so no per-slot container can creep back. This
// binary replaces the global operator new with a counting one, so it runs
// alone.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>

#include "core/code_map.hpp"

namespace {

std::atomic<std::uint64_t> g_news{0};

}  // namespace

void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// inplace_merge takes its buffer through the nothrow form; replacing it too
// keeps every allocation counted and paired with the free() below.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace viprof::core {
namespace {

/// 4 epochs of `per_epoch` entries each; every epoch re-places the same
/// address range at a different stride, so occupants shadow each other and
/// elementary slots carry several versions. Epoch 2 is truncated.
CodeMapIndex four_epoch_index(std::uint64_t per_epoch) {
  CodeMapIndex index;
  for (std::uint64_t e = 0; e < 4; ++e) {
    CodeMapFile file;
    file.epoch = e;
    file.truncated = e == 2;
    const std::uint64_t stride = 0x100 + 0x40 * e;
    for (std::uint64_t i = 0; i < per_epoch; ++i) {
      file.entries.push_back(
          {0x7000'0000 + i * stride, 0xc0 + 0x10 * e,
           support::Name("m" + std::to_string(e) + "_" + std::to_string(i))});
    }
    index.add(std::move(file));
  }
  return index;
}

std::uint64_t prepare_allocations(const CodeMapIndex& index) {
  const std::uint64_t before = g_news.load();
  index.prepare();
  return g_news.load() - before;
}

TEST(CodeMapIndexAlloc, PrepareAllocationCountIsIndependentOfEntryCount) {
  const CodeMapIndex small = four_epoch_index(50);
  const CodeMapIndex large = four_epoch_index(5000);  // 20k entries
  ASSERT_EQ(large.total_entries(), 20000u);

  const std::uint64_t small_news = prepare_allocations(small);
  const std::uint64_t large_news = prepare_allocations(large);
  EXPECT_EQ(large_news, small_news) << "prepare() allocations grew with entries";
  // The flat arrays, the epoch tables and the run merge's buffers.
  EXPECT_LE(large_news, 16u);

  // The build answers: epoch 3's placement shadows older ones.
  const auto hit = large.lookup(0x7000'0000 + 10 * 0x1c0 + 4, 3);
  ASSERT_TRUE(hit.hit.has_value());
  EXPECT_EQ(hit.hit->symbol, "m3_10");
  EXPECT_EQ(prepare_allocations(large), 0u) << "prepare() is idempotent";
}

}  // namespace
}  // namespace viprof::core
