// Pins DESIGN.md §14's claim that steady-state ingest allocates nothing
// per batch: the sample-line decode must not touch the heap. This binary
// replaces the global operator new with a counting one, so it runs alone.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "core/sample_log.hpp"
#include "support/arena.hpp"

namespace {

std::atomic<std::uint64_t> g_news{0};

}  // namespace

void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace viprof::core {
namespace {

/// One 256-line batch of writer output, as a stream carries it.
std::string batch_text(std::uint64_t first_cycle) {
  os::Vfs vfs;
  SampleLogWriter writer(vfs, "s");
  for (std::uint64_t i = 0; i < 256; ++i) {
    LoggedSample s;
    s.pc = 0x6000'0000 + i * 0x40;
    s.caller_pc = 0x4000'1000;
    s.mode = i % 3 == 0 ? hw::CpuMode::kKernel : hw::CpuMode::kUser;
    s.pid = 4242;
    s.epoch = i / 16;
    s.cycle = first_cycle + i * 9000;
    writer.append(hw::EventKind::kGlobalPowerEvents, s);
  }
  writer.flush();
  return *vfs.read(SampleLogWriter::path_for("s", hw::EventKind::kGlobalPowerEvents));
}

TEST(SampleLogAlloc, ParseIntoPreReservedArenaVectorAllocatesNothing) {
  const std::string text = batch_text(1);
  support::Arena arena;
  support::ArenaVector<LoggedSample> batch(arena);
  batch.reserve(256);
  SampleStreamParser parser;

  const std::uint64_t before = g_news.load();
  parser.parse_into(text, sample_line_hash(hw::EventKind::kGlobalPowerEvents), batch);
  const std::uint64_t after = g_news.load();

  ASSERT_EQ(batch.size(), 256u);
  EXPECT_EQ(after - before, 0u) << "heap allocations while decoding one batch";
  EXPECT_TRUE(parser.status().clean());
}

TEST(SampleLogAlloc, DamagedBatchAllocatesNothingEither) {
  std::string text = batch_text(7);
  text[100] ^= 0x20;                // a flipped bit: one line fails its crc
  text.resize(text.size() - 30);    // and a torn tail
  support::Arena arena;
  support::ArenaVector<LoggedSample> batch(arena);
  batch.reserve(256);
  SampleStreamParser parser;

  const std::uint64_t before = g_news.load();
  parser.parse_into(text, sample_line_hash(hw::EventKind::kGlobalPowerEvents), batch);
  const std::uint64_t after = g_news.load();

  EXPECT_EQ(batch.size(), 254u);
  EXPECT_EQ(parser.status().discarded_lines, 2u);
  EXPECT_EQ(after - before, 0u) << "heap allocations while salvaging one batch";
}

}  // namespace
}  // namespace viprof::core
