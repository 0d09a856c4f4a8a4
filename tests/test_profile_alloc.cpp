// Pins DESIGN.md §9's claim that the row index is string-free: a profile
// lookup, and a fold whose rows all already exist, touch the heap zero
// times. This binary replaces the global operator new with a counting one,
// so it runs alone.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>

#include "core/callgraph.hpp"
#include "core/report.hpp"

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

constexpr auto kTime = hw::EventKind::kGlobalPowerEvents;
constexpr auto kDmiss = hw::EventKind::kBsqCacheReference;

/// Names long enough that any key string built from them leaves the
/// small-string buffer.
Resolution res(std::size_t i) {
  Resolution r;
  r.image = "RVM.map";
  r.symbol = "com.example.workload.Parser" + std::to_string(i) + ".process";
  r.domain = SampleDomain::kJit;
  return r;
}

Profile profile(std::size_t rows, std::uint64_t scale) {
  Profile p;
  for (std::size_t i = 0; i < rows; ++i) {
    p.add(kTime, res(i), scale * (i + 1));
    p.add(kDmiss, res(i), scale);
  }
  return p;
}

TEST(ProfileAlloc, FindAllocatesNothing) {
  const Profile p = profile(200, 1);
  const std::string image = "RVM.map";
  const std::string hit = res(77).symbol;
  const std::string miss = "com.example.workload.Parser77.processX";

  const std::uint64_t before = g_news.load();
  const ProfileRow* found = p.find(image, hit);
  const ProfileRow* absent = p.find(image, miss);
  const std::uint64_t after = g_news.load();

  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->count(kTime), 78u);
  EXPECT_EQ(absent, nullptr);
  EXPECT_EQ(after - before, 0u) << "heap allocations in Profile::find";
}

TEST(ProfileAlloc, MergeOfPresentRowsAllocatesNothing) {
  Profile target = profile(200, 1);
  const Profile same_rows = profile(200, 3);
  const Profile some_rows = profile(50, 2);

  const std::uint64_t before = g_news.load();
  target.merge(same_rows);
  target.merge(some_rows);
  const std::uint64_t after = g_news.load();

  EXPECT_EQ(target.row_count(), 200u);
  EXPECT_EQ(target.find("RVM.map", res(0).symbol)->count(kTime), 1u + 3u + 2u);
  EXPECT_EQ(target.total(kDmiss), 200u + 600u + 100u);
  EXPECT_EQ(after - before, 0u) << "heap allocations merging already-present rows";
}

TEST(ProfileAlloc, CallGraphAndStripedFoldsOfPresentRowsAllocateNothing) {
  CallGraph graph;
  for (std::size_t i = 0; i < 100; ++i) graph.add_resolved(res(i), res(i + 1), i + 1);
  const CallGraph again = graph;
  // A service stripe folds each batch partial by move (ServerSession::apply).
  Profile stripe = profile(100, 1);
  Profile partial = profile(100, 1);

  const std::uint64_t before = g_news.load();
  graph.merge(again);
  stripe.merge(std::move(partial));
  const std::uint64_t after = g_news.load();

  EXPECT_EQ(graph.total_arcs(), 100u);
  EXPECT_EQ(stripe.row_count(), 100u);
  EXPECT_EQ(stripe.total(kDmiss), 200u);
  EXPECT_EQ(after - before, 0u) << "heap allocations folding already-present rows";
}

}  // namespace
}  // namespace viprof::core
