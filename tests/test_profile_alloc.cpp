// Pins DESIGN.md §9's claim that rows are string-free from resolver to
// render: resolving a sample (live and archive resolvers, kernel, image,
// boot-map and JIT-map hits), a serial aggregate over rows that already
// exist, a profile lookup, and a fold whose rows all already exist, touch
// the heap zero times, and a top-N render allocates a small constant
// number of times however many rows the profile holds. This binary replaces the global operator new with a
// counting one, so it runs alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "core/archive.hpp"
#include "core/callgraph.hpp"
#include "core/report.hpp"
#include "core/resolve_pipeline.hpp"
#include "jvm/boot_image.hpp"
#include "os/loader.hpp"
#include "support/interner.hpp"

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
  const std::string hit = res(77).symbol.str();
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

TEST(ProfileAlloc, FindOfANeverInternedNameAllocatesAndInternsNothing) {
  const Profile p = profile(20, 1);
  const std::string never = "com.example.workload.NeverSeen.method(Ljava/lang/Object;)V";
  const support::Name present = res(3).symbol;
  const std::size_t names = support::NameInterner::global().size();

  const std::uint64_t before = g_news.load();
  const ProfileRow* by_symbol = p.find("RVM.map", never);
  const ProfileRow* by_image = p.find(never, present);
  const std::uint64_t after = g_news.load();

  EXPECT_EQ(by_symbol, nullptr);
  EXPECT_EQ(by_image, nullptr);
  EXPECT_EQ(after - before, 0u) << "heap allocations in Profile::find";
  EXPECT_EQ(support::NameInterner::global().size(), names) << "find() interned a name";
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

TEST(ProfileAlloc, RenderAllocatesASmallConstantIndependentOfRowCount) {
  // A top-20 view writes 20 rows into one buffer: the allocation count
  // must not grow with the profile, nor with the rows printed.
  const std::vector<hw::EventKind> events = {kTime, kDmiss};
  const auto allocations = [&](const Profile& p) {
    const std::uint64_t before = g_news.load();
    const std::string text = p.render(events, 20);
    const std::uint64_t after = g_news.load();
    EXPECT_EQ(static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')), 21u);
    return after - before;
  };
  const std::uint64_t small = allocations(profile(50, 1));
  const std::uint64_t large = allocations(profile(5000, 1));
  EXPECT_LE(large, small) << "Profile::render allocations grow with the row count";
  // The rank's two index vectors, the header list, the table's cell and
  // byte buffers, and the rendered text.
  EXPECT_LE(large, 6u) << "heap allocations in a top-20 Profile::render";
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

/// A process with every resolution domain mapped — kernel, an executable
/// and a library with symbols, the JVM boot image with its RVM.map, a JIT
/// heap with one epoch code map — resolved live and from its archive.
class ResolveAllocTest : public ::testing::Test {
 protected:
  void SetUp() override {
    os::Process& proc = machine_.spawn("jikesrvm");
    pid_ = proc.pid();
    os::Image& exec =
        machine_.registry().create("jikesrvm", os::ImageKind::kExecutable, 32 * 1024);
    exec.symbols().add("main", 0, 4096);
    machine_.loader().load_executable(proc, exec.id());
    os::Image& libc =
        machine_.registry().create("libc-2.3.2.so", os::ImageKind::kSharedLib, 64 * 1024);
    libc.symbols().add("memset", 0x1000, 0x800);
    libc_base_ = machine_.loader().load_library(proc, libc.id()).start;
    boot_ = std::make_unique<jvm::BootImage>(machine_.registry(), machine_.vfs(),
                                             "RVM.map");
    boot_base_ = machine_.loader().map_at_anon_slot(proc, boot_->image()).start;
    heap_base_ = machine_.loader().map_anon(proc, 4 << 20).start;

    VmRegistration reg;
    reg.pid = pid_;
    reg.heap_lo = heap_base_;
    reg.heap_hi = heap_base_ + (4 << 20);
    reg.boot_base = boot_base_;
    reg.boot_size = boot_->size();
    reg.boot_map_path = "RVM.map";
    reg.jit_map_dir = "jit_maps";
    table_.add(reg);
    CodeMapFile map;
    map.epoch = 0;
    map.entries.push_back(
        {heap_base_ + 0x100, 0x80,
         support::Name("com.example.workload.Parser.process(Ljava/lang/String;)V")});
    machine_.vfs().write(CodeMapFile::path_for("jit_maps", pid_, 0), map.serialize(pid_));
    write_archive(machine_, table_, machine_.vfs(), "archive");
  }

  /// One PC per domain, with the domain it must resolve to.
  std::vector<std::pair<LoggedSample, SampleDomain>> samples() const {
    const auto at = [this](hw::Address pc, hw::CpuMode mode) {
      LoggedSample s;
      s.pc = pc;
      s.mode = mode;
      s.pid = pid_;
      return s;
    };
    const jvm::BootRoutine& routine = boot_->routines(jvm::VmService::kGc).front();
    const hw::Address kernel_pc = machine_.kernel().routine("sys_read").base + 4;
    return {{at(kernel_pc, hw::CpuMode::kKernel), SampleDomain::kKernel},
            {at(libc_base_ + 0x1200, hw::CpuMode::kUser), SampleDomain::kImage},
            {at(boot_base_ + routine.offset + 8, hw::CpuMode::kUser),
             SampleDomain::kBoot},
            {at(heap_base_ + 0x140, hw::CpuMode::kUser), SampleDomain::kJit}};
  }

  os::Machine machine_;
  RegistrationTable table_;
  std::unique_ptr<jvm::BootImage> boot_;
  hw::Pid pid_ = 0;
  hw::Address libc_base_ = 0, boot_base_ = 0, heap_base_ = 0;
};

TEST_F(ResolveAllocTest, ResolvingEveryDomainAllocatesNothing) {
  Resolver live(machine_, table_, true);
  live.load();
  const ArchiveResolver archive(machine_.vfs(), "archive", true);
  for (const auto& [sample, domain] : samples()) {
    ResolveStats stats;
    const Resolution warm = live.resolve(sample, stats);  // first-use statics
    ASSERT_EQ(warm.domain, domain);
    ASSERT_NE(warm.symbol_size, 0u) << "not a symbol hit: " << warm.symbol;

    const std::uint64_t before = g_news.load();
    const Resolution a = live.resolve(sample, stats);
    const Resolution b = archive.resolve(sample);
    const std::uint64_t after = g_news.load();

    EXPECT_EQ(after - before, 0u) << "heap allocations resolving " << to_string(domain);
    EXPECT_EQ(a.image, b.image);
    EXPECT_EQ(a.symbol, b.symbol);
    EXPECT_EQ(b.domain, domain);
  }
}

TEST_F(ResolveAllocTest, SerialAggregateOverPresentRowsAllocatesNothing) {
  const ArchiveResolver archive(machine_.vfs(), "archive", true);
  std::vector<LoggedSample> logged;
  for (int round = 0; round < 50; ++round)
    for (const auto& [sample, domain] : samples()) logged.push_back(sample);
  ResolvePipeline serial(PipelineConfig{1});
  const ResolvePipeline::ResolveFn fn = [&archive](const LoggedSample& s, ResolveStats&) {
    return archive.resolve(s);
  };
  Profile out;
  serial.aggregate_profile(logged, kTime, fn, out);  // the rows now exist

  const std::uint64_t before = g_news.load();
  serial.aggregate_profile(logged, kTime, fn, out);
  const std::uint64_t after = g_news.load();

  EXPECT_EQ(out.row_count(), samples().size());
  EXPECT_EQ(out.total(kTime), 2 * logged.size());
  EXPECT_EQ(after - before, 0u) << "heap allocations aggregating present rows";
}

}  // namespace
}  // namespace viprof::core
