#include <gtest/gtest.h>

#include <memory>

#include "core/resolver.hpp"
#include "jvm/boot_image.hpp"
#include "os/loader.hpp"

namespace viprof::core {
namespace {

class ResolverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    os::Process& proc = machine_.spawn("jikesrvm");
    pid_ = proc.pid();

    os::Image& exec =
        machine_.registry().create("jikesrvm", os::ImageKind::kExecutable, 32 * 1024);
    exec.symbols().add("main", 0, 4096);
    exec_base_ = machine_.loader().load_executable(proc, exec.id()).start;

    os::Image& libc =
        machine_.registry().create("libc-2.3.2.so", os::ImageKind::kSharedLib, 64 * 1024);
    libc.symbols().add("memset", 0x1000, 0x800);
    libc_base_ = machine_.loader().load_library(proc, libc.id()).start;

    os::Image& stripped = machine_.registry().create(
        "libxul.so.0d", os::ImageKind::kSharedLib, 64 * 1024, /*stripped=*/true);
    stripped.symbols().add("hidden", 0, 0x1000);
    stripped_base_ = machine_.loader().load_library(proc, stripped.id()).start;

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

    // Two epochs of JIT code maps: method m at A in epoch 0, moved to B.
    CodeMapFile map0;
    map0.epoch = 0;
    map0.entries.push_back({heap_base_ + 0x100, 0x80, support::Name("app.Klass.hot")});
    machine_.vfs().write(CodeMapFile::path_for("jit_maps", pid_, 0), map0.serialize(pid_));
    CodeMapFile map1;
    map1.epoch = 1;
    map1.entries.push_back({heap_base_ + 0x900, 0x80, support::Name("app.Klass.hot")});
    machine_.vfs().write(CodeMapFile::path_for("jit_maps", pid_, 1), map1.serialize(pid_));
  }

  Resolver make_resolver(bool vm_aware) {
    Resolver r(machine_, table_, vm_aware);
    r.load();
    return r;
  }

  os::Machine machine_;
  RegistrationTable table_;
  std::unique_ptr<jvm::BootImage> boot_;
  hw::Pid pid_ = 0;
  hw::Address exec_base_ = 0, libc_base_ = 0, stripped_base_ = 0;
  hw::Address boot_base_ = 0, heap_base_ = 0;
};

TEST_F(ResolverTest, KernelSymbols) {
  Resolver r = make_resolver(true);
  const auto res = r.resolve_pc(machine_.kernel().routine("sys_read").base + 4,
                                hw::CpuMode::kKernel, pid_, 0);
  EXPECT_EQ(res.domain, SampleDomain::kKernel);
  EXPECT_EQ(res.image, "vmlinux");
  EXPECT_EQ(res.symbol, "sys_read");
}

TEST_F(ResolverTest, KernelPcInUserModeStillKernel) {
  // NMI skid can report user mode with a kernel PC; the range check wins.
  Resolver r = make_resolver(true);
  const auto res = r.resolve_pc(machine_.kernel().routine("schedule").base,
                                hw::CpuMode::kUser, pid_, 0);
  EXPECT_EQ(res.domain, SampleDomain::kKernel);
}

TEST_F(ResolverTest, ExecutableAndLibrarySymbols) {
  Resolver r = make_resolver(true);
  const auto exec_res = r.resolve_pc(exec_base_ + 10, hw::CpuMode::kUser, pid_, 0);
  EXPECT_EQ(exec_res.image, "jikesrvm");
  EXPECT_EQ(exec_res.symbol, "main");
  const auto lib_res = r.resolve_pc(libc_base_ + 0x1200, hw::CpuMode::kUser, pid_, 0);
  EXPECT_EQ(lib_res.image, "libc-2.3.2.so");
  EXPECT_EQ(lib_res.symbol, "memset");
}

TEST_F(ResolverTest, SymbolGapsReportNoSymbols) {
  Resolver r = make_resolver(true);
  const auto res = r.resolve_pc(libc_base_ + 0x5000, hw::CpuMode::kUser, pid_, 0);
  EXPECT_EQ(res.image, "libc-2.3.2.so");
  EXPECT_EQ(res.symbol, "(no symbols)");
}

TEST_F(ResolverTest, StrippedLibraryHidesSymbols) {
  Resolver r = make_resolver(true);
  const auto res = r.resolve_pc(stripped_base_ + 10, hw::CpuMode::kUser, pid_, 0);
  EXPECT_EQ(res.image, "libxul.so.0d");
  EXPECT_EQ(res.symbol, "(no symbols)");
}

TEST_F(ResolverTest, BootImageThroughRvmMap) {
  Resolver r = make_resolver(true);
  const jvm::BootRoutine& routine = boot_->routines(jvm::VmService::kGc).front();
  const auto res = r.resolve_pc(boot_base_ + routine.offset + 8, hw::CpuMode::kUser,
                                pid_, 0);
  EXPECT_EQ(res.domain, SampleDomain::kBoot);
  EXPECT_EQ(res.image, "RVM.map");
  EXPECT_EQ(res.symbol, routine.name);
}

TEST_F(ResolverTest, BootImageOpaqueToStockOprofile) {
  Resolver r = make_resolver(false);
  const auto res = r.resolve_pc(boot_base_ + 8, hw::CpuMode::kUser, pid_, 0);
  EXPECT_EQ(res.domain, SampleDomain::kBoot);
  EXPECT_EQ(res.image, "RVM.code.image");
  EXPECT_EQ(res.symbol, "(no symbols)");
}

TEST_F(ResolverTest, JitSamplesResolveThroughEpochMaps) {
  Resolver r = make_resolver(true);
  const auto res =
      r.resolve_pc(heap_base_ + 0x120, hw::CpuMode::kUser, pid_, 0);
  EXPECT_EQ(res.domain, SampleDomain::kJit);
  EXPECT_EQ(res.image, "JIT.App");
  EXPECT_EQ(res.symbol, "app.Klass.hot");
  EXPECT_EQ(res.maps_searched, 1u);
}

TEST_F(ResolverTest, MovedMethodResolvesInLaterEpoch) {
  Resolver r = make_resolver(true);
  const auto res =
      r.resolve_pc(heap_base_ + 0x940, hw::CpuMode::kUser, pid_, 1);
  EXPECT_EQ(res.symbol, "app.Klass.hot");
  EXPECT_EQ(res.maps_searched, 1u);
}

TEST_F(ResolverTest, BackwardSearchAcrossEpochs) {
  // Sample in epoch 1 at the epoch-0 address: method not compiled or moved
  // in epoch 1 -> backward search lands in map 0.
  Resolver r = make_resolver(true);
  const auto res =
      r.resolve_pc(heap_base_ + 0x120, hw::CpuMode::kUser, pid_, 1);
  EXPECT_EQ(res.symbol, "app.Klass.hot");
  EXPECT_EQ(res.maps_searched, 2u);
  EXPECT_GT(r.backward_steps(), 0u);
}

TEST_F(ResolverTest, UnknownJitAddress) {
  Resolver r = make_resolver(true);
  const auto res =
      r.resolve_pc(heap_base_ + 0x3f'0000, hw::CpuMode::kUser, pid_, 1);
  EXPECT_EQ(res.domain, SampleDomain::kJit);
  EXPECT_EQ(res.symbol, "(unknown JIT code)");
  EXPECT_EQ(r.jit_unresolved(), 1u);
}

TEST_F(ResolverTest, StockOprofileReportsAnonRange) {
  Resolver r = make_resolver(false);
  const auto res = r.resolve_pc(heap_base_ + 0x120, hw::CpuMode::kUser, pid_, 0);
  EXPECT_EQ(res.domain, SampleDomain::kAnon);
  EXPECT_NE(res.image.view().find("anon (range:0x"), std::string::npos);
  EXPECT_NE(res.image.view().find("jikesrvm"), std::string::npos);
  EXPECT_EQ(res.symbol, "(no symbols)");
}

TEST_F(ResolverTest, UnknownPidAndUnmappedPc) {
  Resolver r = make_resolver(true);
  const auto nopid = r.resolve_pc(0x1234, hw::CpuMode::kUser, 999, 0);
  EXPECT_EQ(nopid.domain, SampleDomain::kUnknown);
  const auto unmapped = r.resolve_pc(0xbf00'0000, hw::CpuMode::kUser, pid_, 0);
  EXPECT_EQ(unmapped.domain, SampleDomain::kUnknown);
  EXPECT_EQ(unmapped.image, "unmapped");
}

TEST_F(ResolverTest, ResolveLoggedSampleConvenience) {
  Resolver r = make_resolver(true);
  LoggedSample s;
  s.pc = heap_base_ + 0x120;
  s.mode = hw::CpuMode::kUser;
  s.pid = pid_;
  s.epoch = 0;
  EXPECT_EQ(r.resolve(s).symbol, "app.Klass.hot");
  EXPECT_EQ(r.jit_resolved(), 1u);
}

}  // namespace
}  // namespace viprof::core
