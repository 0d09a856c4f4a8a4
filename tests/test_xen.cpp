#include <gtest/gtest.h>

#include <memory>

#include "core/archive.hpp"
#include "workloads/generator.hpp"
#include "xen/scheduler.hpp"
#include "xen/xenoprof.hpp"

namespace viprof::xen {
namespace {

constexpr auto kTime = hw::EventKind::kGlobalPowerEvents;

workloads::Workload guest_workload(const std::string& name, std::uint64_t seed,
                                   std::uint64_t ops) {
  workloads::GeneratorOptions opt;
  opt.name = name;
  opt.seed = seed;
  opt.methods = 16;
  opt.total_app_ops = ops;
  opt.alloc_intensity = 0.5;
  opt.nursery_bytes = 1ull << 20;
  opt.syscall_frac = 0.05;
  return workloads::make_synthetic(opt);
}

TEST(Hypervisor, RegistersWithMachine) {
  os::Machine machine;
  Hypervisor xen(machine);
  ASSERT_TRUE(machine.hypervisor().has_value());
  EXPECT_EQ(machine.hypervisor()->image, xen.image());
  EXPECT_TRUE(machine.hypervisor()->contains(Hypervisor::kXenBase));
  EXPECT_EQ(machine.registry().get(xen.image()).name(), "xen-syms");
}

TEST(Hypervisor, AboveTheKernel) {
  os::Machine machine;
  Hypervisor xen(machine);
  EXPECT_GT(xen.base(), machine.kernel().base() + machine.kernel().size());
  EXPECT_FALSE(machine.kernel().contains(xen.base()));
}

TEST(Hypervisor, RoutinesResolvable) {
  os::Machine machine;
  Hypervisor xen(machine);
  for (const char* name : {"hypercall_entry", "shadow_page_fault", "csched_schedule",
                           "vcpu_context_switch", "xenoprof_nmi_handler"}) {
    const HypervisorRoutine& r = xen.routine(name);
    EXPECT_TRUE(xen.contains(r.base));
    const auto sym =
        machine.registry().get(xen.image()).symbols().find(r.base - xen.base());
    ASSERT_TRUE(sym.has_value());
    EXPECT_EQ(sym->name, name);
  }
}

TEST(Hypervisor, ExecAdvancesClockInRingMinusOne) {
  os::Machine machine;
  Hypervisor xen(machine);
  const hw::Cycles before = machine.cpu().now();
  xen.exec(Hypervisor::Activity::kSchedule, 50'000, 7);
  EXPECT_EQ(machine.cpu().now() - before, 50'000u);
  EXPECT_EQ(xen.cycles_executed(), 50'000u);
  EXPECT_EQ(machine.cpu().context().mode, hw::CpuMode::kHypervisor);
  EXPECT_EQ(machine.cpu().context().pid, 7u);
}

TEST(CreditScheduler, RunsAllDomainsToCompletion) {
  os::Machine machine;
  Hypervisor xen(machine);
  const workloads::Workload w1 = guest_workload("g1", 1, 2'000'000);
  const workloads::Workload w2 = guest_workload("g2", 2, 1'000'000);
  jvm::Vm vm1(machine, w1.vm), vm2(machine, w2.vm);
  vm1.setup(w1.program);
  vm2.setup(w2.program);
  Domain d1{1, "d1", &vm1, 256};
  Domain d2{2, "d2", &vm2, 256};
  CreditScheduler scheduler(machine, xen);
  scheduler.add_domain(&d1);
  scheduler.add_domain(&d2);
  const SchedulerStats stats = scheduler.run_all();
  EXPECT_TRUE(d1.finished);
  EXPECT_TRUE(d2.finished);
  EXPECT_GE(d1.stats.app_ops, 2'000'000u);
  EXPECT_GE(d2.stats.app_ops, 1'000'000u);
  EXPECT_GT(stats.context_switches, 1u);
  EXPECT_GT(stats.hypervisor_cycles, 0u);
  EXPECT_GT(d1.slices, 1u);
}

TEST(CreditScheduler, WeightsShiftSliceShares) {
  os::Machine machine;
  Hypervisor xen(machine);
  const workloads::Workload w1 = guest_workload("heavy", 1, 3'000'000);
  const workloads::Workload w2 = guest_workload("light", 2, 3'000'000);
  jvm::Vm vm1(machine, w1.vm), vm2(machine, w2.vm);
  vm1.setup(w1.program);
  vm2.setup(w2.program);
  Domain d1{1, "heavy", &vm1, 512};
  Domain d2{2, "light", &vm2, 128};
  CreditScheduler scheduler(machine, xen);
  scheduler.add_domain(&d1);
  scheduler.add_domain(&d2);
  scheduler.run_all();
  // Same work, 4x the weight: the heavy domain should not get fewer slices
  // while both are runnable; a coarse check is that it finishes first or
  // with at most as many total slices.
  EXPECT_LE(d1.slices, d2.slices + 2);
}

class XenoProfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    machine_ = std::make_unique<os::Machine>(os::MachineConfig{0xfeed, 3.4, {}});
    xen_ = std::make_unique<Hypervisor>(*machine_);
    w1_ = guest_workload("xg1", 11, 2'500'000);
    w2_ = guest_workload("xg2", 12, 2'500'000);
    vm1_ = std::make_unique<jvm::Vm>(*machine_, w1_.vm);
    vm2_ = std::make_unique<jvm::Vm>(*machine_, w2_.vm);
    session_ = std::make_unique<XenoProfSession>(*machine_, *xen_);
    d1_ = Domain{1, "d1", vm1_.get(), 256};
    d2_ = Domain{2, "d2", vm2_.get(), 256};
    session_->attach_guest(d1_);
    session_->attach_guest(d2_);
    vm1_->setup(w1_.program);
    vm2_->setup(w2_.program);
    session_->start();
    CreditScheduler scheduler(*machine_, *xen_);
    scheduler.add_domain(&d1_);
    scheduler.add_domain(&d2_);
    scheduler.run_all();
    result_ = session_->stop_and_flush();
  }

  std::unique_ptr<os::Machine> machine_;
  std::unique_ptr<Hypervisor> xen_;
  workloads::Workload w1_, w2_;
  std::unique_ptr<jvm::Vm> vm1_, vm2_;
  std::unique_ptr<XenoProfSession> session_;
  Domain d1_, d2_;
  XenoProfResult result_;
};

TEST_F(XenoProfTest, CapturesSamplesFromBothGuestsAndXen) {
  EXPECT_GT(result_.samples, 0u);
  EXPECT_GT(result_.daemon.jit_samples, 0u);
  EXPECT_GT(result_.daemon.hypervisor_samples, 0u);
  EXPECT_EQ(result_.dropped, 0u);
}

TEST_F(XenoProfTest, DomainProfilesAreDisjointByApplication) {
  core::Profile p1 = session_->domain_profile(d1_, {kTime});
  core::Profile p2 = session_->domain_profile(d2_, {kTime});
  bool p1_has_own = false, p1_has_other = false;
  for (const auto& row : p1.rows()) {
    if (row.symbol.view().find("synthetic.xg1") == 0) p1_has_own = true;
    if (row.symbol.view().find("synthetic.xg2") == 0) p1_has_other = true;
  }
  EXPECT_TRUE(p1_has_own);
  EXPECT_FALSE(p1_has_other);
  EXPECT_GT(p2.domain_total(core::SampleDomain::kJit, kTime), 0u);
}

TEST_F(XenoProfTest, BothGuestsEpochMapsResolve) {
  core::Resolver& r = session_->resolver();
  for (const Domain* d : {&d1_, &d2_}) {
    const core::CodeMapIndex* maps = r.code_maps(d->vm->pid());
    ASSERT_NE(maps, nullptr);
    EXPECT_GT(maps->map_count(), 0u);
  }
  // Per-pid epochs: no cross-contamination means high resolution rates.
  core::Profile p1 = session_->domain_profile(d1_, {kTime});
  core::Profile p2 = session_->domain_profile(d2_, {kTime});
  const std::uint64_t total = r.jit_resolved() + r.jit_unresolved();
  ASSERT_GT(total, 0u);
  EXPECT_GT(static_cast<double>(r.jit_resolved()) / static_cast<double>(total), 0.99);
}

TEST_F(XenoProfTest, HypervisorProfileOnlyXenSymbols) {
  core::Profile xp = session_->hypervisor_profile({kTime});
  EXPECT_GT(xp.total(kTime), 0u);
  for (const auto& row : xp.rows()) {
    EXPECT_EQ(row.image, "xen-syms");
    EXPECT_EQ(row.domain, core::SampleDomain::kHypervisor);
  }
}

TEST_F(XenoProfTest, DomainProfileIncludesItsHypervisorTime) {
  // XenoProf attribution: Xen cycles spent on behalf of a domain appear in
  // that domain's profile as xen-syms rows.
  core::Profile p1 = session_->domain_profile(d1_, {kTime});
  EXPECT_GT(p1.domain_total(core::SampleDomain::kHypervisor, kTime), 0u);
}

TEST_F(XenoProfTest, ArchiveResolverMatchesLiveResolverThroughTheHypervisor) {
  // Both fillers of the resolution world — the archive manifest (with its
  // hyp line) and the live machine — must attribute every logged sample of
  // a two-guest run identically, ring -1 samples included.
  session_->export_archive("archive");
  const core::ArchiveResolver offline(machine_->vfs(), "archive", /*vm_aware=*/true);
  core::Resolver& live = session_->resolver();
  std::uint64_t compared = 0, hypervisor = 0, jit = 0;
  for (hw::EventKind event : hw::kAllEventKinds) {
    for (const core::LoggedSample& s : core::SampleLogReader::read(
             machine_->vfs(), core::DaemonConfig{}.sample_dir, event)) {
      const core::Resolution a = live.resolve(s);
      const core::Resolution b = offline.resolve(s);
      ASSERT_EQ(a.image, b.image) << "pc=" << s.pc;
      ASSERT_EQ(a.symbol, b.symbol) << "pc=" << s.pc;
      ASSERT_EQ(a.domain, b.domain) << "pc=" << s.pc;
      ASSERT_EQ(a.maps_searched, b.maps_searched) << "pc=" << s.pc;
      ASSERT_EQ(a.symbol_base, b.symbol_base) << "pc=" << s.pc;
      ASSERT_EQ(a.symbol_size, b.symbol_size) << "pc=" << s.pc;
      ++compared;
      if (b.domain == core::SampleDomain::kHypervisor) ++hypervisor;
      if (b.domain == core::SampleDomain::kJit) ++jit;
    }
  }
  EXPECT_GT(compared, 100u);
  EXPECT_GT(hypervisor, 0u);
  EXPECT_GT(jit, 0u);
}

}  // namespace
}  // namespace viprof::xen
