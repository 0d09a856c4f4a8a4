// The paper's generality claim (Section 2): the VIProf mechanism "is simple
// and general enough to support a wide range of virtual execution
// environments (multiple Java virtual machines as well as Microsoft .Net
// common language runtimes)". This suite profiles a CLR-flavored stack
// through the *identical* machinery — registration, agent hooks, epoch code
// maps, backward search — and checks that only the runtime's identity
// changes, never the profiler.
#include <gtest/gtest.h>

#include <memory>

#include "core/archive.hpp"
#include "core/viprof.hpp"
#include "workloads/generator.hpp"

namespace viprof {
namespace {

constexpr auto kTime = hw::EventKind::kGlobalPowerEvents;

struct ClrRun {
  std::unique_ptr<os::Machine> machine;
  std::unique_ptr<jvm::Vm> vm;
  std::unique_ptr<core::ProfilingSession> session;
  core::SessionResult result;
};

ClrRun run_clr(core::ProfilingMode mode) {
  ClrRun run;
  os::MachineConfig mcfg;
  mcfg.seed = 0xc14;
  run.machine = std::make_unique<os::Machine>(mcfg);
  workloads::GeneratorOptions opt;
  opt.name = "dotnetapp";
  opt.seed = 21;
  opt.methods = 16;
  opt.total_app_ops = 3'000'000;
  opt.alloc_intensity = 0.6;
  opt.nursery_bytes = 512 * 1024;
  opt.flavor = jvm::VmFlavor::kClr;
  const workloads::Workload w = workloads::make_synthetic(opt);
  run.vm = std::make_unique<jvm::Vm>(*run.machine, w.vm);
  core::SessionConfig config;
  config.mode = mode;
  run.session = std::make_unique<core::ProfilingSession>(*run.machine, *run.vm, config);
  run.session->attach();
  run.vm->setup(w.program);
  run.result = run.session->run();
  return run;
}

TEST(ClrFlavor, HostIdentityIsClr) {
  ClrRun run = run_clr(core::ProfilingMode::kViprof);
  EXPECT_NE(run.machine->registry().find_by_name("clrhost"), nullptr);
  EXPECT_NE(run.machine->registry().find_by_name("CLR.native.image"), nullptr);
  EXPECT_EQ(run.machine->registry().find_by_name("RVM.code.image"), nullptr);
  EXPECT_TRUE(run.machine->vfs().exists("CLR.map"));
  EXPECT_FALSE(run.machine->vfs().exists("RVM.map"));
}

TEST(ClrFlavor, ViprofResolvesClrInternalsAndJit) {
  ClrRun run = run_clr(core::ProfilingMode::kViprof);
  const core::Profile profile = run.session->build_profile({kTime});
  // JIT samples resolve through the same epoch-map machinery.
  EXPECT_GT(profile.domain_total(core::SampleDomain::kJit, kTime), 0u);
  // Runtime internals show under the CLR.map label with CLR symbol names.
  bool clr_internal = false;
  for (const auto& row : profile.rows()) {
    if (row.domain != core::SampleDomain::kBoot) continue;
    EXPECT_EQ(row.image, "CLR.map");
    const std::string_view symbol = row.symbol;
    if (symbol.find("mscorwks!") == 0 || symbol.find("clrjit!") == 0) {
      clr_internal = true;
    }
    EXPECT_EQ(symbol.find("com.ibm.jikesrvm"), std::string::npos);
  }
  EXPECT_TRUE(clr_internal);
}

TEST(ClrFlavor, StockOprofileSeesOpaqueClrImage) {
  ClrRun run = run_clr(core::ProfilingMode::kOprofile);
  const core::Profile profile = run.session->build_profile({kTime});
  bool opaque = false, anon = false;
  for (const auto& row : profile.rows()) {
    if (row.image == "CLR.native.image" && row.symbol == "(no symbols)") opaque = true;
    if (row.image.view().find("anon (range:0x") == 0 &&
        row.image.view().find("clrhost") != std::string::npos) {
      anon = true;
    }
  }
  EXPECT_TRUE(opaque);
  EXPECT_TRUE(anon);
}

TEST(ClrFlavor, EpochMapsAndAgentWorkUnchanged) {
  ClrRun run = run_clr(core::ProfilingMode::kViprof);
  EXPECT_GT(run.result.vm.collections, 0u);
  EXPECT_EQ(run.result.agent.maps_written, run.result.vm.collections + 1);
  run.session->build_profile({kTime});  // drives the resolver
  EXPECT_GT(run.session->resolver().jit_resolved(), 0u);
  EXPECT_EQ(run.session->resolver().jit_unresolved(), 0u);
}

TEST(ClrFlavor, ArchiveRoundTripKeepsClrLabels) {
  ClrRun run = run_clr(core::ProfilingMode::kViprof);
  run.session->export_archive();
  const core::ArchiveResolver offline(run.machine->vfs(), "archive", true);
  core::Resolver& live = run.session->resolver();
  for (const core::LoggedSample& s : core::SampleLogReader::read(
           run.machine->vfs(), run.session->daemon()->sample_dir(), kTime)) {
    const core::Resolution a = live.resolve(s);
    const core::Resolution b = offline.resolve(s);
    ASSERT_EQ(a.image, b.image);
    ASSERT_EQ(a.symbol, b.symbol);
  }
}

}  // namespace
}  // namespace viprof
