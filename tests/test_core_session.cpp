#include <gtest/gtest.h>

#include "core/viprof.hpp"
#include "workloads/generator.hpp"

namespace viprof::core {
namespace {

workloads::Workload session_workload(std::uint64_t ops = 3'000'000) {
  workloads::GeneratorOptions opt;
  opt.name = "sess";
  opt.seed = 5;
  opt.methods = 16;
  opt.total_app_ops = ops;
  opt.alloc_intensity = 0.6;
  opt.nursery_bytes = 512 * 1024;
  opt.native_frac = 0.1;
  opt.syscall_frac = 0.05;
  return workloads::make_synthetic(opt);
}

struct ModeRun {
  std::unique_ptr<jvm::Vm> vm;
  std::unique_ptr<ProfilingSession> session;
  SessionResult result;
};

ModeRun run_mode(ProfilingMode mode, os::Machine& machine) {
  ModeRun run;
  const workloads::Workload w = session_workload();
  run.vm = std::make_unique<jvm::Vm>(machine, w.vm);
  SessionConfig config;
  config.mode = mode;
  run.session = std::make_unique<ProfilingSession>(machine, *run.vm, config);
  run.session->attach();
  run.vm->setup(w.program);
  run.result = run.session->run();
  return run;
}

TEST(Session, BaseModeHasZeroProfilingActivity) {
  os::Machine machine;
  const SessionResult result = run_mode(ProfilingMode::kBase, machine).result;
  EXPECT_EQ(result.nmi_count, 0u);
  EXPECT_EQ(result.nmi_cycles, 0u);
  EXPECT_EQ(result.daemon.drained, 0u);
  EXPECT_EQ(result.agent.maps_written, 0u);
  EXPECT_GT(result.cycles, 0u);
}

TEST(Session, ProfiledModesTakeSamples) {
  os::Machine m1, m2;
  const SessionResult oprof = run_mode(ProfilingMode::kOprofile, m1).result;
  const SessionResult viprof = run_mode(ProfilingMode::kViprof, m2).result;
  EXPECT_GT(oprof.nmi_count, 0u);
  EXPECT_GT(viprof.nmi_count, 0u);
  // Every sample drained or still pending is accounted; none invented.
  EXPECT_GE(oprof.daemon.drained, oprof.nmi_count - oprof.samples_dropped);
}

TEST(Session, ProfilingCostsCycles) {
  os::MachineConfig mcfg;
  mcfg.seed = 77;
  os::Machine base_machine(mcfg), prof_machine(mcfg);
  const SessionResult base = run_mode(ProfilingMode::kBase, base_machine).result;
  const SessionResult prof = run_mode(ProfilingMode::kViprof, prof_machine).result;
  EXPECT_GT(prof.cycles, base.cycles);
}

TEST(Session, ViprofResolvesJitSamples) {
  os::Machine machine;
  ModeRun run = run_mode(ProfilingMode::kViprof, machine);
  ProfilingSession* session = run.session.get();
  const Profile profile = session->build_profile({hw::EventKind::kGlobalPowerEvents});
  EXPECT_GT(profile.domain_total(SampleDomain::kJit, hw::EventKind::kGlobalPowerEvents),
            0u);
  // JIT samples resolve to actual method names, not the unknown bucket.
  bool found_method = false;
  for (const auto& row : profile.rows()) {
    if (row.image == "JIT.App" && row.symbol.view().find("synthetic.sess") == 0) {
      found_method = true;
    }
  }
  EXPECT_TRUE(found_method);
  EXPECT_GT(session->resolver().jit_resolved(), 0u);
}

TEST(Session, OprofileLeavesJitAnonymous) {
  os::Machine machine;
  ModeRun run = run_mode(ProfilingMode::kOprofile, machine);
  const Profile profile = run.session->build_profile({hw::EventKind::kGlobalPowerEvents});
  EXPECT_EQ(profile.domain_total(SampleDomain::kJit, hw::EventKind::kGlobalPowerEvents),
            0u);
  EXPECT_GT(profile.domain_total(SampleDomain::kAnon, hw::EventKind::kGlobalPowerEvents),
            0u);
  bool anon_row = false;
  for (const auto& row : profile.rows()) {
    if (row.image.view().find("anon (range:0x") == 0) anon_row = true;
  }
  EXPECT_TRUE(anon_row);
}

TEST(Session, EpochMapsWrittenPerCollection) {
  os::Machine machine;
  const SessionResult result = run_mode(ProfilingMode::kViprof, machine).result;
  EXPECT_GT(result.vm.collections, 0u);
  // One map per closed epoch plus the final shutdown map.
  EXPECT_EQ(result.agent.maps_written, result.vm.collections + 1);
}

TEST(Session, SampleTotalsConserved) {
  os::Machine machine;
  const SessionResult result = run_mode(ProfilingMode::kViprof, machine).result;
  // Daemon drained records = NMI samples + epoch markers - drops.
  EXPECT_EQ(result.daemon.drained + result.samples_dropped,
            result.nmi_count + result.daemon.epoch_markers);
}

TEST(Session, ReportTextContainsHeaders) {
  os::Machine machine;
  ModeRun run = run_mode(ProfilingMode::kViprof, machine);
  const std::string report = run.session->report_text(
      {hw::EventKind::kGlobalPowerEvents, hw::EventKind::kBsqCacheReference}, 10);
  EXPECT_NE(report.find("Time %"), std::string::npos);
  EXPECT_NE(report.find("Dmiss %"), std::string::npos);
}

TEST(Session, CallgraphHasCrossLayerArcs) {
  os::Machine machine;
  ModeRun run = run_mode(ProfilingMode::kViprof, machine);
  CallGraph graph = run.session->build_callgraph(hw::EventKind::kGlobalPowerEvents);
  // The workload's hot method calls memset and sys_write.
  EXPECT_FALSE(graph.cross_layer_arcs().empty());
}

TEST(Session, SmallerPeriodMoreSamples) {
  std::uint64_t counts[2] = {};
  std::uint64_t periods[2] = {45'000, 450'000};
  for (int i = 0; i < 2; ++i) {
    os::MachineConfig mcfg;
    mcfg.seed = 123;
    os::Machine machine(mcfg);
    const workloads::Workload w = session_workload();
    jvm::Vm vm(machine, w.vm);
    SessionConfig config;
    config.mode = ProfilingMode::kViprof;
    config.counters = {{hw::EventKind::kGlobalPowerEvents, periods[i], true}};
    ProfilingSession session(machine, vm, config);
    session.attach();
    vm.setup(w.program);
    counts[i] = session.run().nmi_count;
  }
  EXPECT_GT(counts[0], counts[1] * 5);
}

TEST(Session, BaseModeDisablesCounters) {
  os::Machine machine;
  const workloads::Workload w = session_workload(500'000);
  jvm::Vm vm(machine, w.vm);
  SessionConfig config;
  config.mode = ProfilingMode::kBase;
  ProfilingSession session(machine, vm, config);
  session.attach();
  vm.setup(w.program);
  session.run();
  EXPECT_FALSE(machine.cpu().counters().enabled());
  EXPECT_EQ(machine.cpu().nmi_count(), 0u);
}

}  // namespace
}  // namespace viprof::core
