// Failure-injection and stress tests: the profiler under hostile
// conditions — undersized buffers, extreme sampling rates, hardware skid,
// starved daemons — must degrade *gracefully and accountably*: drops are
// counted, attribution never lies, invariants hold.
#include <gtest/gtest.h>

#include <memory>

#include "core/viprof.hpp"
#include "workloads/generator.hpp"

namespace viprof {
namespace {

constexpr auto kTime = hw::EventKind::kGlobalPowerEvents;

struct InjRun {
  std::unique_ptr<os::Machine> machine;
  std::unique_ptr<jvm::Vm> vm;
  std::unique_ptr<core::ProfilingSession> session;
  core::SessionResult result;
};

InjRun run_with(core::SessionConfig config, std::uint64_t ops = 3'000'000) {
  InjRun run;
  os::MachineConfig mcfg;
  mcfg.seed = 0xfa11;
  run.machine = std::make_unique<os::Machine>(mcfg);
  workloads::GeneratorOptions opt;
  opt.name = "inj";
  opt.seed = 4;
  opt.methods = 16;
  opt.total_app_ops = ops;
  opt.alloc_intensity = 0.6;
  opt.nursery_bytes = 512 * 1024;
  const workloads::Workload w = workloads::make_synthetic(opt);
  run.vm = std::make_unique<jvm::Vm>(*run.machine, w.vm);
  run.session = std::make_unique<core::ProfilingSession>(*run.machine, *run.vm, config);
  run.session->attach();
  run.vm->setup(w.program);
  run.result = run.session->run();
  return run;
}

TEST(FailureInjection, TinyBufferDropsAreCountedNotLost) {
  core::SessionConfig config;
  config.mode = core::ProfilingMode::kViprof;
  config.buffer_capacity = 16;  // absurdly small
  // Slow the daemon so the buffer actually overflows.
  config.daemon.drain_watermark = 1'000'000;
  config.daemon.drain_period = 50'000'000;
  config.counters = {{kTime, 10'000, true}};
  InjRun run = run_with(config);
  EXPECT_GT(run.result.samples_dropped, 0u);
  // Conservation holds with drops included.
  std::uint64_t logged = 0;
  for (hw::EventKind e : hw::kAllEventKinds) {
    logged += core::SampleLogReader::read(run.machine->vfs(),
                                          run.session->daemon()->sample_dir(), e)
                  .size();
  }
  // Full ledger: pushed records = hw samples + markers (one per map);
  // every pushed record is either drained (markers are consumed, samples
  // are logged) or dropped. Nothing vanishes unaccounted.
  EXPECT_EQ(logged + run.result.daemon.epoch_markers + run.result.samples_dropped,
            run.result.nmi_count + run.result.agent.maps_written);
}

TEST(FailureInjection, DroppedEpochMarkersNeverCorruptAttributionForward) {
  // Even with heavy drops, surviving JIT samples must either resolve to a
  // real method or be explicitly unknown — never to a *wrong* method of a
  // different image class.
  core::SessionConfig config;
  config.mode = core::ProfilingMode::kViprof;
  config.buffer_capacity = 16;
  config.daemon.drain_watermark = 1'000'000;
  config.daemon.drain_period = 50'000'000;
  config.counters = {{kTime, 10'000, true}};
  InjRun run = run_with(config);
  core::Resolver& r = run.session->resolver();
  for (const core::LoggedSample& s : core::SampleLogReader::read(
           run.machine->vfs(), run.session->daemon()->sample_dir(), kTime)) {
    const core::Resolution res = r.resolve(s);
    if (res.domain == core::SampleDomain::kJit) {
      EXPECT_TRUE(res.symbol.view().find("synthetic.inj") == 0 ||
                  res.symbol == "(unknown JIT code)")
          << res.symbol;
    }
  }
}

TEST(FailureInjection, ExtremeSamplingStillTerminatesAndConserves) {
  core::SessionConfig config;
  config.mode = core::ProfilingMode::kViprof;
  config.counters = {{kTime, 5'000, true}};  // brutal rate; nmi_cost ~ period/2
  InjRun run = run_with(config, 1'000'000);
  EXPECT_GT(run.result.nmi_count, 100u);
  EXPECT_EQ(run.result.daemon.drained + run.result.samples_dropped,
            run.result.nmi_count + run.result.daemon.epoch_markers);
  // Overhead is large but the run completed and time is accounted.
  EXPECT_GT(run.result.cycles, 0u);
}

TEST(FailureInjection, PcSkidKeepsSamplesInsideSomeImage) {
  core::SessionConfig config;
  config.mode = core::ProfilingMode::kViprof;
  config.pc_skid = 64;  // hardware-style late attribution
  InjRun run = run_with(config);
  core::Resolver& r = run.session->resolver();
  std::uint64_t unknown = 0, total = 0;
  for (const core::LoggedSample& s : core::SampleLogReader::read(
           run.machine->vfs(), run.session->daemon()->sample_dir(), kTime)) {
    ++total;
    if (r.resolve(s).domain == core::SampleDomain::kUnknown) ++unknown;
  }
  ASSERT_GT(total, 0u);
  EXPECT_EQ(unknown, 0u);  // skid is clamped to the executing body
}

TEST(FailureInjection, TinyDaemonBatchStillDrainsEverything) {
  core::SessionConfig config;
  config.mode = core::ProfilingMode::kViprof;
  config.daemon.batch = 2;
  config.daemon.drain_watermark = 2;
  InjRun run = run_with(config);
  EXPECT_EQ(run.result.samples_dropped, 0u);
  EXPECT_GT(run.result.daemon.wakeups, 10u);
}

TEST(FailureInjection, ZeroGlueAndNoOutcallsWorkloadRuns) {
  workloads::GeneratorOptions opt;
  opt.name = "bare";
  opt.methods = 2;
  opt.total_app_ops = 200'000;
  opt.native_frac = 0.0;
  opt.syscall_frac = 0.0;
  opt.vm_glue_frac = 0.0;
  const workloads::Workload w = workloads::make_synthetic(opt);
  os::Machine machine;
  jvm::Vm vm(machine, w.vm);
  vm.setup(w.program);
  const jvm::RunStats stats = vm.run();
  EXPECT_GE(stats.app_ops, 200'000u);
  EXPECT_EQ(stats.native_ops, 0u);
  EXPECT_EQ(stats.kernel_ops, 0u);
}

TEST(FailureInjection, ReattachDifferentSessionToFreshMachineIsClean) {
  // Sessions must not leak NMI handlers into later machines (the destructor
  // clears the hook); two sequential full runs on fresh machines agree.
  core::SessionConfig config;
  config.mode = core::ProfilingMode::kViprof;
  const core::SessionResult a = run_with(config).result;
  const core::SessionResult b = run_with(config).result;
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.nmi_count, b.nmi_count);
}

class BufferCapacitySweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BufferCapacitySweep, ConservationHoldsAtAnyCapacity) {
  core::SessionConfig config;
  config.mode = core::ProfilingMode::kViprof;
  config.buffer_capacity = GetParam();
  config.counters = {{kTime, 20'000, true}};
  InjRun run = run_with(config, 1'500'000);
  std::uint64_t logged = 0;
  for (hw::EventKind e : hw::kAllEventKinds) {
    logged += core::SampleLogReader::read(run.machine->vfs(),
                                          run.session->daemon()->sample_dir(), e)
                  .size();
  }
  EXPECT_EQ(logged + run.result.daemon.epoch_markers + run.result.samples_dropped,
            run.result.nmi_count + run.result.agent.maps_written);
}

INSTANTIATE_TEST_SUITE_P(Capacities, BufferCapacitySweep,
                         ::testing::Values(16, 64, 512, 4096, 65536));

}  // namespace
}  // namespace viprof
