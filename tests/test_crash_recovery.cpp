// Crash-recovery and storage-fault tests: the full pipeline under injected
// write failures, torn appends, disk-full and component kills. The contract
// everywhere: the run completes, every lost record is counted somewhere
// (dropped / spilled / salvaged / discarded / sequence gap / unresolved
// bin), and no sample is ever attributed to the wrong method.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "core/viprof.hpp"
#include "support/fault.hpp"
#include "workloads/generator.hpp"

namespace viprof {
namespace {

constexpr auto kTime = hw::EventKind::kGlobalPowerEvents;

struct FaultRun {
  std::unique_ptr<os::Machine> machine;
  std::unique_ptr<jvm::Vm> vm;
  std::unique_ptr<core::ProfilingSession> session;
  core::SessionResult result;
};

FaultRun make_run(core::SessionConfig config, std::uint64_t ops = 2'000'000) {
  FaultRun run;
  os::MachineConfig mcfg;
  mcfg.seed = 0xc4a5;
  run.machine = std::make_unique<os::Machine>(mcfg);
  workloads::GeneratorOptions opt;
  opt.name = "crash";
  opt.seed = 7;
  opt.methods = 16;
  opt.total_app_ops = ops;
  opt.alloc_intensity = 0.6;
  opt.nursery_bytes = 512 * 1024;
  const workloads::Workload w = workloads::make_synthetic(opt);
  run.vm = std::make_unique<jvm::Vm>(*run.machine, w.vm);
  run.session = std::make_unique<core::ProfilingSession>(*run.machine, *run.vm, config);
  run.session->attach();
  run.vm->setup(w.program);
  return run;
}

FaultRun full_run(core::SessionConfig config, std::uint64_t ops = 2'000'000) {
  FaultRun run = make_run(std::move(config), ops);
  run.result = run.session->run();
  return run;
}

core::SessionConfig base_config() {
  core::SessionConfig config;
  config.mode = core::ProfilingMode::kViprof;
  config.counters = {{kTime, 20'000, true},
                     {hw::EventKind::kBsqCacheReference, 1'000, true}};
  return config;
}

/// Sum of read_checked over all events; accumulates per-file statuses.
std::uint64_t read_all(const FaultRun& run, core::SampleLogReadStatus& total) {
  std::uint64_t valid = 0;
  for (hw::EventKind e : hw::kAllEventKinds) {
    core::SampleLogReadStatus st;
    core::SampleLogReader::read_checked(run.machine->vfs(),
                                        run.session->daemon()->sample_dir(), e, st);
    valid += st.valid;
    total.corrupt = total.corrupt || st.corrupt;
    total.valid += st.valid;
    total.salvaged += st.salvaged;
    total.discarded_lines += st.discarded_lines;
    total.discarded_bytes += st.discarded_bytes;
    total.duplicate_records += st.duplicate_records;
    total.missing_records += st.missing_records;
  }
  return valid;
}

/// Every JIT-domain sample resolves to a workload method or an explicit
/// unresolved bin — never to a method name damage could have invented.
void assert_no_misattribution(FaultRun& run) {
  core::Resolver& r = run.session->resolver();
  for (hw::EventKind e : hw::kAllEventKinds) {
    for (const core::LoggedSample& s : core::SampleLogReader::read(
             run.machine->vfs(), run.session->daemon()->sample_dir(), e)) {
      const core::Resolution res = r.resolve(s);
      if (res.domain != core::SampleDomain::kJit) continue;
      EXPECT_TRUE(res.symbol.view().find("synthetic.crash") == 0 ||
                  res.symbol == core::kUnresolvedMissingMap ||
                  res.symbol == core::kUnresolvedTruncatedMap ||
                  res.symbol == core::kUnknownJit)
          << res.symbol;
    }
  }
}

// --- The e2e scenario: kill the daemon mid-run, restart, conserve --------

TEST(CrashRecovery, DaemonKillMidRunRestartConservesSamples) {
  core::SessionConfig config = base_config();
  support::FaultInjector fi(0xdead);
  fi.schedule_kill(support::FaultComponent::kDaemon, 5'000'000);
  config.fault = &fi;
  FaultRun run = make_run(config);

  // Drive the VM in small slices until the scheduled kill lands.
  bool more = true;
  while (more && !run.session->daemon()->killed()) more = run.vm->step(20'000);
  ASSERT_TRUE(run.session->daemon()->killed());
  EXPECT_EQ(fi.stats().kills, 1u);

  // Let the dead window accumulate backlog, then restart and run out.
  for (int i = 0; i < 10 && more; ++i) more = run.vm->step(50'000);
  run.session->restart_daemon();
  EXPECT_FALSE(run.session->daemon()->killed());
  while (more) more = run.vm->step(200'000);
  run.result = run.session->finish_run();

  const core::DaemonStats& d = run.result.daemon;
  EXPECT_EQ(d.crashes, 1u);
  EXPECT_EQ(d.restarts, 1u);
  ASSERT_GT(run.result.nmi_count, 100u);

  // Buffer conservation: everything pushed (hardware samples + the agent's
  // epoch markers, which are enqueued whether or not the map write landed)
  // was drained, dropped, or is still sitting in the buffer.
  const std::uint64_t markers_pushed =
      run.result.agent.maps_written + run.result.agent.maps_dropped;
  EXPECT_EQ(d.drained + run.result.samples_dropped + run.result.samples_left_in_buffer,
            run.result.nmi_count + markers_pushed);
  EXPECT_EQ(run.result.samples_left_in_buffer, 0u);

  // Log conservation: every sample the daemon drained is either a verified
  // record on disk or in a counted loss bucket (crash-discarded pending
  // shows up to readers as a sequence gap).
  core::SampleLogReadStatus st;
  const std::uint64_t valid = read_all(run, st);
  EXPECT_EQ(valid + st.missing_records + d.spill_dropped_records,
            d.drained - d.epoch_markers);
  EXPECT_EQ(st.missing_records, d.crash_lost_records);
  EXPECT_FALSE(st.corrupt);  // a crash loses records, it does not corrupt files

  assert_no_misattribution(run);
}

TEST(CrashRecovery, UnrestartedCrashLeavesBacklogCounted) {
  core::SessionConfig config = base_config();
  support::FaultInjector fi;
  fi.schedule_kill(support::FaultComponent::kDaemon, 5'000'000);
  config.fault = &fi;
  FaultRun run = full_run(config);

  EXPECT_EQ(run.result.daemon.crashes, 1u);
  EXPECT_EQ(run.result.daemon.restarts, 0u);
  // The dead daemon's backlog stays in the buffer, visible and counted.
  EXPECT_GT(run.result.samples_left_in_buffer + run.result.samples_dropped, 0u);
  EXPECT_EQ(run.result.daemon.drained + run.result.samples_dropped +
                run.result.samples_left_in_buffer,
            run.result.nmi_count + run.result.agent.maps_written +
                run.result.agent.maps_dropped);
}

// --- Storage faults on the sample logs -----------------------------------

TEST(CrashRecovery, TornSampleAppendIsSalvagedAndCounted) {
  core::SessionConfig config = base_config();
  support::FaultInjector fi(0x7041);
  fi.add_rule({"samples/", support::FaultKind::kTornWrite, 2, 1, 1.0, 0.4});
  config.fault = &fi;
  FaultRun run = full_run(config);

  const core::DaemonStats& d = run.result.daemon;
  EXPECT_EQ(d.flush_torn_writes, 1u);

  core::SampleLogReadStatus st;
  const std::uint64_t valid = read_all(run, st);
  EXPECT_TRUE(st.corrupt);
  EXPECT_GT(st.salvaged, 0u);        // the damaged file still yielded records
  EXPECT_GT(st.discarded_lines, 0u); // the torn region was rejected, not trusted
  // Torn records were framed, so the reader sees them as a sequence gap:
  // verified + gap covers everything handed to the writer.
  EXPECT_EQ(valid + st.missing_records + d.spill_dropped_records,
            d.drained - d.epoch_markers);
  assert_no_misattribution(run);
}

TEST(CrashRecovery, TransientWriteErrorRetriesWithoutLoss) {
  core::SessionConfig config = base_config();
  support::FaultInjector fi;
  fi.add_rule({"samples/", support::FaultKind::kWriteError, 1, 1, 1.0, 0.5});
  config.fault = &fi;
  FaultRun run = full_run(config);

  const core::DaemonStats& d = run.result.daemon;
  EXPECT_EQ(d.flush_write_errors, 1u);
  EXPECT_GE(d.flush_retries, 1u);  // the in-chunk retry made it land
  EXPECT_EQ(d.spill_dropped_records, 0u);

  core::SampleLogReadStatus st;
  const std::uint64_t valid = read_all(run, st);
  EXPECT_FALSE(st.corrupt);
  EXPECT_EQ(st.missing_records, 0u);  // nothing lost: retry, not drop
  EXPECT_EQ(valid, d.drained - d.epoch_markers);
}

TEST(CrashRecovery, DiskFullSpillsThenDropsOldestCounted) {
  core::SessionConfig config = base_config();
  support::FaultInjector fi;
  fi.set_capacity_bytes(24 * 1024);  // fills partway through the run
  config.fault = &fi;
  config.daemon.spill_capacity_bytes = 2 * 1024;  // small spill: force drops
  FaultRun run = full_run(config);

  EXPECT_GT(fi.stats().enospc_errors, 0u);
  const core::DaemonStats& d = run.result.daemon;
  EXPECT_GT(d.spill_dropped_records, 0u);

  core::SampleLogReadStatus st;
  const std::uint64_t valid = read_all(run, st);
  // Whatever landed before the disk filled is verifiable; drops plus the
  // still-spilled tail account for the rest (never more records than drained).
  EXPECT_LE(valid + st.missing_records + d.spill_dropped_records,
            d.drained - d.epoch_markers);
  EXPECT_GT(valid, 0u);
  assert_no_misattribution(run);
}

// --- Storage faults on the code maps -------------------------------------

TEST(CrashRecovery, DroppedCodeMapYieldsMissingMapBinNotLies) {
  core::SessionConfig config = base_config();
  support::FaultInjector fi;
  // First map lands; every later map write fails permanently.
  fi.add_rule({"jit_maps/", support::FaultKind::kWriteError, 1, ~0ull, 1.0, 0.5});
  config.fault = &fi;
  FaultRun run = full_run(config);

  const core::AgentStats& a = run.result.agent;
  EXPECT_GT(a.maps_dropped, 0u);
  EXPECT_GT(a.map_write_errors, 0u);
  // The epoch marker is still pushed for a dropped map: epochs advance so
  // later samples can never be resolved against a stale map.
  EXPECT_EQ(run.result.daemon.epoch_markers, a.maps_written + a.maps_dropped);

  assert_no_misattribution(run);
  core::Resolver& r = run.session->resolver();
  EXPECT_GT(r.unresolved_missing_map(), 0u);
  EXPECT_EQ(r.unresolved_truncated_map(), 0u);
}

TEST(CrashRecovery, TornCodeMapSalvagesPrefixAndBinsTheRest) {
  core::SessionConfig config = base_config();
  support::FaultInjector fi(0x70b1);
  // Every map after the first lands torn, keeping only a small prefix.
  fi.add_rule({"jit_maps/", support::FaultKind::kTornWrite, 1, ~0ull, 1.0, 0.15});
  config.fault = &fi;
  FaultRun run = full_run(config);

  const core::AgentStats& a = run.result.agent;
  EXPECT_GT(a.maps_torn, 0u);

  assert_no_misattribution(run);
  core::Resolver& r = run.session->resolver();
  const core::CodeMapIndex* maps = r.code_maps(run.vm->pid());
  ASSERT_NE(maps, nullptr);
  EXPECT_GT(maps->truncated_count(), 0u);
  EXPECT_GT(r.unresolved_truncated_map(), 0u);
}

TEST(CrashRecovery, AgentKillStopsMapsAndBinsLaterSamples) {
  core::SessionConfig config = base_config();
  support::FaultInjector fi;
  config.fault = &fi;
  FaultRun run = make_run(config);

  // Let a few epochs complete normally, then kill the agent mid-run so the
  // remaining epochs have neither maps nor markers.
  bool more = true;
  while (more && run.session->agent()->stats().maps_written < 2)
    more = run.vm->step(20'000);
  ASSERT_GE(run.session->agent()->stats().maps_written, 2u);
  fi.schedule_kill(support::FaultComponent::kAgent, run.machine->cpu().now());
  while (more) more = run.vm->step(200'000);
  run.result = run.session->finish_run();
  EXPECT_TRUE(run.session->agent()->killed());

  const core::AgentStats& a = run.result.agent;
  EXPECT_GT(a.killed_epochs, 0u);
  // A dead agent pushes no markers, so buffer conservation uses the markers
  // the daemon actually saw.
  EXPECT_EQ(run.result.daemon.drained + run.result.samples_dropped,
            run.result.nmi_count + run.result.daemon.epoch_markers);

  assert_no_misattribution(run);
  // Samples from the unclosed final epoch have no map to resolve against.
  core::Resolver& r = run.session->resolver();
  EXPECT_GT(r.unresolved_missing_map(), 0u);
}

// --- Chaos: everything at once, deterministically -------------------------

TEST(CrashRecovery, ChaosRunCompletesWithFullLedger) {
  core::SessionConfig config = base_config();
  support::FaultInjector fi(0xc4a05);
  fi.add_rule({"samples/", support::FaultKind::kWriteError, 0, ~0ull, 0.10, 0.5});
  fi.add_rule({"samples/", support::FaultKind::kTornWrite, 0, ~0ull, 0.05, 0.6});
  fi.add_rule({"jit_maps/", support::FaultKind::kWriteError, 0, ~0ull, 0.15, 0.5});
  fi.add_rule({"jit_maps/", support::FaultKind::kTornWrite, 0, ~0ull, 0.10, 0.3});
  config.fault = &fi;
  FaultRun run = full_run(config);

  ASSERT_GT(run.result.nmi_count, 100u);
  EXPECT_GT(fi.faults_injected(), 0u);

  // Buffer ledger.
  const core::DaemonStats& d = run.result.daemon;
  EXPECT_EQ(d.drained + run.result.samples_dropped,
            run.result.nmi_count + d.epoch_markers);
  // Log ledger: verified + gaps + spill drops covers all drained samples
  // (spilled-but-unflushed remainder allows <=; final_flush retries shrink it).
  core::SampleLogReadStatus st;
  const std::uint64_t valid = read_all(run, st);
  EXPECT_LE(valid + st.missing_records + d.spill_dropped_records,
            d.drained - d.epoch_markers);
  EXPECT_GT(valid, 0u);

  // And the one inviolable rule, under the whole storm:
  assert_no_misattribution(run);
}

TEST(CrashRecovery, CollidingEpochHintsMergeInsteadOfAborting) {
  // Two map files whose names both decode to epoch 3: a corrupt leftover
  // ("map.00000003", header unreadable — salvaged empty under the name
  // hint) next to an unpadded but intact "map.3". load() used to die on
  // the second add() for the same epoch; the collision must instead merge
  // the entries and mark the epoch truncated — provenance is ambiguous,
  // so absence from the merged map proves nothing.
  os::Vfs vfs;
  vfs.write("jit_maps/9/map.00000003", "@@@ header destroyed by a torn write\n");
  core::CodeMapFile intact;
  intact.epoch = 3;
  intact.entries.push_back({0x6000, 128, support::Name("ghost.A")});
  vfs.write("jit_maps/9/map.3", intact.serialize(9));

  core::CodeMapIndex index;
  const auto stats = index.load(vfs, "jit_maps", 9);
  EXPECT_EQ(stats.maps_loaded, 2u);
  EXPECT_EQ(stats.maps_intact, 1u);
  EXPECT_EQ(stats.maps_truncated, 1u);
  EXPECT_EQ(index.map_count(), 1u);  // merged into one epoch-3 map
  EXPECT_TRUE(index.epoch_truncated(3));
  EXPECT_EQ(index.truncated_count(), 1u);
  EXPECT_EQ(index.total_entries(), stats.entries_loaded);

  // Entries from the intact file still resolve; the truncated marking
  // stops lookup() from treating the merged map as exhaustive.
  const auto hit = index.resolve(0x6000 + 8, 3);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->symbol, "ghost.A");
  const auto miss = index.lookup(0x5000, 3);
  EXPECT_EQ(miss.miss, core::JitLookupMiss::kTruncatedMap);
}

TEST(CrashRecovery, ChaosRunIsDeterministicUnderSeed) {
  auto ledger = [] {
    core::SessionConfig config = base_config();
    support::FaultInjector fi(0x5eed5);
    fi.add_rule({"samples/", support::FaultKind::kTornWrite, 0, ~0ull, 0.08, 0.5});
    fi.add_rule({"jit_maps/", support::FaultKind::kWriteError, 0, ~0ull, 0.20, 0.5});
    config.fault = &fi;
    FaultRun run = full_run(config, 1'000'000);
    core::SampleLogReadStatus st;
    const std::uint64_t valid = read_all(run, st);
    return std::tuple(valid, st.missing_records, st.discarded_lines,
                      fi.stats().torn_writes, fi.stats().write_errors,
                      run.result.daemon.drained, run.result.agent.maps_dropped);
  };
  EXPECT_EQ(ledger(), ledger());
}

}  // namespace
}  // namespace viprof
