// Memprof under injected faults: torn object-map writes salvage to exact
// salvaged+lost==acked accounting, an agent killed mid-run degrades every
// later epoch's object samples to the counted unresolved.obj.no_map bin,
// and — the invariant everything else serves — a damaged tree never
// *mis*attributes: any sample the degraded run still resolves gets exactly
// the attribution the undamaged twin run gave it.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/fsck.hpp"
#include "core/object_map.hpp"
#include "core/viprof.hpp"
#include "memprof/agent.hpp"
#include "memprof/report.hpp"
#include "support/fault.hpp"
#include "workloads/generator.hpp"

namespace viprof::memprof {
namespace {

workloads::Workload fault_workload() {
  workloads::GeneratorOptions opt;
  opt.name = "memfault";
  opt.seed = 0x5a5;
  opt.methods = 24;
  opt.alloc_intensity = 1.0;
  opt.nursery_bytes = 256 * 1024;
  opt.total_app_ops = 2'500'000;
  workloads::Workload w = workloads::make_synthetic(opt);
  for (jvm::MethodInfo& m : w.program.methods) {
    m.alloc_object_bytes = 96 + 32 * (m.id % 5);
    m.alloc_object_lifetime = m.id % 3;
  }
  w.vm.heap.track_objects = true;
  return w;
}

struct FaultedRun {
  std::unique_ptr<os::Machine> machine;
  std::unique_ptr<jvm::Vm> vm;
  std::unique_ptr<core::ProfilingSession> session;
  std::unique_ptr<MemProfAgent> agent;
  core::SessionResult result;

  ObjectReport object_report() const {
    return build_object_report(machine->vfs(), "samples",
                               session->registrations().all());
  }
};

/// Same seeds every time: with both injectors null this is the undamaged
/// twin of a faulted run, sample for sample. `vfs_fi` damages writes (torn
/// maps); `agent_fi` carries scheduled kills for the *memprof* agent alone —
/// wired through MemProfConfig, not SessionConfig, because the VM code
/// agent consults (and consumes) the same kAgent kill schedule.
FaultedRun run_memprof(support::FaultInjector* vfs_fi,
                       support::FaultInjector* agent_fi = nullptr) {
  FaultedRun run;
  os::MachineConfig mcfg;
  mcfg.seed = 0xfa11;
  run.machine = std::make_unique<os::Machine>(mcfg);
  const workloads::Workload w = fault_workload();
  run.vm = std::make_unique<jvm::Vm>(*run.machine, w.vm);
  core::SessionConfig config;
  config.mode = core::ProfilingMode::kViprof;
  config.counters = {{hw::EventKind::kGlobalPowerEvents, 90'000, true},
                     {hw::EventKind::kObjDmiss, 1'500, true}};
  config.agent.obj_map_dir = "obj_maps";
  config.fault = vfs_fi;  // installed into the machine's VFS by attach()
  run.session = std::make_unique<core::ProfilingSession>(*run.machine, *run.vm, config);
  MemProfConfig mconfig;
  mconfig.fault = agent_fi;  // scheduled kills, memprof agent only
  run.agent = std::make_unique<MemProfAgent>(*run.machine, mconfig);
  run.session->attach();
  run.vm->add_listener(run.agent.get());
  run.vm->setup(w.program);
  run.result = run.session->run();
  return run;
}

std::uint64_t bin_count(const core::Profile& profile, const char* symbol) {
  const core::ProfileRow* row = profile.find(kObjectImage, symbol);
  return row ? row->count(hw::EventKind::kObjDmiss) : 0;
}

/// (record index -> site symbol) for every sample the run attributed.
std::map<std::size_t, std::string> attributions(const os::Vfs& vfs,
                                                const std::vector<core::VmRegistration>& regs) {
  std::map<hw::Pid, core::CodeMapIndex> indexes;
  for (const core::VmRegistration& reg : regs)
    if (!reg.obj_map_dir.empty())
      indexes.emplace(reg.pid, core::load_object_index(vfs, reg.obj_map_dir, reg.pid).index);
  std::map<std::size_t, std::string> out;
  const auto samples =
      core::SampleLogReader::read(vfs, "samples", hw::EventKind::kObjDmiss);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto it = indexes.find(samples[i].pid);
    const core::Resolution res = resolve_object(
        it == indexes.end() ? nullptr : &it->second, samples[i].pc, samples[i].epoch);
    if (core::site_from_symbol(res.symbol)) out.emplace(i, res.symbol);
  }
  return out;
}

TEST(MemprofFaults, TornMapWriteSalvagesWithExactAccounting) {
  support::FaultInjector fi(0x70b2);
  support::FaultRule rule;
  rule.path_prefix = "obj_maps";
  rule.kind = support::FaultKind::kTornWrite;
  rule.skip = 2;   // third object-map write lands torn
  rule.count = 1;
  rule.torn_keep_frac = 0.35;
  fi.add_rule(rule);
  const FaultedRun damaged = run_memprof(&fi);
  const FaultedRun clean = run_memprof(nullptr);

  const MemProfStats& stats = damaged.agent->stats();
  EXPECT_EQ(fi.stats().torn_writes, 1u);
  EXPECT_EQ(stats.maps_torn, 1u);
  EXPECT_EQ(stats.maps_dropped, 0u);
  // A torn write still acked: the agent counted every entry it handed the
  // VFS, which is exactly the baseline fsck's loss accounting closes with.
  EXPECT_EQ(stats.maps_written, clean.agent->stats().maps_written);

  support::Telemetry tele;
  const core::FsckReport fsck = core::fsck_tree(damaged.machine->vfs(), nullptr, tele);
  EXPECT_TRUE(fsck.corrupt);
  EXPECT_EQ(fsck.omaps_truncated, 1u);
  EXPECT_EQ(fsck.dead_omaps, 0u);
  EXPECT_GT(fsck.objects_lost, 0u);
  // salvaged + lost == declared == acked: walk the tree and close the books
  // against the agent's own counters.
  std::uint64_t declared_intact = 0;
  const hw::Pid pid = damaged.session->registrations().all().at(0).pid;
  for (const std::string& path :
       damaged.machine->vfs().list("obj_maps/" + std::to_string(pid) + "/")) {
    const auto parsed = core::ObjectMapFile::parse(
        *damaged.machine->vfs().read(path),
        core::ObjectMapFile::frame_hash(pid, *core::ObjectMapFile::epoch_from_path(path)));
    if (parsed) declared_intact += parsed->objects.size();
  }
  EXPECT_EQ(declared_intact + fsck.objects_salvaged + fsck.objects_lost,
            stats.map_entries_written);
  EXPECT_EQ(tele.counter("fsck.omaps.objects_lost").value(), fsck.objects_lost);

  // The twin runs logged identical sample streams (a torn map write costs
  // what a clean one does), so attribution is comparable record by record.
  ASSERT_EQ(damaged.machine->vfs().read(
                core::SampleLogWriter::path_for("samples", hw::EventKind::kObjDmiss)),
            clean.machine->vfs().read(
                core::SampleLogWriter::path_for("samples", hw::EventKind::kObjDmiss)));

  // Degraded, never wrong: the torn epoch's losses land in the counted
  // truncated bin, and every sample the damaged tree still attributes gets
  // the same site the undamaged twin gave it.
  const ObjectReport dmg = damaged.object_report();
  const ObjectReport cln = clean.object_report();
  EXPECT_GT(dmg.stats.truncated_map, 0u);
  EXPECT_EQ(cln.stats.truncated_map, 0u);
  EXPECT_EQ(bin_count(dmg.profile, kUnresolvedObjTruncated), dmg.stats.truncated_map);
  EXPECT_LT(dmg.stats.resolved, cln.stats.resolved);

  const auto dmg_sites = attributions(damaged.machine->vfs(),
                                      damaged.session->registrations().all());
  const auto cln_sites = attributions(clean.machine->vfs(),
                                      clean.session->registrations().all());
  for (const auto& [record, site] : dmg_sites) {
    const auto it = cln_sites.find(record);
    ASSERT_NE(it, cln_sites.end()) << "record " << record;
    EXPECT_EQ(it->second, site) << "record " << record << " misattributed";
  }
}

TEST(MemprofFaults, KilledAgentDegradesLaterEpochsToCountedNoMap) {
  support::FaultInjector fi(0xdead2);
  fi.schedule_kill(support::FaultComponent::kAgent, 4'000'000);
  const FaultedRun run = run_memprof(nullptr, &fi);

  const MemProfStats& stats = run.agent->stats();
  ASSERT_TRUE(run.agent->killed());
  ASSERT_GT(stats.killed_epochs, 0u);
  ASSERT_GT(stats.maps_written, 0u) << "kill landed before the first map";

  // Maps stop at the kill; the epochs written are exactly the contiguous
  // prefix before it.
  const hw::Pid pid = run.session->registrations().all().at(0).pid;
  const core::ObjectIndexLoad load =
      core::load_object_index(run.machine->vfs(), "obj_maps", pid);
  EXPECT_EQ(load.maps_loaded, stats.maps_written);
  const std::uint64_t last_epoch = load.index.max_epoch();
  EXPECT_EQ(last_epoch + 1, stats.maps_written);

  // Every object sample after the last map is a counted no_map — and *only*
  // those samples are (the surviving prefix is contiguous and intact).
  const auto samples = core::SampleLogReader::read(run.machine->vfs(), "samples",
                                                   hw::EventKind::kObjDmiss);
  std::uint64_t beyond = 0;
  for (const core::LoggedSample& s : samples)
    if (s.epoch > last_epoch) ++beyond;
  ASSERT_GT(beyond, 0u) << "no object samples after the kill";

  const ObjectReport report = run.object_report();
  EXPECT_EQ(report.stats.no_map, beyond);
  EXPECT_EQ(bin_count(report.profile, kUnresolvedObjNoMap), beyond);
  EXPECT_EQ(report.stats.resolved + report.stats.unresolved, samples.size());

  // Never wrong: nothing beyond the last map resolves to a site.
  const auto sites = attributions(run.machine->vfs(),
                                  run.session->registrations().all());
  for (const auto& [record, site] : sites)
    EXPECT_LE(samples[record].epoch, last_epoch) << "record " << record;
}

TEST(MemprofFaults, FsckRecoveryRewritesSalvagedPrefixThatStaysHonest) {
  support::FaultInjector fi(0x70b3);
  support::FaultRule rule;
  rule.path_prefix = "obj_maps";
  rule.kind = support::FaultKind::kTornWrite;
  rule.skip = 1;
  rule.count = 2;  // two consecutive torn maps
  rule.torn_keep_frac = 0.4;
  fi.add_rule(rule);
  const FaultedRun damaged = run_memprof(&fi);
  EXPECT_EQ(damaged.agent->stats().maps_torn, 2u);

  // Recovery pass: copy the tree, rewriting damaged maps as their salvaged
  // prefix with the truncated marker set.
  os::Vfs recovered;
  core::FsckOptions opts;
  opts.write_recovery = true;
  opts.verbose = false;
  support::Telemetry tele;
  const core::FsckReport first =
      core::fsck_tree(damaged.machine->vfs(), &recovered, tele, opts);
  EXPECT_TRUE(first.corrupt);
  EXPECT_EQ(first.omaps_truncated, 2u);

  // The rewritten tree is clean — but still *marked*: a second scan finds
  // nothing corrupt, yet resolution keeps refusing to walk past the
  // truncated epochs (honesty survives recovery).
  opts.write_recovery = false;
  const core::FsckReport second = core::fsck_tree(recovered, nullptr, tele, opts);
  EXPECT_FALSE(second.corrupt);
  EXPECT_EQ(second.omaps_intact, first.omaps_intact + first.omaps_truncated);

  const hw::Pid pid = damaged.session->registrations().all().at(0).pid;
  const core::ObjectIndexLoad before =
      core::load_object_index(damaged.machine->vfs(), "obj_maps", pid);
  const core::ObjectIndexLoad after = core::load_object_index(recovered, "obj_maps", pid);
  EXPECT_EQ(after.maps_truncated, 2u);
  EXPECT_EQ(before.objects_loaded, after.objects_loaded);
  // Same refusals either way: rewriting loses no attribution and adds none.
  const auto samples = core::SampleLogReader::read(damaged.machine->vfs(), "samples",
                                                   hw::EventKind::kObjDmiss);
  for (const core::LoggedSample& s : samples) {
    const core::Resolution a = resolve_object(&before.index, s.pc, s.epoch);
    const core::Resolution b = resolve_object(&after.index, s.pc, s.epoch);
    ASSERT_EQ(a.symbol, b.symbol);
  }
}

}  // namespace
}  // namespace viprof::memprof
