// The memory-profiling agent against a real VM run: one partial object map
// per epoch written just before the GC that closes it, deaths recorded in
// the following epoch's map, hot survivors changing address across maps
// (the moving-GC property the whole subsystem exists for), and exact
// agreement between the agent's own ack counters and what a reader finds
// in the map tree.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/object_map.hpp"
#include "core/viprof.hpp"
#include "memprof/agent.hpp"
#include "workloads/generator.hpp"

namespace viprof::memprof {
namespace {

workloads::Workload small_memprof_workload(std::uint64_t seed = 0x3e3) {
  workloads::GeneratorOptions opt;
  opt.name = "memtest";
  opt.seed = seed;
  opt.methods = 24;
  opt.alloc_intensity = 1.0;
  opt.nursery_bytes = 256 * 1024;  // small nursery: several collections
  opt.total_app_ops = 2'500'000;
  workloads::Workload w = workloads::make_synthetic(opt);
  for (jvm::MethodInfo& m : w.program.methods) {
    m.alloc_object_bytes = 96 + 32 * (m.id % 5);
    m.alloc_object_lifetime = m.id % 4;  // 1-3: survive (and move); 0: die young
  }
  w.vm.heap.track_objects = true;
  return w;
}

struct AgentRun {
  std::unique_ptr<os::Machine> machine;
  std::unique_ptr<jvm::Vm> vm;
  std::unique_ptr<core::ProfilingSession> session;
  std::unique_ptr<MemProfAgent> agent;
  core::SessionResult result;
};

AgentRun run_with_agent(const MemProfConfig& mconfig = {}) {
  AgentRun run;
  os::MachineConfig mcfg;
  mcfg.seed = 0x3e3f;
  run.machine = std::make_unique<os::Machine>(mcfg);
  const workloads::Workload w = small_memprof_workload();
  run.vm = std::make_unique<jvm::Vm>(*run.machine, w.vm);
  core::SessionConfig config;
  config.mode = core::ProfilingMode::kViprof;
  config.counters = {{hw::EventKind::kGlobalPowerEvents, 90'000, true},
                     {hw::EventKind::kObjDmiss, 2'000, true}};
  config.agent.obj_map_dir = "obj_maps";
  run.session = std::make_unique<core::ProfilingSession>(*run.machine, *run.vm, config);
  run.agent = std::make_unique<MemProfAgent>(*run.machine, mconfig);
  run.session->attach();
  run.vm->add_listener(run.agent.get());
  run.vm->setup(w.program);
  run.result = run.session->run();
  return run;
}

/// Every intact omap under obj_maps/<pid>/, parsed, keyed by epoch.
std::map<std::uint64_t, core::ObjectMapFile> read_maps(const os::Vfs& vfs, hw::Pid pid) {
  std::map<std::uint64_t, core::ObjectMapFile> out;
  for (const std::string& path : vfs.list("obj_maps/" + std::to_string(pid) + "/")) {
    const auto contents = vfs.read(path);
    if (!contents) continue;
    const auto parsed = core::ObjectMapFile::parse(
        *contents,
        core::ObjectMapFile::frame_hash(pid, *core::ObjectMapFile::epoch_from_path(path)));
    EXPECT_TRUE(parsed.has_value()) << path << " failed strict parse";
    if (parsed) out.emplace(parsed->epoch, *parsed);
  }
  return out;
}

TEST(MemProfAgent, WritesOneIntactMapPerEpochAndAcksExactly) {
  AgentRun run = run_with_agent();
  ASSERT_GE(run.result.vm.collections, 2u) << "workload must GC several times";

  const hw::Pid pid = run.session->registrations().all().at(0).pid;
  const std::map<std::uint64_t, core::ObjectMapFile> maps =
      read_maps(run.machine->vfs(), pid);
  const MemProfStats& stats = run.agent->stats();

  // One map per epoch, epochs contiguous from 0 — the same schedule the VM
  // agent follows for code maps.
  ASSERT_EQ(maps.size(), stats.maps_written);
  std::uint64_t expect_epoch = 0;
  for (const auto& [epoch, file] : maps) EXPECT_EQ(epoch, expect_epoch++);

  // The agent's acks equal what a reader finds, line for line: that
  // equality is the baseline the fsck loss accounting is measured against.
  std::uint64_t objects = 0, deaths = 0;
  for (const auto& [epoch, file] : maps) {
    objects += file.objects.size();
    deaths += file.dead.size();
    EXPECT_FALSE(file.sites.empty()) << "map " << epoch << " lost its dictionary";
  }
  EXPECT_EQ(objects, stats.map_entries_written);
  EXPECT_EQ(deaths, stats.map_deaths_written);
  // Healthy run: every allocation and every move flag lands in exactly one
  // map, and every flagged death is recorded once.
  EXPECT_EQ(stats.map_entries_written, stats.allocs_logged + stats.moves_flagged);
  EXPECT_EQ(stats.map_deaths_written, stats.deads_flagged);
  EXPECT_EQ(stats.maps_dropped, 0u);
  EXPECT_EQ(stats.maps_torn, 0u);
  EXPECT_GT(stats.allocs_logged, 0u);
  EXPECT_GT(stats.cost_cycles, 0u);
  EXPECT_GT(stats.sites_announced, 0u);

  // The agent's overhead is charged on the simulated CPU like any other
  // listener's (it shows up in the Fig. 2 arm, not free).
  EXPECT_GE(run.result.vm.agent_cycles, stats.cost_cycles);

  // Self-telemetry mirrors the ack counters (memprof.* namespace).
  support::Telemetry& tele = run.machine->telemetry();
  EXPECT_EQ(tele.counter("memprof.maps_written").value(), stats.maps_written);
  EXPECT_EQ(tele.counter("memprof.map_entries").value(), stats.map_entries_written);
  EXPECT_EQ(tele.counter("memprof.allocs_logged").value(), stats.allocs_logged);
}

TEST(MemProfAgent, DeathsPostdateEverySightingAndSurvivorsMove) {
  AgentRun run = run_with_agent();
  const hw::Pid pid = run.session->registrations().all().at(0).pid;
  const std::map<std::uint64_t, core::ObjectMapFile> maps =
      read_maps(run.machine->vfs(), pid);
  ASSERT_GE(maps.size(), 3u);

  // First epoch each object was sighted (allocated) in.
  std::map<std::uint64_t, std::uint64_t> first_seen;
  std::map<std::uint64_t, std::set<hw::Address>> addresses;
  for (const auto& [epoch, file] : maps) {
    for (const core::ObjectMapEntry& o : file.objects) {
      first_seen.emplace(o.obj_id, epoch);
      addresses[o.obj_id].insert(o.address);
    }
  }

  // A death line always post-dates every map entry for the object: deaths
  // are flagged by the collection that closes an epoch, after that epoch's
  // map is already on disk.
  std::set<std::uint64_t> dead_ids;
  for (const auto& [epoch, file] : maps) {
    for (const core::ObjectDeath& d : file.dead) {
      EXPECT_TRUE(dead_ids.insert(d.obj_id).second)
          << "object " << d.obj_id << " died twice";
      const auto it = first_seen.find(d.obj_id);
      ASSERT_NE(it, first_seen.end()) << "death without any sighting";
      EXPECT_LT(it->second, epoch) << "object " << d.obj_id;
    }
  }

  // The moving-GC property: some survivor was copied and re-sighted at a
  // different address — the case epoch-keyed maps exist to disambiguate.
  std::uint64_t movers = 0;
  for (const auto& [id, addrs] : addresses)
    if (addrs.size() >= 2) ++movers;
  EXPECT_GT(movers, 0u) << "no tracked object ever moved under GC";

  // And within any single map, tracked live objects never overlap.
  for (const auto& [epoch, file] : maps) {
    std::vector<core::ObjectMapEntry> sorted = file.objects;
    std::sort(sorted.begin(), sorted.end(),
              [](const core::ObjectMapEntry& a, const core::ObjectMapEntry& b) {
                return a.address < b.address;
              });
    for (std::size_t i = 1; i < sorted.size(); ++i) {
      EXPECT_LE(sorted[i - 1].address + sorted[i - 1].size, sorted[i].address)
          << "overlap in map " << epoch;
    }
  }
}

TEST(MemProfAgent, TrackingDisabledWritesNothing) {
  AgentRun run = [] {
    AgentRun r;
    os::MachineConfig mcfg;
    mcfg.seed = 0x11;
    r.machine = std::make_unique<os::Machine>(mcfg);
    workloads::Workload w = small_memprof_workload();
    w.vm.heap.track_objects = false;  // profiling without the heap hooks
    r.vm = std::make_unique<jvm::Vm>(*r.machine, w.vm);
    core::SessionConfig config;
    config.mode = core::ProfilingMode::kViprof;
    config.agent.obj_map_dir = "obj_maps";
    r.session = std::make_unique<core::ProfilingSession>(*r.machine, *r.vm, config);
    r.agent = std::make_unique<MemProfAgent>(*r.machine);
    r.session->attach();
    r.vm->add_listener(r.agent.get());
    r.vm->setup(w.program);
    r.result = r.session->run();
    return r;
  }();
  EXPECT_EQ(run.agent->stats().allocs_logged, 0u);
  EXPECT_EQ(run.agent->stats().map_entries_written, 0u);
  // Maps may still be written (empty per epoch); every one must be benign.
  const hw::Pid pid = run.session->registrations().all().at(0).pid;
  for (const auto& [epoch, file] : read_maps(run.machine->vfs(), pid))
    EXPECT_TRUE(file.objects.empty()) << "map " << epoch;
}

}  // namespace
}  // namespace viprof::memprof
