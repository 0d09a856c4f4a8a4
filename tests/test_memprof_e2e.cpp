// End-to-end memory profiling byte-identity (ISSUE 10 acceptance): a real
// memprof session — allocation sites, moving GC, epoch object maps, a
// DMISS_OBJ sample stream spanning several GC moves of hot objects — is
// exported, then replayed into the continuous-profiling server at several
// ingest-thread and stripe counts, and routed across fleet shards at 1/2/4.
// The per-allocation-site table each path renders must equal the offline
// viprof_report pass byte for byte.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/object_map.hpp"
#include "core/viprof.hpp"
#include "fleet/federator.hpp"
#include "fleet/router.hpp"
#include "memprof/agent.hpp"
#include "memprof/report.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "workloads/generator.hpp"

namespace viprof::memprof {
namespace {

/// A leak-shaped mix small enough for a test: most sites die young, two
/// survive every collection (and therefore move under the copying GC).
workloads::Workload leaky_workload(std::uint64_t seed) {
  workloads::GeneratorOptions opt;
  opt.name = "memleak";
  opt.seed = seed;
  opt.methods = 24;
  opt.alloc_intensity = 1.0;
  opt.nursery_bytes = 256 * 1024;
  opt.total_app_ops = 2'500'000;
  workloads::Workload w = workloads::make_synthetic(opt);
  for (jvm::MethodInfo& m : w.program.methods) {
    m.alloc_object_bytes = 96 + 32 * (m.id % 5);
    m.alloc_object_lifetime = m.id % 3;
  }
  for (std::size_t leak : {std::size_t{2}, std::size_t{5}}) {
    jvm::MethodInfo& m = w.program.methods[leak];
    m.alloc_object_bytes = 768;
    m.alloc_object_lifetime = 1'000'000;  // survives — and moves — every GC
  }
  w.vm.heap.track_objects = true;
  return w;
}

struct RecordedMemprof {
  std::unique_ptr<os::Machine> machine;
  std::unique_ptr<jvm::Vm> vm;
  std::unique_ptr<core::ProfilingSession> session;
  std::unique_ptr<MemProfAgent> agent;

  const os::Vfs& vfs() const { return machine->vfs(); }
  std::vector<core::VmRegistration> regs() const {
    return session->registrations().all();
  }
};

RecordedMemprof record_memprof_session(std::uint64_t seed) {
  RecordedMemprof run;
  os::MachineConfig mcfg;
  mcfg.seed = seed;
  run.machine = std::make_unique<os::Machine>(mcfg);
  const workloads::Workload w = leaky_workload(seed * 31 + 7);
  run.vm = std::make_unique<jvm::Vm>(*run.machine, w.vm);
  core::SessionConfig config;
  config.mode = core::ProfilingMode::kViprof;
  config.counters = {{hw::EventKind::kGlobalPowerEvents, 90'000, true},
                     {hw::EventKind::kBsqCacheReference, 4'000, true},
                     {hw::EventKind::kObjDmiss, 1'500, true}};
  config.agent.obj_map_dir = "obj_maps";
  run.session = std::make_unique<core::ProfilingSession>(*run.machine, *run.vm, config);
  run.agent = std::make_unique<MemProfAgent>(*run.machine);
  run.session->attach();
  run.vm->add_listener(run.agent.get());
  run.vm->setup(w.program);
  run.session->run();
  run.session->export_archive();
  return run;
}

std::string offline_memprof(const RecordedMemprof& run, std::size_t top) {
  const ObjectReport obj = build_object_report(run.vfs(), "samples", run.regs());
  return render_memprof(obj.sites, obj.profile, top);
}

void replay(service::ProfileServer& server, const RecordedMemprof& run,
            const std::string& id) {
  auto conn = server.connect(id);
  service::ReplayClient client(run.vfs(), id, *conn,
                               service::ReplayOptions{128, nullptr, {}});
  ASSERT_TRUE(client.run());
  // Every streamed map byte was parsed, once, on arrival.
  const auto snap = server.telemetry().snapshot();
  EXPECT_EQ(snap.counter("service.maps.bytes_parsed"),
            snap.counter("service.maps.bytes_received"));
}

/// The full-reload fold, kept as the oracle for fold-at-arrival: re-salvage
/// every object map of every registered VM from the session's streamed
/// world as it stands right now.
void reload_sites(const service::ServerSession& session, SiteTable& sites) {
  const os::Vfs world = session.world();
  for (const core::VmRegistration& reg : session.registrations()) {
    if (reg.obj_map_dir.empty()) continue;
    for (const core::ObjectMapFile& file :
         core::load_object_index(world, reg.obj_map_dir, reg.pid).files)
      sites.ingest(session.id(), reg.pid, file);
  }
}

std::string reload_memprof(service::ProfileServer& server, const std::string& id,
                           std::size_t top) {
  const std::shared_ptr<service::ServerSession> session = server.session(id);
  SiteTable sites;
  reload_sites(*session, sites);
  return render_memprof(sites, session->merged_profile(), top);
}

/// Records every frame a client emits, so a test can deliver them one by one.
class FrameRecorder final : public service::Transport {
 public:
  bool send(const std::string& bytes) override {
    frames.push_back(bytes);
    return true;
  }
  void close() override {}
  bool is_closed() const override { return false; }

  std::vector<std::string> frames;
};

std::vector<std::string> object_map_paths(const RecordedMemprof& run) {
  return run.vfs().list("obj_maps/" + std::to_string(run.regs().at(0).pid) + "/omap.");
}

/// The session's "reg ..." line from the recorded archive manifest.
std::string manifest_reg_line(const RecordedMemprof& run) {
  const std::string prefix = "reg " + std::to_string(run.regs().at(0).pid) + " ";
  std::istringstream in(*run.vfs().read("archive/manifest"));
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(prefix, 0) == 0) return line;
  return "";
}

/// Streams `id`'s registration line and every object map of `run` over a
/// fresh connection: no manifest, no samples.
void stream_object_maps(service::ProfileServer& server, const RecordedMemprof& run,
                        const std::string& id) {
  auto conn = server.connect(id + "-maps");
  ASSERT_TRUE(conn->send(service::encode_frame(service::FrameType::kOpenSession, id)));
  ASSERT_TRUE(
      conn->send(service::encode_frame(service::FrameType::kRegisterVm, manifest_reg_line(run))));
  for (const std::string& path : object_map_paths(run))
    ASSERT_TRUE(conn->send(service::encode_frame(service::FrameType::kFile,
                                                 path + "\n" + *run.vfs().read(path))));
}

std::uint64_t counter(service::ProfileServer& server, const std::string& name) {
  return server.telemetry().snapshot().counter(name);
}

/// Everything above the "object maps:" footer line.
std::string without_footer(const std::string& rendered) {
  return rendered.substr(0, rendered.rfind("object maps:"));
}

TEST(MemprofE2E, SessionHasSamplesSpanningGcMoves) {
  const RecordedMemprof run = record_memprof_session(0xa11a);
  const hw::Pid pid = run.regs().at(0).pid;

  // Hot survivors moved: some object is sighted at >= 2 addresses.
  std::map<std::uint64_t, std::set<hw::Address>> addresses;
  std::uint64_t maps = 0;
  for (const std::string& path :
       run.vfs().list("obj_maps/" + std::to_string(pid) + "/")) {
    const auto parsed = core::ObjectMapFile::parse(
        *run.vfs().read(path),
        core::ObjectMapFile::frame_hash(pid, *core::ObjectMapFile::epoch_from_path(path)));
    ASSERT_TRUE(parsed.has_value()) << path;
    ++maps;
    for (const core::ObjectMapEntry& o : parsed->objects)
      addresses[o.obj_id].insert(o.address);
  }
  ASSERT_GE(maps, 3u);
  std::uint64_t movers = 0;
  for (const auto& [id, addrs] : addresses)
    if (addrs.size() >= 2) ++movers;
  EXPECT_GT(movers, 0u);

  // The object-sample stream exists and spans multiple epochs, so
  // resolution genuinely exercises the backward walk across moved maps.
  const auto samples = core::SampleLogReader::read(run.vfs(), "samples",
                                                   hw::EventKind::kObjDmiss);
  ASSERT_GT(samples.size(), 50u);
  std::set<std::uint64_t> epochs;
  for (const core::LoggedSample& s : samples) epochs.insert(s.epoch);
  EXPECT_GE(epochs.size(), 2u);

  // And most of it attributes: the report is about the sites, with the
  // degradation bins a footnote, not the other way round.
  const ObjectReport obj = build_object_report(run.vfs(), "samples", run.regs());
  EXPECT_EQ(obj.samples, samples.size());
  EXPECT_GT(obj.stats.resolved, obj.samples / 2);
  EXPECT_EQ(obj.stats.resolved + obj.stats.unresolved, obj.samples);
  EXPECT_GT(obj.stats.backward_steps, obj.stats.resolved)
      << "no sample ever resolved through an older epoch's map";

  // The leak sites dominate live bytes.
  std::uint64_t live = 0, total_alloc = 0;
  for (const auto& [key, stats] : obj.sites.sites()) {
    live += stats.live_bytes();
    total_alloc += stats.alloc_bytes;
  }
  EXPECT_GT(live, 0u);
  EXPECT_GT(total_alloc, live);
}

TEST(MemprofE2E, OnlineMatchesOfflineAtAnyThreadAndStripeCount) {
  const RecordedMemprof run = record_memprof_session(0xbee);
  const std::string oracle = offline_memprof(run, 25);
  ASSERT_NE(oracle.find("degradation:"), std::string::npos);

  // One aggregation stripe per ingest thread, so the thread sweep is the
  // stripe sweep too.
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    service::ServerConfig config;
    config.ingest_threads = threads;
    service::ProfileServer server(config);
    replay(server, run, "mem-e2e");
    server.drain();
    EXPECT_EQ(server.query("memprof 25"), oracle) << threads << " threads";
    EXPECT_EQ(server.query("memprof 25 --session mem-e2e"), oracle);
  }

  service::ProfileServer server;
  replay(server, run, "mem-e2e");
  server.drain();
  EXPECT_EQ(server.query("memprof 25 --session nope"),
            "error: no such session: nope\n");
}

// `stats` shows the dedup state the site tables hold (the flat obj_id
// seen-sets) next to the process heap in use (mallinfo2, which does not
// see a sanitizer's allocator, so only its presence is checked).
TEST(MemprofE2E, StatsShowSiteSeenSetBytesAndHeapInUse) {
  const RecordedMemprof run = record_memprof_session(0xbee);
  service::ProfileServer server;
  server.query("stats");
  EXPECT_EQ(server.telemetry().snapshot().gauge("service.sites.bytes"), 0.0);

  replay(server, run, "mem-e2e");
  server.drain();
  const std::string stats = server.query("stats");
  EXPECT_NE(stats.find("service.sites.bytes"), std::string::npos) << stats;
  EXPECT_NE(stats.find("process.heap_in_use_bytes"), std::string::npos) << stats;
  const support::TelemetrySnapshot snap = server.telemetry().snapshot();
  const std::size_t site_bytes = server.session("mem-e2e")->site_bytes();
  EXPECT_GT(site_bytes, 0u);
  EXPECT_EQ(snap.gauge("service.sites.bytes"), static_cast<double>(site_bytes));
}

TEST(MemprofE2E, FederatedMemprofMatchesSingleServerAtAnyShardCount) {
  const RecordedMemprof a = record_memprof_session(0x51);
  const RecordedMemprof b = record_memprof_session(0x52);

  service::ProfileServer single;
  replay(single, a, "mem-a");
  replay(single, b, "mem-b");
  single.drain();
  const std::string oracle = single.query("memprof 25");
  ASSERT_NE(oracle.find("object maps:"), std::string::npos);

  for (const std::size_t shard_count : {1u, 2u, 4u}) {
    os::Vfs fleet_vfs;
    fleet::FleetConfig config;
    config.shards = shard_count;
    fleet::Router router(fleet_vfs, config);
    ASSERT_TRUE(router.ingest(a.vfs(), "mem-a").completed);
    ASSERT_TRUE(router.ingest(b.vfs(), "mem-b").completed);
    fleet::Federator federator(router);
    EXPECT_EQ(federator.query("memprof 25"), oracle) << shard_count << " shards";
  }
}

// Fold at arrival (DESIGN.md §15): after every single frame of the stream,
// the incrementally folded answer equals a full reload of the server's
// world at that moment, and each streamed object map is folded once.
TEST(MemprofE2E, FoldAtArrivalMatchesFullReloadAfterEveryFrame) {
  const RecordedMemprof run = record_memprof_session(0xf01d);
  FrameRecorder recorded;
  service::ReplayClient client(run.vfs(), "mem-frames", recorded,
                               service::ReplayOptions{128, nullptr, {}});
  ASSERT_TRUE(client.run());

  service::ProfileServer server;
  auto conn = server.connect("mem-frames");
  std::size_t checked = 0;
  for (const std::string& frame : recorded.frames) {
    ASSERT_TRUE(conn->send(frame));
    if (!server.session("mem-frames")) continue;  // hello / before open
    server.drain();
    ASSERT_EQ(server.query("memprof 20 --session mem-frames"),
              reload_memprof(server, "mem-frames", 20))
        << "after frame " << checked;
    ++checked;
  }
  EXPECT_GT(checked, object_map_paths(run).size());
  EXPECT_EQ(server.query("memprof 20 --session mem-frames"), offline_memprof(run, 20));

  EXPECT_EQ(counter(server, "service.memprof.maps_folded"), object_map_paths(run).size());
  EXPECT_EQ(counter(server, "service.memprof.refolds"), 0u);
  const std::string stats = server.query("stats");
  for (const char* metric : {"service.memprof.maps_folded", "service.memprof.refolds",
                             "service.memprof.fold_us", "lock.service.session.sites"})
    EXPECT_NE(stats.find(metric), std::string::npos) << metric;
}

TEST(MemprofE2E, RestreamedObjectMapRebuildsItsPartition) {
  const RecordedMemprof run = record_memprof_session(0xbee);
  service::ProfileServer server;
  replay(server, run, "mem-re");
  server.drain();
  const std::string before = server.query("memprof 25 --session mem-re");
  ASSERT_EQ(before, reload_memprof(server, "mem-re", 25));
  const std::vector<std::string> maps = object_map_paths(run);
  ASSERT_GE(maps.size(), 2u);

  auto conn = server.connect("mem-re-again");
  ASSERT_TRUE(conn->send(service::encode_frame(service::FrameType::kOpenSession, "mem-re")));
  const auto restream = [&](const std::string& path, const std::string& bytes) {
    ASSERT_TRUE(conn->send(
        service::encode_frame(service::FrameType::kFile, path + "\n" + bytes)));
  };

  // Identical bytes: the rebuilt partition is the same table.
  restream(maps[0], *run.vfs().read(maps[0]));
  EXPECT_EQ(server.query("memprof 25 --session mem-re"), before);
  EXPECT_EQ(counter(server, "service.memprof.refolds"), 1u);

  // Different bytes (a torn copy): the new map replaces the old one.
  const std::string bytes = *run.vfs().read(maps[1]);
  restream(maps[1], bytes.substr(0, bytes.size() / 2));
  const std::string after = server.query("memprof 25 --session mem-re");
  EXPECT_EQ(after, reload_memprof(server, "mem-re", 25));
  EXPECT_NE(after.find(std::to_string(maps.size()) + " ingested, 1 truncated"),
            std::string::npos)
      << after;
  EXPECT_EQ(counter(server, "service.memprof.refolds"), 2u);
  EXPECT_EQ(counter(server, "service.memprof.maps_folded"), maps.size() + 2);
}

TEST(MemprofE2E, ObjectMapsBeforeRegistrationAndForRejectedPids) {
  const RecordedMemprof run = record_memprof_session(0x51);
  const std::vector<std::string> maps = object_map_paths(run);
  service::ProfileServer server;
  auto conn = server.connect("mem-early");
  ASSERT_TRUE(conn->send(service::encode_frame(service::FrameType::kOpenSession, "mem-early")));
  const auto send_map = [&](const std::string& path, const std::string& bytes) {
    ASSERT_TRUE(conn->send(
        service::encode_frame(service::FrameType::kFile, path + "\n" + bytes)));
  };

  // Maps that arrive before their VM registers are folded, not reported.
  for (const std::string& path : maps) send_map(path, *run.vfs().read(path));
  const std::string unregistered = server.query("memprof 25 --session mem-early");
  EXPECT_EQ(unregistered, reload_memprof(server, "mem-early", 25));
  EXPECT_NE(unregistered.find("object maps: 0 ingested"), std::string::npos);

  ASSERT_TRUE(conn->send(
      service::encode_frame(service::FrameType::kRegisterVm, manifest_reg_line(run))));
  const std::string registered = server.query("memprof 25 --session mem-early");
  EXPECT_EQ(registered, reload_memprof(server, "mem-early", 25));
  EXPECT_NE(registered.find("object maps: " + std::to_string(maps.size()) + " ingested"),
            std::string::npos)
      << registered;

  // A rejected registration (empty heap range) never reports its maps.
  ASSERT_TRUE(conn->send(service::encode_frame(service::FrameType::kRegisterVm,
                                               "reg 4242 2000 1000 0 0 - - obj_maps")));
  send_map(core::ObjectMapFile::path_for("obj_maps", 4242, 0), *run.vfs().read(maps[0]));
  EXPECT_EQ(server.query("memprof 25 --session mem-early"), registered);
  EXPECT_EQ(server.query("memprof 25 --session mem-early"),
            reload_memprof(server, "mem-early", 25));
  EXPECT_EQ(counter(server, "service.memprof.maps_folded"), maps.size() + 1);
}

// The federator seeing one session through two shards: its partitions meet
// in one table and union per object, so every site row equals the single
// server's, while the map footer sums per fold — exactly what a full reload
// over both shards' worlds renders.
TEST(MemprofE2E, FederatedMemprofUnionsOneSessionAliveOnTwoShards) {
  const RecordedMemprof a = record_memprof_session(0x51);
  const RecordedMemprof b = record_memprof_session(0x52);
  service::ProfileServer single;
  replay(single, a, "mem-a");
  replay(single, b, "mem-b");
  single.drain();
  const std::string oracle = single.query("memprof 25");

  os::Vfs fleet_vfs;
  fleet::FleetConfig config;
  config.shards = 2;
  fleet::Router router(fleet_vfs, config);
  const fleet::SessionOutcome routed = router.ingest(a.vfs(), "mem-a");
  ASSERT_TRUE(routed.completed);
  ASSERT_TRUE(router.ingest(b.vfs(), "mem-b").completed);
  std::string twin;
  for (const std::string& name : router.shard_names())
    if (name != routed.shard) twin = name;
  ASSERT_FALSE(twin.empty());
  stream_object_maps(*router.server(twin), a, "mem-a");

  fleet::Federator federator(router);
  const std::string federated = federator.query("memprof 25");
  EXPECT_EQ(without_footer(federated), without_footer(oracle));
  const std::size_t maps = object_map_paths(a).size() * 2 + object_map_paths(b).size();
  EXPECT_NE(federated.find("object maps: " + std::to_string(maps) + " ingested"),
            std::string::npos)
      << federated;

  SiteTable sites;
  core::Profile merged;
  for (const std::string& name : router.shard_names()) {
    service::ProfileServer* server = router.server(name);
    for (const std::string& id : server->session_ids()) {
      reload_sites(*server->session(id), sites);
      merged.merge(server->session(id)->merged_profile());
    }
  }
  EXPECT_EQ(federated, render_memprof(sites, merged, 25));
}

}  // namespace
}  // namespace viprof::memprof
