// Framed-text v1 and v2 (support/framed_text.hpp) side by side.
//
// Every writer emits v2: XXH32 keyed by the file. tests/v1_framing.hpp
// rewrites a v2 tree as the v1 an older build wrote (unkeyed FNV-1a, "v1"
// headers), which checks two things:
//
//   * the differential: every file of a seeded session decodes to the same
//     records under v1 as under v2, at the same byte length, so v2 changed
//     nothing but the crc fields. Outside the store, a v1 file is damage:
//     the path-keyed readers refuse it and count it;
//   * compatibility: a v1 store and fleet (segments, the store MANIFEST
//     and the fleet MANIFEST, the files an older build can have left on
//     disk) open with the same answers as their v2 twin, and both audits
//     (`viprof_store fsck`, `viprof_fleet fsck`) read them as clean.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/code_map.hpp"
#include "core/fsck.hpp"
#include "core/object_map.hpp"
#include "core/sample_log.hpp"
#include "core/session.hpp"
#include "fleet/federator.hpp"
#include "fleet/router.hpp"
#include "jvm/vm.hpp"
#include "memprof/agent.hpp"
#include "service/scenario.hpp"
#include "store/profile_store.hpp"
#include "store/segment.hpp"
#include "support/telemetry.hpp"
#include "v1_framing.hpp"
#include "workloads/generator.hpp"

namespace viprof {
namespace {

/// A seeded session with every framed session file: sample logs, epoch
/// code maps and object maps (a small leak-shaped workload under memprof).
struct MemprofSession {
  std::unique_ptr<os::Machine> machine;
  std::unique_ptr<jvm::Vm> vm;
  std::unique_ptr<core::ProfilingSession> session;
  std::unique_ptr<memprof::MemProfAgent> agent;
};

MemprofSession record_session(std::uint64_t seed) {
  workloads::GeneratorOptions opt;
  opt.name = "versions";
  opt.seed = seed;
  opt.methods = 16;
  opt.alloc_intensity = 1.0;
  opt.nursery_bytes = 256 * 1024;
  opt.total_app_ops = 1'000'000;
  workloads::Workload w = workloads::make_synthetic(opt);
  for (jvm::MethodInfo& m : w.program.methods) {
    m.alloc_object_bytes = 96 + 32 * (m.id % 5);
    m.alloc_object_lifetime = m.id % 3 == 0 ? 1'000'000 : m.id % 3;
  }
  w.vm.heap.track_objects = true;

  MemprofSession run;
  os::MachineConfig mcfg;
  mcfg.seed = seed;
  run.machine = std::make_unique<os::Machine>(mcfg);
  run.vm = std::make_unique<jvm::Vm>(*run.machine, w.vm);
  core::SessionConfig config;
  config.mode = core::ProfilingMode::kViprof;
  config.counters = {{hw::EventKind::kGlobalPowerEvents, 90'000, true},
                     {hw::EventKind::kBsqCacheReference, 4'000, true},
                     {hw::EventKind::kObjDmiss, 1'500, true}};
  config.agent.obj_map_dir = "obj_maps";
  run.session = std::make_unique<core::ProfilingSession>(*run.machine, *run.vm, config);
  run.agent = std::make_unique<memprof::MemProfAgent>(*run.machine);
  run.session->attach();
  run.vm->add_listener(run.agent.get());
  run.vm->setup(w.program);
  run.session->run();
  run.session->export_archive();
  return run;
}

bool same_sample(const core::LoggedSample& a, const core::LoggedSample& b) {
  return a.pc == b.pc && a.caller_pc == b.caller_pc && a.mode == b.mode && a.pid == b.pid &&
         a.epoch == b.epoch && a.cycle == b.cycle;
}

TEST(FramedVersions, EverySessionFileDecodesToTheSameRecordsUnderV1AndV2) {
  const MemprofSession run = record_session(0x7e51);
  const os::Vfs& v2 = run.machine->vfs();
  const os::Vfs v1 = v1::to_v1(v2);
  std::size_t logs = 0, maps = 0, omaps = 0;
  for (const std::string& path : v2.list("")) {
    const std::string v2_text = *v2.read(path);
    const std::string v1_text = *v1.read(path);
    ASSERT_EQ(v1_text.size(), v2_text.size()) << path;  // layouts keep their lengths
    const std::string name = path.substr(path.rfind('/') + 1);
    const hw::Pid pid = core::pid_from_map_path(path).value_or(0);

    if (name.ends_with(".samples")) {
      ++logs;
      ASSERT_NE(v1_text, v2_text) << path;
      const hw::EventKind event = *hw::event_from_name(name.substr(0, name.size() - 8));
      core::SampleStreamParser under_v2, under_v1;
      std::vector<core::LoggedSample> a, b;
      under_v2.parse_into(v2_text, core::sample_line_hash(event), a);
      under_v1.parse_into(v1_text, support::FrameHash::v1(), b);
      EXPECT_TRUE(under_v2.status().clean()) << path;
      EXPECT_TRUE(under_v1.status().clean()) << path;
      ASSERT_EQ(a.size(), b.size()) << path;
      for (std::size_t i = 0; i < a.size(); ++i) EXPECT_TRUE(same_sample(a[i], b[i])) << path;
      // The v2 reader counts every v1 line as damage.
      core::SampleLogReadStatus st;
      EXPECT_TRUE(core::SampleLogReader::read_checked(v1, "samples", event, st).empty());
      EXPECT_EQ(st.discarded_lines, a.size()) << path;
    } else if (name.starts_with("map.")) {
      ++maps;
      const std::uint64_t epoch = *core::CodeMapFile::epoch_from_path(path);
      const auto a = core::CodeMapFile::parse(v2_text, core::CodeMapFile::frame_hash(pid, epoch));
      const auto b = core::CodeMapFile::parse(v1_text, support::FrameHash::v1());
      ASSERT_TRUE(a && b) << path;
      EXPECT_EQ(a->epoch, b->epoch) << path;
      EXPECT_EQ(a->truncated, b->truncated) << path;
      ASSERT_EQ(a->entries.size(), b->entries.size()) << path;
      for (std::size_t i = 0; i < a->entries.size(); ++i)
        EXPECT_TRUE(a->entries[i].address == b->entries[i].address &&
                    a->entries[i].size == b->entries[i].size &&
                    a->entries[i].symbol == b->entries[i].symbol)
            << path;
      const core::CodeMapFile::Recovery as_v2 = core::CodeMapFile::salvage_file(path, v1_text);
      EXPECT_TRUE(as_v2.refused && as_v2.file.entries.empty()) << path;
    } else if (name.starts_with("omap.")) {
      ++omaps;
      const std::uint64_t epoch = *core::ObjectMapFile::epoch_from_path(path);
      const auto a =
          core::ObjectMapFile::parse(v2_text, core::ObjectMapFile::frame_hash(pid, epoch));
      const auto b = core::ObjectMapFile::parse(v1_text, support::FrameHash::v1());
      ASSERT_TRUE(a && b) << path;
      EXPECT_EQ(a->serialize(pid), v2_text) << path;
      EXPECT_EQ(b->serialize(pid), v2_text) << path;
      const core::ObjectMapFile::Recovery as_v2 =
          core::ObjectMapFile::salvage_file(path, v1_text);
      EXPECT_TRUE(as_v2.refused && as_v2.file.objects.empty()) << path;
    } else {
      EXPECT_EQ(v1_text, v2_text) << path;  // unframed: archive manifest, RVM.map, ...
    }
  }
  EXPECT_EQ(logs, 3u);
  EXPECT_GT(maps, 2u);
  EXPECT_GT(omaps, 2u);

  // fsck: the v2 session is clean; every v1 log and map in it is damage.
  support::Telemetry t2, t1;
  EXPECT_EQ(core::fsck_tree(v2, nullptr, t2).verdict, core::FsckVerdict::kClean);
  const core::FsckReport as_v1 = core::fsck_tree(v1, nullptr, t1);
  EXPECT_EQ(as_v1.verdict, core::FsckVerdict::kUnrecoverable);
  EXPECT_EQ(as_v1.valid_records, 0u);
  EXPECT_EQ(as_v1.maps_intact + as_v1.omaps_intact, 0u);
  EXPECT_EQ(as_v1.map_entries_salvaged + as_v1.objects_salvaged, 0u);
}

// A damaged header (its version digit flipped, say) costs that one line:
// the version comes from the first line that verifies under either.
TEST(FramedVersions, SegmentVersionComesFromItsFirstVerifyingLine) {
  store::SegmentWriter writer(9);
  std::string v2 = writer.header();
  for (std::uint64_t tick = 0; tick < 3; ++tick) {
    store::IntervalProfile iv;
    iv.session = "vm-0";
    iv.tick_lo = iv.tick_hi = tick;
    core::Resolution r;
    r.image = "img";
    r.symbol = "sym" + std::to_string(tick);
    r.domain = core::SampleDomain::kJit;
    iv.profile.add(hw::EventKind::kGlobalPowerEvents, r, 1 + tick);
    v2 += writer.encode_interval(iv);
  }
  v2 += writer.encode_seal(3);
  const std::string path = "segments/seg-000009.vseg";
  const std::string v1 = v1::file_to_v1(path, v2);
  ASSERT_NE(v1, v2);
  for (const std::string& text : {v2, v1}) {
    const store::SegmentSalvage clean = store::read_segment(text, 9);
    ASSERT_TRUE(clean.clean());
    std::string damaged = text;
    const std::size_t digit = damaged.find(" viprof-segment v") + 17;
    damaged[digit] = damaged[digit] == '2' ? '1' : '2';
    const store::SegmentSalvage sv = store::read_segment(damaged, 9);
    EXPECT_FALSE(sv.header_ok);
    EXPECT_EQ(sv.lines_discarded, 1u);
    EXPECT_EQ(sv.intervals_salvaged, 3u);
    EXPECT_TRUE(sv.sealed);
  }
}

TEST(FramedVersions, V1StoreAndFleetTreesOpenWithIdenticalAnswers) {
  os::Vfs fleet_vfs;
  fleet::FleetConfig config;
  config.shards = 2;
  {
    // One stored interval per session: enough sessions that each shard
    // seals a segment and keeps an active one.
    fleet::Router router(fleet_vfs, config);
    for (std::uint64_t i = 0; i < 24; ++i) {
      service::ScenarioConfig sc;
      sc.vms = 1;
      sc.samples_per_event = 150;
      sc.epochs = 4;
      sc.methods = 32;
      sc.seed = 0x5e55 + i;
      const auto scenario = service::record_scenario(sc);
      ASSERT_TRUE(router.ingest(scenario->vfs(), "sess-" + std::to_string(i)).completed);
    }
  }
  const os::Vfs v1 = v1::to_v1(fleet_vfs);

  // The rewrite reached every segment and both kinds of manifest.
  std::size_t segments = 0, manifests = 0;
  for (const std::string& path : v1.list("")) {
    const std::string text = *v1.read(path);
    if (path.ends_with(".vseg")) {
      ++segments;
      EXPECT_NE(text.find(" H viprof-segment v1 "), std::string::npos) << path;
    } else if (path.ends_with("MANIFEST")) {
      ++manifests;
      EXPECT_TRUE(text.starts_with("viprof-store-manifest v1\n") ||
                  text.starts_with("viprof-fleet-manifest v1\n"))
          << path;
    }
  }
  EXPECT_GE(segments, 2 * config.shards);
  EXPECT_EQ(manifests, 1 + config.shards);

  // viprof_fleet fsck and viprof_store fsck: clean, with the same books.
  const fleet::FleetFsckReport fsck2 = fleet::OfflineFleet::fsck(fleet_vfs);
  const fleet::FleetFsckReport fsck1 = fleet::OfflineFleet::fsck(v1);
  EXPECT_EQ(fsck2.verdict, core::FsckVerdict::kClean) << fsck2.summary;
  EXPECT_EQ(fsck1.verdict, core::FsckVerdict::kClean) << fsck1.summary;
  EXPECT_EQ(fsck1.summary, fsck2.summary);
  EXPECT_TRUE(fsck1.stored_matches);

  // The federated answers, cold from either tree.
  os::Vfs open2 = fleet_vfs, open1 = v1;
  auto fleet2 = fleet::OfflineFleet::open(open2);
  auto fleet1 = fleet::OfflineFleet::open(open1);
  ASSERT_TRUE(fleet2 && fleet1);
  for (const char* q : {"top 20", "sessions", "top 15 --session sess-1",
                        "diff sess-0 sess-2 --event dmiss --top 12"})
    EXPECT_EQ(fleet1->query(q), fleet2->query(q)) << q;

  // Each partition's store answers: top, series and diff.
  const std::vector<hw::EventKind> events = {hw::EventKind::kGlobalPowerEvents,
                                             hw::EventKind::kBsqCacheReference};
  const store::FleetManifest manifest = fleet2->manifest();
  for (const store::FleetShard& shard : manifest.shards) {
    store::StoreConfig sc;
    sc.root = shard.root;
    os::Vfs vfs2 = fleet_vfs, vfs1 = v1;
    store::ProfileStore st2(vfs2, sc), st1(vfs1, sc);
    EXPECT_EQ(st1.fsck().verdict, core::FsckVerdict::kClean) << shard.root;
    ASSERT_EQ(st2.open().verdict, core::FsckVerdict::kClean) << shard.root;
    ASSERT_EQ(st1.open().verdict, core::FsckVerdict::kClean) << shard.root;
    const store::WindowSpec all;
    const store::WindowSpec early{0, 2, {}}, late{3, ~0ull, {}};
    EXPECT_EQ(st1.render_top(all, events, 20), st2.render_top(all, events, 20));
    EXPECT_EQ(st1.render_diff(early, late, events[0], 10),
              st2.render_diff(early, late, events[0], 10));
    const core::Profile whole = st2.window_profile(all);
    ASSERT_FALSE(whole.rows().empty()) << shard.root;
    const core::ProfileRow& row = whole.rows().front();
    EXPECT_EQ(st1.render_series(all, row.image.str(), row.symbol.str(), events[0]),
              st2.render_series(all, row.image.str(), row.symbol.str(), events[0]));
  }
}

}  // namespace
}  // namespace viprof
