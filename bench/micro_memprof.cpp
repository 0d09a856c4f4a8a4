// Object-centric memory profiling microbench (DESIGN.md §15).
//
// Measures the pieces the memprof subsystem adds to the pipeline:
//   - omap.serialize / omap.parse / omap.salvage: the epoch object-map
//     format round trip and the torn-write salvage sweep, per map;
//   - omap.salvage_file: salvage of an intact map keyed by its path, the
//     call the server makes once for every object map that arrives;
//   - resolve.object: one kObjDmiss sample resolved through the flattened
//     epoch index (the backward walk over moved objects), per sample;
//   - ingest.obj: a recorded memprof session (allocation sites, moving GC,
//     DMISS_OBJ stream) replayed into the live server, per replayed record
//     (every event's, not only the object samples) — gated on the online
//     per-site table staying byte-identical to the offline report;
//   - fold.sites: SiteTable::ingest of that session's object maps, per
//     object-map entry (object and death lines) — the obj_id dedup the
//     offline report and the server's store_file both run;
//   - ingest.pc_idle: a PC-only scenario (no object samples at all)
//     replayed into the same server build. memprof is compiled in but
//     idle; bench_gate.py holds this number within 5% of baseline, so the
//     subsystem cannot tax the PC hot path by riding along.
//
// Emits BENCH_memprof.json (harness schema). VIPROF_QUICK=1 shrinks the
// iteration counts for CI smoke runs.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.hpp"
#include "core/object_map.hpp"
#include "memprof/agent.hpp"
#include "memprof/report.hpp"
#include "memprof/resolve.hpp"
#include "service/client.hpp"
#include "service/scenario.hpp"
#include "service/server.hpp"
#include "support/rng.hpp"
#include "workloads/generator.hpp"

namespace {

using namespace viprof;

double seconds_since(const std::chrono::steady_clock::time_point& start) {
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

bench::BenchRecord make_record(const std::string& name, int iterations,
                               double secs, double ops) {
  bench::BenchRecord record;
  record.name = name;
  record.iterations = iterations;
  record.seconds = secs;
  record.ns_per_op = ops > 0 ? secs * 1e9 / ops : 0.0;
  return record;
}

/// A representative partial map: one epoch's worth of allocations and
/// moves for a busy VM, with the site dictionary and a death tail.
core::ObjectMapFile representative_map() {
  core::ObjectMapFile file;
  file.epoch = 17;
  support::Xoshiro256 rng(0x0b9ec7);
  hw::Address cursor = 0x6200'0000;
  for (std::uint32_t s = 0; s < 32; ++s)
    file.sites.push_back(
        {s, support::Name("synthetic.Bench.method" + std::to_string(s) + "@42")});
  for (std::uint64_t i = 0; i < 512; ++i) {
    const std::uint64_t size = 32 + rng.below(16) * 32;
    file.objects.push_back({cursor, size, 1000 + i,
                            static_cast<std::uint32_t>(rng.below(32))});
    cursor += size;
  }
  for (std::uint64_t i = 0; i < 64; ++i)
    file.dead.push_back({500 + i, 64 + rng.below(4) * 32,
                         static_cast<std::uint32_t>(rng.below(32))});
  return file;
}

/// The leak-shaped workload of the README walkthrough, recorded with the
/// memprof agent attached: object maps per epoch plus a DMISS_OBJ stream.
struct RecordedMemprof {
  std::unique_ptr<os::Machine> machine;
  std::unique_ptr<jvm::Vm> vm;
  std::unique_ptr<core::ProfilingSession> session;
  std::unique_ptr<memprof::MemProfAgent> agent;
};

RecordedMemprof record_memprof_session(std::uint64_t samples_scale) {
  workloads::GeneratorOptions opt;
  opt.name = "memleak";
  opt.seed = 0xbe9c;
  opt.methods = 24;
  opt.alloc_intensity = 1.0;
  opt.nursery_bytes = 256 * 1024;
  opt.total_app_ops = 2'500'000 * samples_scale;
  workloads::Workload w = workloads::make_synthetic(opt);
  for (jvm::MethodInfo& m : w.program.methods) {
    m.alloc_object_bytes = 96 + 32 * (m.id % 5);
    m.alloc_object_lifetime = m.id % 3;
  }
  for (std::size_t leak : {std::size_t{2}, std::size_t{5}}) {
    w.program.methods[leak].alloc_object_bytes = 768;
    w.program.methods[leak].alloc_object_lifetime = 1'000'000;
  }
  w.vm.heap.track_objects = true;

  RecordedMemprof run;
  os::MachineConfig mcfg;
  mcfg.seed = 0xbe9cf;
  run.machine = std::make_unique<os::Machine>(mcfg);
  run.vm = std::make_unique<jvm::Vm>(*run.machine, w.vm);
  core::SessionConfig config;
  config.mode = core::ProfilingMode::kViprof;
  config.counters = {{hw::EventKind::kGlobalPowerEvents, 90'000, true},
                     {hw::EventKind::kBsqCacheReference, 4'000, true},
                     {hw::EventKind::kObjDmiss, 1'000, true}};
  config.agent.obj_map_dir = "obj_maps";
  run.session =
      std::make_unique<core::ProfilingSession>(*run.machine, *run.vm, config);
  run.agent = std::make_unique<memprof::MemProfAgent>(*run.machine);
  run.session->attach();
  run.vm->add_listener(run.agent.get());
  run.vm->setup(w.program);
  run.session->run();
  run.session->export_archive();
  return run;
}

/// Records the server applied from one replay of `world`; 0 when the
/// replay disconnected.
std::uint64_t replay_once(service::ProfileServer& server, const os::Vfs& world,
                          const std::string& id) {
  auto conn = server.connect(id);
  service::ReplayClient client(world, id, *conn,
                               service::ReplayOptions{256, nullptr, {}});
  if (!client.run()) return 0;
  server.drain();
  return server.session_stats()[id].records_ingested;
}

bool run() {
  const char* quick = std::getenv("VIPROF_QUICK");
  const bool is_quick = quick != nullptr && quick[0] == '1';
  const int map_iters = is_quick ? 400 : 2'000;
  const int resolve_iters = is_quick ? 100'000 : 500'000;
  const int reps = is_quick ? 2 : 3;

  std::vector<bench::BenchRecord> records;

  // --- Object-map format round trip, per map. ---
  const core::ObjectMapFile map = representative_map();
  constexpr hw::Pid kPid = 7;
  const support::FrameHash hash = core::ObjectMapFile::frame_hash(kPid, map.epoch);
  std::string blob;
  {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < map_iters; ++i) blob = map.serialize(kPid);
    const double secs = seconds_since(start);
    records.push_back(make_record("omap.serialize", map_iters, secs, map_iters));
    std::printf("  omap.serialize  %8.0f ns/map  (%zu objects)\n",
                records.back().ns_per_op, map.objects.size());
  }
  {
    std::uint64_t parsed = 0;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < map_iters; ++i) {
      const auto file = core::ObjectMapFile::parse(blob, hash);
      if (file) parsed += file->objects.size();
    }
    const double secs = seconds_since(start);
    if (parsed != static_cast<std::uint64_t>(map_iters) * map.objects.size()) {
      std::fprintf(stderr, "FAIL: strict parse rejected an intact map\n");
      return false;
    }
    records.push_back(make_record("omap.parse", map_iters, secs, map_iters));
    std::printf("  omap.parse      %8.0f ns/map\n", records.back().ns_per_op);
  }
  {
    const std::string torn = blob.substr(0, blob.size() * 2 / 3);
    std::uint64_t salvaged = 0;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < map_iters; ++i) {
      const core::ObjectMapFile::Recovery r =
          core::ObjectMapFile::salvage(torn, hash, map.epoch);
      salvaged += r.file.objects.size();
    }
    const double secs = seconds_since(start);
    if (salvaged == 0) {
      std::fprintf(stderr, "FAIL: salvage recovered nothing from a torn map\n");
      return false;
    }
    records.push_back(make_record("omap.salvage", map_iters, secs, map_iters));
    std::printf("  omap.salvage    %8.0f ns/map  (torn at 2/3)\n",
                records.back().ns_per_op);
  }
  {
    // What the server's store_file runs on every arriving object map: an
    // intact file, keyed by its path, read through its trailer.
    const std::string path = core::ObjectMapFile::path_for("obj_maps", kPid, map.epoch);
    std::uint64_t salvaged = 0;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < map_iters; ++i)
      salvaged += core::ObjectMapFile::salvage_file(path, blob).file.objects.size();
    const double secs = seconds_since(start);
    if (salvaged != static_cast<std::uint64_t>(map_iters) * map.objects.size()) {
      std::fprintf(stderr, "FAIL: salvage_file dropped entries of an intact map\n");
      return false;
    }
    records.push_back(make_record("omap.salvage_file", map_iters, secs, map_iters));
    std::printf("  omap.salvage_file %6.0f ns/map  (intact, keyed by path)\n",
                records.back().ns_per_op);
  }

  // --- Sample resolution through the flattened epoch index. ---
  {
    core::CodeMapIndex index;
    support::Xoshiro256 rng(0x9e50);
    constexpr std::uint64_t kEpochs = 24;
    for (std::uint64_t e = 0; e < kEpochs; ++e) {
      core::ObjectMapFile f;
      f.epoch = e;
      hw::Address cursor = 0x6200'0000 + (e % 2) * 0x80'0000;
      for (std::uint64_t i = 0; i < 384; ++i) {
        const std::uint64_t size = 32 + rng.below(16) * 32;
        f.objects.push_back({cursor, size, e * 1000 + i,
                             static_cast<std::uint32_t>(rng.below(64))});
        cursor += size;
      }
      index.add(f.to_code_map());
    }
    index.prepare();

    memprof::ObjectResolveStats stats;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < resolve_iters; ++i) {
      const hw::Address addr =
          0x6200'0000 + (rng.below(2)) * 0x80'0000 + rng.below(0x3'0000);
      memprof::resolve_object(&index, addr, rng.below(kEpochs), &stats);
    }
    const double secs = seconds_since(start);
    if (stats.resolved == 0) {
      std::fprintf(stderr, "FAIL: no probe ever resolved to a site\n");
      return false;
    }
    records.push_back(
        make_record("resolve.object", resolve_iters, secs, resolve_iters));
    std::printf("  resolve.object  %8.1f ns/sample  (%.1f%% resolved, "
                "%.2f walk steps/sample)\n",
                records.back().ns_per_op,
                100.0 * static_cast<double>(stats.resolved) /
                    static_cast<double>(resolve_iters),
                static_cast<double>(stats.backward_steps) /
                    static_cast<double>(resolve_iters));
  }

  // --- Object-sample ingest: the recorded memprof session replayed into
  // the live server, answer checked against the offline report. ---
  {
    const RecordedMemprof run = record_memprof_session(1);
    const std::vector<core::VmRegistration> regs =
        run.session->registrations().all();
    const memprof::ObjectReport obj =
        memprof::build_object_report(run.machine->vfs(), "samples", regs);
    const std::string offline = memprof::render_memprof(obj.sites, obj.profile, 25);

    double best_secs = 0.0;
    std::uint64_t replayed = 0;
    for (int rep = 0; rep < reps; ++rep) {
      service::ProfileServer server;
      const auto start = std::chrono::steady_clock::now();
      replayed = replay_once(server, run.machine->vfs(), "bench-mem");
      if (replayed == 0) {
        std::fprintf(stderr, "FAIL: memprof replay disconnected\n");
        return false;
      }
      const double secs = seconds_since(start);
      if (rep == 0 || secs < best_secs) best_secs = secs;
      if (server.query("memprof 25") != offline) {
        std::fprintf(stderr,
                     "FAIL: online memprof table differs from offline report\n");
        return false;
      }
    }
    records.push_back(make_record("ingest.obj", reps, best_secs,
                                  static_cast<double>(replayed)));
    std::printf("  ingest.obj      %8.0f ns/record  (%llu records, %llu object "
                "samples, online == offline)\n",
                records.back().ns_per_op, static_cast<unsigned long long>(replayed),
                static_cast<unsigned long long>(obj.samples));

    // --- The site fold alone: every object map of the session, salvaged
    // once, folded into a fresh table per iteration. ---
    std::vector<std::pair<hw::Pid, std::shared_ptr<const core::ObjectMapFile>>> maps;
    std::uint64_t entries = 0;
    for (const core::VmRegistration& reg : regs) {
      if (reg.obj_map_dir.empty()) continue;
      core::ObjectIndexLoad load =
          core::load_object_index(run.machine->vfs(), reg.obj_map_dir, reg.pid);
      for (core::ObjectMapFile& file : load.files) {
        entries += file.objects.size() + file.dead.size();
        maps.emplace_back(reg.pid,
                          std::make_shared<const core::ObjectMapFile>(std::move(file)));
      }
    }
    memprof::SiteTable check;
    for (const auto& [pid, omap] : maps) check.ingest("", pid, omap);
    if (memprof::render_memprof(check, obj.profile, 25) != offline) {
      std::fprintf(stderr, "FAIL: folded site table differs from the offline report\n");
      return false;
    }
    const int fold_iters = is_quick ? 5 : 20;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < fold_iters; ++i) {
      memprof::SiteTable table;
      for (const auto& [pid, omap] : maps) table.ingest("", pid, omap);
    }
    const double secs = seconds_since(start);
    records.push_back(make_record("fold.sites", fold_iters, secs,
                                  static_cast<double>(fold_iters) *
                                      static_cast<double>(entries)));
    std::printf("  fold.sites      %8.1f ns/entry  (%zu maps, %llu entries)\n",
                records.back().ns_per_op, maps.size(),
                static_cast<unsigned long long>(entries));
  }

  // --- The idle gate: PC-only ingest with memprof compiled in but never
  // exercised. bench_gate.py enforces <= 5% regression on this number. ---
  {
    service::ScenarioConfig config;
    config.vms = 3;
    config.samples_per_event = is_quick ? 10'000 : 40'000;
    config.epochs = 24;
    config.methods = 256;
    auto scenario = service::record_scenario(config);
    const std::uint64_t total_records = 2 * config.samples_per_event;

    double best_secs = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      service::ProfileServer server;
      const auto start = std::chrono::steady_clock::now();
      if (!replay_once(server, scenario->vfs(), "bench-idle")) {
        std::fprintf(stderr, "FAIL: idle replay disconnected\n");
        return false;
      }
      const double secs = seconds_since(start);
      if (rep == 0 || secs < best_secs) best_secs = secs;
    }
    records.push_back(make_record("ingest.pc_idle", reps, best_secs,
                                  static_cast<double>(total_records)));
    std::printf("  ingest.pc_idle  %8.0f ns/record  (memprof idle; gated at 5%%)\n",
                records.back().ns_per_op);
  }

  bench::write_bench_json("memprof", records);
  return true;
}

}  // namespace

int main() { return run() ? 0 : 1; }
