// ABL4 microbenchmarks: offline resolution throughput — epoch code-map
// search (flattened index vs the legacy backward walk), the flattened
// index's build, RVM.map and sample-log parsing, a profile fold + top-20
// render, and an end-to-end resolve+aggregate pipeline measurement over a logged session. These are
// the post-processing costs the paper deliberately accepts to keep the
// online path cheap.
//
// Emits BENCH_resolve.json (harness schema) with the e2e throughput at
// 1/2/4/8 worker threads, plus index.build.{obj,jit} (ns per map entry of
// CodeMapIndex::prepare()) when BM_IndexBuild ran, sample_log_parse (ns per
// line) when BM_SampleLogParse ran and profile_fold_render (ns per folded
// row) when BM_ProfileFoldRender ran; the renders are checked byte-identical across
// thread counts before anything is written.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.hpp"
#include "core/code_map.hpp"
#include "core/resolve_pipeline.hpp"
#include "core/resolver.hpp"
#include "core/rvm_map.hpp"
#include "core/sample_log.hpp"
#include "jvm/boot_image.hpp"
#include "os/loader.hpp"
#include "support/arena.hpp"
#include "support/format.hpp"
#include "support/rng.hpp"

namespace {

using namespace viprof;

// Builds an index with `epochs` maps of `entries_per_epoch` bodies each;
// address ranges rotate so lookups exercise varying search depths.
core::CodeMapIndex build_index(std::uint64_t epochs, std::uint64_t entries_per_epoch) {
  core::CodeMapIndex index;
  for (std::uint64_t e = 0; e < epochs; ++e) {
    core::CodeMapFile file;
    file.epoch = e;
    for (std::uint64_t i = 0; i < entries_per_epoch; ++i) {
      core::CodeMapEntry entry;
      entry.address = 0x6000'0000 + ((e + i * epochs) % (entries_per_epoch * epochs)) * 0x1000;
      entry.size = 0x800;
      entry.symbol = "m" + std::to_string(e) + "_" + std::to_string(i);
      file.entries.push_back(std::move(entry));
    }
    index.add(std::move(file));
  }
  return index;
}

void BM_CodeMapResolveOwnEpoch(benchmark::State& state) {
  const auto epochs = static_cast<std::uint64_t>(state.range(0));
  core::CodeMapIndex index = build_index(epochs, 256);
  support::Xoshiro256 rng(1);
  for (auto _ : state) {
    // PC from a recent entry: hit in the newest map.
    const std::uint64_t pc = 0x6000'0000 + rng.below(256) * 0x1000 + 16;
    benchmark::DoNotOptimize(index.resolve(pc, epochs - 1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CodeMapResolveOwnEpoch)->Arg(4)->Arg(32)->Arg(256);

void BM_CodeMapResolveBackward(benchmark::State& state) {
  const auto epochs = static_cast<std::uint64_t>(state.range(0));
  core::CodeMapIndex index = build_index(epochs, 64);
  support::Xoshiro256 rng(2);
  for (auto _ : state) {
    // Random PC over the whole populated range: variable search depth.
    const std::uint64_t pc = 0x6000'0000 + rng.below(64 * epochs) * 0x1000 + 16;
    benchmark::DoNotOptimize(index.resolve(pc, epochs - 1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CodeMapResolveBackward)->Arg(4)->Arg(32)->Arg(256);

void BM_CodeMapResolveBackwardWalk(benchmark::State& state) {
  // The pre-flattening implementation, kept as the equivalence oracle:
  // walks maps newest-to-oldest per query. Same workload as ...Backward,
  // so the two series read as before/after.
  const auto epochs = static_cast<std::uint64_t>(state.range(0));
  core::CodeMapIndex index = build_index(epochs, 64);
  support::Xoshiro256 rng(2);
  for (auto _ : state) {
    const std::uint64_t pc = 0x6000'0000 + rng.below(64 * epochs) * 0x1000 + 16;
    benchmark::DoNotOptimize(index.resolve_walkback(pc, epochs - 1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CodeMapResolveBackwardWalk)->Arg(4)->Arg(32)->Arg(256);

void BM_CodeMapResolveMiss(benchmark::State& state) {
  core::CodeMapIndex index = build_index(static_cast<std::uint64_t>(state.range(0)), 64);
  for (auto _ : state) {
    // Unmapped PC: worst case for the walk, one probe for the flat index.
    benchmark::DoNotOptimize(index.resolve(0x9999'0000, ~0ull));
  }
}
BENCHMARK(BM_CodeMapResolveMiss)->Arg(4)->Arg(32)->Arg(256);

/// The pid the map format benches key their maps by.
constexpr hw::Pid kPid = 7;

void BM_CodeMapSerialize(benchmark::State& state) {
  core::CodeMapFile file;
  file.epoch = 5;
  for (int i = 0; i < 512; ++i) {
    file.entries.push_back(
        {0x6000'0000ull + i * 0x1000, 0x800,
         support::Name("com.example.Klass" + std::to_string(i) + ".method")});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(file.serialize(kPid));
  }
}
BENCHMARK(BM_CodeMapSerialize);

void BM_CodeMapParse(benchmark::State& state) {
  core::CodeMapFile file;
  file.epoch = 5;
  for (int i = 0; i < 512; ++i) {
    file.entries.push_back(
        {0x6000'0000ull + i * 0x1000, 0x800,
         support::Name("com.example.Klass" + std::to_string(i) + ".method")});
  }
  const std::string blob = file.serialize(kPid);
  const support::FrameHash hash = core::CodeMapFile::frame_hash(kPid, file.epoch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::CodeMapFile::parse(blob, hash));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * blob.size()));
}
BENCHMARK(BM_CodeMapParse);

void BM_RvmMapParse(benchmark::State& state) {
  // Boot-map format as BootImage emits it: "<hex-offset> <size> <name>\n".
  std::string blob;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    blob += support::hex(static_cast<std::uint64_t>(i) * 0x400) + " 1024 " +
            "com.ibm.jikesrvm.classloader.VM_Klass" + std::to_string(i) + ".method\n";
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::parse_rvm_map(blob));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * blob.size()));
}
BENCHMARK(BM_RvmMapParse)->Arg(256)->Arg(4096);

// ns per entry of the last BM_IndexBuild run per shape; 0 when filtered out.
double g_index_build_ns[2] = {0.0, 0.0};
constexpr const char* kIndexBuildShapes[2] = {"obj", "jit"};

// The maps prepare() flattens, in two shapes: an object-map-shaped index
// (4 epochs x 17k small objects, a third of which a moving GC relocates
// each epoch) and a JIT-shaped one (40 epochs x 600 method bodies placed
// over a rotating slice of a shared code region).
std::vector<core::CodeMapFile> index_build_maps(int shape) {
  const std::uint64_t epochs = shape == 0 ? 4 : 40;
  const std::uint64_t per_epoch = shape == 0 ? 17'000 : 600;
  support::Xoshiro256 rng(0xb01d + static_cast<std::uint64_t>(shape));
  std::vector<core::CodeMapFile> maps(epochs);
  for (std::uint64_t e = 0; e < epochs; ++e) {
    maps[e].epoch = e;
    for (std::uint64_t i = 0; i < per_epoch; ++i) {
      core::CodeMapEntry entry;
      if (shape == 0) {
        const bool moved = e > 0 && rng.below(3) == 0;
        entry.address = 0x4000'0000 + (moved ? 0x100'0000 * e : 0) + i * 0x100;
        entry.size = 0x10 + rng.below(0xf0);
        entry.symbol = "site" + std::to_string(i % 97);
      } else {
        entry.address = 0x6000'0000 + ((e * 53 + i * 7) % 2048) * 0x800 + (e % 4) * 0x40;
        entry.size = 0x200 + rng.below(0x600);
        entry.symbol = "app.K" + std::to_string(i / 16) + ".m" + std::to_string(i);
      }
      maps[e].entries.push_back(std::move(entry));
    }
  }
  return maps;
}

void BM_IndexBuild(benchmark::State& state) {
  const int shape = static_cast<int>(state.range(0));
  const std::vector<core::CodeMapFile> maps = index_build_maps(shape);
  std::uint64_t entries = 0;
  double ns = 0.0;
  for (auto _ : state) {
    // Only prepare() is timed: not the adds, not the destruction.
    core::CodeMapIndex index;
    for (const core::CodeMapFile& map : maps) index.add(map);
    entries = index.total_entries();
    const auto start = std::chrono::steady_clock::now();
    index.prepare();
    const std::chrono::duration<double, std::nano> elapsed =
        std::chrono::steady_clock::now() - start;
    ns += elapsed.count();
    state.SetIterationTime(elapsed.count() * 1e-9);
  }
  g_index_build_ns[shape] = ns / static_cast<double>(state.iterations() * entries);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * entries));
}
BENCHMARK(BM_IndexBuild)->Arg(0)->Arg(1)->UseManualTime();

// ns per line of the last BM_SampleLogParse run; 0 when it was filtered out.
double g_sample_log_parse_ns = 0.0;

void BM_SampleLogParse(benchmark::State& state) {
  // One batch of writer output as the service receives it, decoded into a
  // pre-reserved arena vector the way ProfileServer::handle_batch does.
  constexpr std::size_t kLines = 4096;
  os::Vfs vfs;
  core::SampleLogWriter writer(vfs, "s");
  support::Xoshiro256 rng(0x5a3e);
  for (std::size_t n = 0; n < kLines; ++n) {
    core::LoggedSample s;
    s.pc = 0x6000'0000 + rng.below(1 << 24);
    s.caller_pc = 0x0804'8000 + rng.below(1 << 16);
    s.mode = rng.below(10) == 0 ? hw::CpuMode::kKernel : hw::CpuMode::kUser;
    s.pid = 1000 + static_cast<hw::Pid>(rng.below(4));
    s.epoch = n / 64;
    s.cycle = n * 9000;
    writer.append(hw::EventKind::kGlobalPowerEvents, s);
  }
  writer.flush();
  const std::string blob =
      *vfs.read(core::SampleLogWriter::path_for("s", hw::EventKind::kGlobalPowerEvents));
  support::Arena arena;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    support::ArenaVector<core::LoggedSample> out(arena);
    out.reserve(kLines);
    core::SampleStreamParser parser;
    parser.parse_into(blob, core::sample_line_hash(hw::EventKind::kGlobalPowerEvents), out);
    benchmark::DoNotOptimize(out.data());
    arena.reset();
  }
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  g_sample_log_parse_ns =
      elapsed.count() / static_cast<double>(state.iterations() * kLines);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kLines));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * blob.size()));
}
BENCHMARK(BM_SampleLogParse);

// ns per folded row of the last BM_ProfileFoldRender run; 0 when filtered out.
double g_profile_fold_render_ns = 0.0;

void BM_ProfileFoldRender(benchmark::State& state) {
  // A history-window query: fold N interval profiles over an overlapping
  // symbol pool in order, then render the top 20 — the store's and the
  // fleet's per-query work.
  const auto intervals = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kRowsPerInterval = 256;
  const std::vector<hw::EventKind> events = {hw::EventKind::kGlobalPowerEvents,
                                             hw::EventKind::kBsqCacheReference};
  support::Xoshiro256 rng(0xf01d);
  std::vector<core::Profile> parts(intervals);
  std::size_t rows = 0;
  for (core::Profile& part : parts) {
    for (std::size_t i = 0; i < kRowsPerInterval; ++i) {
      core::Resolution res;
      res.image = rng.below(4) == 0 ? "libc.so.6" : "RVM.map";
      res.symbol = "com.example.workload.Parser" + std::to_string(rng.below(1024)) +
                   ".process";
      res.domain = core::SampleDomain::kJit;
      part.add(events[rng.below(2)], res, 1 + rng.below(64));
    }
    rows += part.row_count();
  }
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    core::Profile merged;
    for (const core::Profile& part : parts) merged.merge(part);
    benchmark::DoNotOptimize(merged.render(events, 20));
  }
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  g_profile_fold_render_ns =
      elapsed.count() / static_cast<double>(state.iterations() * rows);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * rows));
}
BENCHMARK(BM_ProfileFoldRender)->Arg(64);

// --- End-to-end resolve+aggregate throughput -------------------------------
//
// Builds a full resolver scenario (kernel, executable, libraries, boot
// image, churning JIT epochs), logs a session's worth of samples through
// the crash-consistent sample log, then measures build_profile-equivalent
// aggregation (read once, resolve every sample, hash-aggregate) at 1, 2
// and 4 worker threads. Renders must be byte-identical across counts.

struct E2eScenario {
  os::Machine machine;
  core::RegistrationTable table;
  std::unique_ptr<jvm::BootImage> boot;
  hw::Pid pid = 0;
  hw::Address exec_base = 0;
  hw::Address libc_base = 0;
  hw::Address boot_base = 0;
  hw::Address heap_base = 0;
  std::vector<core::LoggedSample> samples;
};

constexpr std::uint64_t kEpochs = 48;
constexpr std::uint64_t kMethods = 512;  // JIT method slots in the heap

std::unique_ptr<E2eScenario> build_scenario(std::size_t sample_count) {
  auto sc = std::make_unique<E2eScenario>();
  os::Process& proc = sc->machine.spawn("jikesrvm");
  sc->pid = proc.pid();

  os::Image& exec =
      sc->machine.registry().create("jikesrvm", os::ImageKind::kExecutable, 32 * 1024);
  exec.symbols().add("main", 0, 4096);
  exec.symbols().add("boot", 4096, 4096);
  sc->exec_base = sc->machine.loader().load_executable(proc, exec.id()).start;

  os::Image& libc =
      sc->machine.registry().create("libc-2.3.2.so", os::ImageKind::kSharedLib, 64 * 1024);
  libc.symbols().add("memset", 0x1000, 0x800);
  libc.symbols().add("memcpy", 0x1800, 0x800);
  sc->libc_base = sc->machine.loader().load_library(proc, libc.id()).start;

  sc->boot = std::make_unique<jvm::BootImage>(sc->machine.registry(),
                                              sc->machine.vfs(), "RVM.map");
  sc->boot_base = sc->machine.loader().map_at_anon_slot(proc, sc->boot->image()).start;
  sc->heap_base = sc->machine.loader().map_anon(proc, 8 << 20).start;

  core::VmRegistration reg;
  reg.pid = sc->pid;
  reg.heap_lo = sc->heap_base;
  reg.heap_hi = sc->heap_base + (8 << 20);
  reg.boot_base = sc->boot_base;
  reg.boot_size = sc->boot->size();
  reg.boot_map_path = "RVM.map";
  reg.jit_map_dir = "jit_maps";
  sc->table.add(reg);

  // Churning epoch maps: each epoch (re)places a rotating slice of the
  // method population, so resolution has to attribute against the newest
  // placement at-or-below the sample's epoch.
  for (std::uint64_t e = 0; e < kEpochs; ++e) {
    core::CodeMapFile file;
    file.epoch = e;
    for (std::uint64_t i = 0; i < 96; ++i) {
      const std::uint64_t m = (e * 37 + i * 5) % kMethods;
      core::CodeMapEntry entry;
      entry.address = sc->heap_base + m * 0x1000 + (e % 4) * 0x80;
      entry.size = 0x800;
      entry.symbol = "app.K" + std::to_string(m / 16) + ".m" + std::to_string(m);
      file.entries.push_back(std::move(entry));
    }
    sc->machine.vfs().write(core::CodeMapFile::path_for("jit_maps", sc->pid, e),
                            file.serialize(sc->pid));
  }

  // Log the samples through the real writer/reader so the measured input
  // is exactly what a session leaves on disk.
  const hw::EventKind event = hw::EventKind::kGlobalPowerEvents;
  core::SampleLogWriter writer(sc->machine.vfs(), "bench_samples");
  support::Xoshiro256 rng(0xe2e);
  const hw::Address kernel_pc = sc->machine.kernel().routine("sys_read").base + 8;
  for (std::size_t n = 0; n < sample_count; ++n) {
    core::LoggedSample s;
    s.pid = sc->pid;
    s.epoch = rng.below(kEpochs);
    s.cycle = n;
    s.caller_pc = sc->exec_base + 16;
    const std::uint64_t kind = rng.below(100);
    if (kind < 70) {
      // JIT heap: random method slot, random offset — misses included.
      s.pc = sc->heap_base + rng.below(kMethods) * 0x1000 + rng.below(0x1000);
    } else if (kind < 80) {
      s.pc = sc->boot_base + rng.below(sc->boot->size());
    } else if (kind < 90) {
      s.pc = (kind & 1) ? sc->exec_base + rng.below(8 * 1024)
                        : sc->libc_base + 0x1000 + rng.below(0x1000);
    } else {
      s.pc = kernel_pc;
      s.mode = hw::CpuMode::kKernel;
    }
    writer.append(event, s);
    if ((n & 0xfff) == 0xfff) writer.flush();
  }
  writer.flush();
  sc->samples = core::SampleLogReader::read(sc->machine.vfs(), "bench_samples", event);
  return sc;
}

bool run_e2e() {
  const char* quick = std::getenv("VIPROF_QUICK");
  const bool is_quick = quick != nullptr && quick[0] == '1';
  const std::size_t sample_count = is_quick ? 20'000 : 100'000;
  const int reps = is_quick ? 2 : 3;
  const hw::EventKind event = hw::EventKind::kGlobalPowerEvents;

  std::printf("\n-- e2e resolve+aggregate (%zu samples, %u hardware threads) --\n",
              sample_count, std::thread::hardware_concurrency());
  std::unique_ptr<E2eScenario> sc = build_scenario(sample_count);

  core::Resolver resolver(sc->machine, sc->table, /*vm_aware=*/true);
  resolver.load();
  const auto resolve_fn = [&resolver](const core::LoggedSample& s,
                                      core::ResolveStats& stats) {
    return resolver.resolve(s, stats);
  };

  std::vector<bench::BenchRecord> records;
  std::string baseline_render;
  double baseline_secs = 0.0;
  bool identical = true;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    support::Telemetry telemetry;
    core::PipelineConfig pipeline_config{threads};
    pipeline_config.telemetry = &telemetry;
    core::ResolvePipeline pipeline(pipeline_config);
    double best_secs = 0.0;
    std::string render;
    for (int rep = 0; rep < reps; ++rep) {
      core::Profile profile;
      const auto start = std::chrono::steady_clock::now();
      pipeline.aggregate_profile(sc->samples, event, resolve_fn, profile);
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      if (rep == 0 || elapsed.count() < best_secs) best_secs = elapsed.count();
      render = profile.render({event}, 30);
    }
    if (threads == 1) {
      baseline_render = render;
      baseline_secs = best_secs;
    } else if (render != baseline_render) {
      std::fprintf(stderr, "FAIL: %zu-thread render differs from 1-thread\n", threads);
      identical = false;
    }
    const double rate = static_cast<double>(sc->samples.size()) / best_secs;
    std::printf("  threads=%zu  %9.0f samples/sec  (%.3fs, speedup %.2fx)\n", threads,
                rate, best_secs, baseline_secs / best_secs);
    bench::BenchRecord record;
    record.name = "e2e_resolve_aggregate.t" + std::to_string(threads);
    record.iterations = reps;
    record.seconds = best_secs;
    record.ns_per_op = best_secs * 1e9 / static_cast<double>(sc->samples.size());
    record.telemetry = telemetry.snapshot();  // pool.* evidence of the timed region
    records.push_back(std::move(record));
  }
  if (!identical) return false;
  std::printf("  renders byte-identical across thread counts\n");
  for (int shape = 0; shape < 2; ++shape) {
    if (g_index_build_ns[shape] <= 0.0) continue;
    bench::BenchRecord record;
    record.name = std::string("index.build.") + kIndexBuildShapes[shape];
    record.iterations = 1;
    record.ns_per_op = g_index_build_ns[shape];  // per map entry
    records.push_back(std::move(record));
  }
  if (g_sample_log_parse_ns > 0.0) {
    bench::BenchRecord record;
    record.name = "sample_log_parse";
    record.iterations = 1;
    record.ns_per_op = g_sample_log_parse_ns;  // per line
    records.push_back(std::move(record));
  }
  if (g_profile_fold_render_ns > 0.0) {
    bench::BenchRecord record;
    record.name = "profile_fold_render";
    record.iterations = 1;
    record.ns_per_op = g_profile_fold_render_ns;  // per folded row
    records.push_back(std::move(record));
  }
  bench::write_bench_json("resolve", records);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return run_e2e() ? 0 : 1;
}
