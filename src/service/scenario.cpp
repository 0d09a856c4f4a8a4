#include "service/scenario.hpp"

#include "core/archive.hpp"
#include "core/code_map.hpp"
#include "core/resolve_pipeline.hpp"
#include "core/sample_log.hpp"
#include "os/loader.hpp"
#include "support/rng.hpp"

namespace viprof::service {

std::unique_ptr<RecordedScenario> record_scenario(const ScenarioConfig& config) {
  auto sc = std::make_unique<RecordedScenario>();
  const std::size_t vms = config.vms == 0 ? 1 : config.vms;

  os::Image& libc = sc->machine.registry().create("libc-2.3.2.so",
                                                  os::ImageKind::kSharedLib, 64 * 1024);
  libc.symbols().add("memset", 0x1000, 0x800);
  libc.symbols().add("memcpy", 0x1800, 0x800);

  sc->boot = std::make_unique<jvm::BootImage>(sc->machine.registry(),
                                              sc->machine.vfs(), "RVM.map");

  struct VmWorld {
    hw::Address exec_base = 0, libc_base = 0, boot_base = 0, heap_base = 0;
  };
  std::vector<VmWorld> worlds(vms);

  for (std::size_t v = 0; v < vms; ++v) {
    os::Process& proc = sc->machine.spawn("jikesrvm." + std::to_string(v));
    sc->pids.push_back(proc.pid());
    VmWorld& w = worlds[v];

    os::Image& exec = sc->machine.registry().create(
        "jikesrvm." + std::to_string(v), os::ImageKind::kExecutable, 32 * 1024);
    exec.symbols().add("main", 0, 4096);
    exec.symbols().add("boot", 4096, 4096);
    w.exec_base = sc->machine.loader().load_executable(proc, exec.id()).start;
    w.libc_base = sc->machine.loader().load_library(proc, libc.id()).start;
    w.boot_base = sc->machine.loader().map_at_anon_slot(proc, sc->boot->image()).start;
    w.heap_base = sc->machine.loader().map_anon(proc, 8 << 20).start;

    core::VmRegistration reg;
    reg.pid = proc.pid();
    reg.heap_lo = w.heap_base;
    reg.heap_hi = w.heap_base + (8 << 20);
    reg.boot_base = w.boot_base;
    reg.boot_size = sc->boot->size();
    reg.boot_map_path = "RVM.map";
    reg.jit_map_dir = "jit_maps";
    sc->table.add(reg);

    // Churning epoch maps: every epoch (re)places a rotating slice of the
    // VM's method population, shifted per VM so the two heaps disagree.
    for (std::uint64_t e = 0; e < config.epochs; ++e) {
      core::CodeMapFile file;
      file.epoch = e;
      for (std::uint64_t i = 0; i < config.methods / 2; ++i) {
        const std::uint64_t m = (e * 37 + i * 5 + v * 11) % config.methods;
        core::CodeMapEntry entry;
        entry.address = w.heap_base + m * 0x1000 + (e % 4) * 0x80;
        entry.size = 0x800;
        entry.symbol = "app.K" + std::to_string(m / 16) + ".m" + std::to_string(m);
        file.entries.push_back(std::move(entry));
      }
      sc->machine.vfs().write(core::CodeMapFile::path_for("jit_maps", proc.pid(), e),
                              file.serialize(proc.pid()));
    }
  }

  const hw::Address kernel_pc = sc->machine.kernel().routine("sys_read").base + 8;
  core::SampleLogWriter writer(sc->machine.vfs(), "samples");
  support::Xoshiro256 rng(config.seed);
  const std::vector<hw::EventKind> events = {hw::EventKind::kGlobalPowerEvents,
                                             hw::EventKind::kBsqCacheReference};
  for (hw::EventKind event : events) {
    for (std::size_t n = 0; n < config.samples_per_event; ++n) {
      const std::size_t v = rng.below(vms);
      const VmWorld& w = worlds[v];
      core::LoggedSample s;
      s.pid = sc->pids[v];
      s.epoch = rng.below(config.epochs);
      s.cycle = n;
      s.caller_pc = w.exec_base + 16;
      const std::uint64_t kind = rng.below(100);
      if (kind < 70) {
        // JIT heap: random slot, random offset — misses included.
        s.pc = w.heap_base + rng.below(config.methods) * 0x1000 + rng.below(0x1000);
      } else if (kind < 80) {
        s.pc = w.boot_base + rng.below(sc->boot->size());
      } else if (kind < 90) {
        s.pc = (kind & 1) ? w.exec_base + rng.below(8 * 1024)
                          : w.libc_base + 0x1000 + rng.below(0x1000);
      } else {
        s.pc = kernel_pc;
        s.mode = hw::CpuMode::kKernel;
        s.caller_pc = 0;
      }
      writer.append(event, s);
    }
    writer.flush();
  }

  core::write_archive(sc->machine, sc->table, sc->machine.vfs(), "archive");
  return sc;
}

std::string offline_render(const os::Vfs& world, const std::vector<hw::EventKind>& events,
                           std::size_t top, std::size_t threads) {
  const core::ArchiveResolver resolver(world, "archive", /*vm_aware=*/true);
  core::ResolvePipeline pipeline(core::PipelineConfig{threads});
  const auto resolve_fn = [&resolver](const core::LoggedSample& s, core::ResolveStats&) {
    return resolver.resolve(s);
  };
  core::Profile profile;
  for (hw::EventKind event : events) {
    std::vector<core::LoggedSample> samples =
        core::SampleLogReader::read(world, "samples", event);
    pipeline.aggregate_profile(samples, event, resolve_fn, profile);
  }
  return profile.render(events, top);
}

}  // namespace viprof::service
