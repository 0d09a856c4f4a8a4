// Epoch analysis on a long-running server workload (pseudoJBB).
//
// Demonstrates the GC-epoch machinery end to end: how often the agent
// closes epochs, how much each partial code map carries, how a hot
// transaction method's body wanders through the heap until it is promoted
// to the mature space, and that samples from *every* epoch still attribute
// to it. This is the behaviour the paper's Section 3.1 is about.
//
//   $ ./server_epoch_analysis
#include <algorithm>
#include <cstdio>
#include <map>

#include "core/viprof.hpp"
#include "workloads/common.hpp"
#include "workloads/pseudojbb.hpp"

int main() {
  using namespace viprof;
  constexpr auto kTime = hw::EventKind::kGlobalPowerEvents;

  // A shortened pseudoJBB: 3 warehouses, 40K transactions.
  const workloads::Workload w = workloads::make_pseudojbb({3, 40'000});

  os::MachineConfig mcfg;
  mcfg.seed = 0x5e17e1;
  os::Machine machine(mcfg);
  jvm::Vm vm(machine, w.vm);

  core::SessionConfig config;
  config.mode = core::ProfilingMode::kViprof;
  config.counters = {{kTime, 45'000, true}};
  core::ProfilingSession session(machine, vm, config);
  session.attach();
  vm.setup(w.program);
  const core::SessionResult result = session.run();

  std::printf("== pseudoJBB epoch analysis ==\n");
  std::printf("transactions model : 3 warehouses x 40K transactions\n");
  std::printf("run                : %.1f virtual s, %llu epochs\n\n",
              static_cast<double>(result.cycles) / workloads::kCyclesPerSecond,
              static_cast<unsigned long long>(result.vm.collections));

  // Per-epoch sample counts from the raw log.
  std::map<std::uint64_t, std::uint64_t> per_epoch;
  for (const core::LoggedSample& s : core::SampleLogReader::read(
           machine.vfs(), session.daemon()->sample_dir(), kTime)) {
    ++per_epoch[s.epoch];
  }
  std::printf("-- samples per epoch --\n");
  for (const auto& [epoch, count] : per_epoch) {
    std::printf("  epoch %2llu: %5llu samples\n",
                static_cast<unsigned long long>(epoch),
                static_cast<unsigned long long>(count));
  }

  // Track the hottest transaction through the code maps: how many epochs
  // mention it (i.e. how often its body moved before maturing).
  const core::Resolver& resolver = session.resolver();
  const core::CodeMapIndex* maps = resolver.code_maps(vm.pid());
  const std::string hot = "spec.jbb.TransactionManager.processNewOrder";
  std::printf("\n-- body movement of %s --\n", hot.c_str());
  int mentions = 0;
  for (std::uint64_t epoch = 0; epoch <= maps->max_epoch(); ++epoch) {
    // Probe the map set: which epoch maps carry an entry for the method?
    // (A mention = compiled or moved during that epoch.)
    for (const std::string& path : machine.vfs().list("jit_maps")) {
      const auto contents = machine.vfs().read(path);
      if (!contents) continue;
      const core::CodeMapFile::Recovery parsed =
          core::CodeMapFile::salvage_file(path, *contents);
      if (!parsed.intact || parsed.file.epoch != epoch) continue;
      for (const core::CodeMapEntry& e : parsed.file.entries) {
        if (e.symbol == hot) {
          std::printf("  epoch %2llu: body at %#llx (%llu bytes)\n",
                      static_cast<unsigned long long>(epoch),
                      static_cast<unsigned long long>(e.address),
                      static_cast<unsigned long long>(e.size));
          ++mentions;
        }
      }
    }
  }
  std::printf("  -> mentioned in %d maps; absent afterwards = promoted to the\n",
              mentions);
  std::printf("     mature space (or recompiled at a higher tier) and no longer\n");
  std::printf("     moving — exactly why late epochs write smaller maps.\n\n");

  // Attribution check across all epochs.
  core::Profile profile = session.build_profile({kTime});
  const core::ProfileRow* row = profile.find("JIT.App", hot);
  if (row != nullptr) {
    std::printf("-- attribution --\n");
    std::printf("  %s: %.2f%% of time across all %llu epochs\n", hot.c_str(),
                profile.percent(*row, kTime),
                static_cast<unsigned long long>(result.vm.collections));
  }
  std::printf("\n-- top of the unified profile --\n%s",
              session.report_text({kTime}, 10).c_str());
  return 0;
}
