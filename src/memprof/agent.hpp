// The memory-profiling agent: object maps across a moving GC.
//
// The exact design of the VM agent (core/agent.hpp), applied to heap
// *objects* instead of JIT code: allocation hooks log (site, size, address)
// into an in-memory buffer; the GC move path only *flags* moved objects
// (logging from inside the collector is the same performance hit the paper
// rejects for code); at each epoch boundary — just before the collection,
// while the VM is already paused — the agent writes a partial object map.
// Object deaths are flagged by the collector and recorded in the *next*
// epoch's map, so a death line always post-dates every map entry for the
// object.
//
// The agent writes no registration (the VM agent's registration announces
// obj_map_dir for the pid) and enqueues no epoch markers (the VM agent's
// marker already advances the epoch for every sample of the pid — one
// marker per boundary, shared by both profilers).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/map_write.hpp"
#include "core/object_map.hpp"
#include "jvm/hooks.hpp"
#include "os/machine.hpp"
#include "support/fault.hpp"
#include "support/telemetry.hpp"

namespace viprof::memprof {

struct MemProfConfig {
  hw::Cycles site_hook_cost = 100;   // intern one allocation site at startup
  hw::Cycles alloc_hook_cost = 40;   // append to the object buffer
  hw::Cycles move_flag_cost = 12;    // set a bit on the object header
  hw::Cycles dead_flag_cost = 12;    // push (id, size, site) onto the dead list
  hw::Cycles map_write_base = 5'000;
  hw::Cycles map_write_per_entry = 300;

  /// Failed map writes: bounded flat-cost retries inside the GC pause,
  /// exactly the VM agent's policy.
  std::size_t map_write_retries = 2;
  hw::Cycles map_retry_cost = 8'000;

  std::string map_dir = "obj_maps";

  /// Optional fault injector; consulted for scheduled agent kills.
  support::FaultInjector* fault = nullptr;
};

/// Map-write outcomes (maps_written, the failure accounting) come from the
/// core::MapWriteStats base.
struct MemProfStats : core::MapWriteStats {
  std::uint64_t sites_announced = 0;
  std::uint64_t allocs_logged = 0;
  std::uint64_t moves_flagged = 0;
  std::uint64_t deads_flagged = 0;
  std::uint64_t map_entries_written = 0;
  std::uint64_t map_deaths_written = 0;
  hw::Cycles cost_cycles = 0;
  std::uint64_t killed_epochs = 0;
};

class MemProfAgent : public jvm::VmEventListener {
 public:
  explicit MemProfAgent(os::Machine& machine, const MemProfConfig& config = {});

  hw::Cycles on_vm_start(const jvm::VmStartInfo& info) override;
  hw::Cycles on_alloc_site(std::uint32_t site, const std::string& name) override;
  hw::Cycles on_object_alloc(const jvm::DataObject& obj) override;
  hw::Cycles on_object_moved(const jvm::DataObject& obj, hw::Address old_address) override;
  hw::Cycles on_object_dead(const jvm::DataObject& obj) override;
  hw::Cycles on_epoch_end(std::uint64_t epoch, bool final_epoch) override;
  const hw::ExecContext* agent_context() const override { return &context_; }

  const MemProfStats& stats() const { return stats_; }
  const MemProfConfig& config() const { return config_; }
  bool killed() const { return dead_; }

 private:
  hw::Cycles write_map(std::uint64_t epoch);

  os::Machine* machine_;
  MemProfConfig config_;
  core::MapWriter map_writer_;  // memprof.maps_written / map_write_errors / maps_dropped
  MemProfStats stats_;

  const jvm::Heap* heap_ = nullptr;
  hw::Pid pid_ = 0;
  bool dead_ = false;
  hw::ExecContext context_{};  // inside libviprofmemprof.so

  // Object buffer: objects allocated since the last map write, plus objects
  // the previous collection moved — exactly what a partial map holds.
  std::vector<jvm::ObjId> pending_;
  std::unordered_set<jvm::ObjId> pending_set_;
  // Deaths flagged by the previous collection, for the next map.
  std::vector<core::ObjectDeath> pending_dead_;
  // The full site dictionary; every map carries it (sites are few).
  std::vector<core::SiteName> sites_;

  // Self-telemetry handles (memprof.* namespace, DESIGN.md §8/§15).
  support::Counter* tele_allocs_ = nullptr;
  support::Counter* tele_moves_ = nullptr;
  support::Counter* tele_deads_ = nullptr;
  support::Counter* tele_map_entries_ = nullptr;
  support::LatencyHistogram* tele_map_cost_ = nullptr;
  support::LatencyHistogram* tele_map_entries_hist_ = nullptr;
};

}  // namespace viprof::memprof
