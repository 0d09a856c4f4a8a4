// The VIProf VM agent (paper Section 3, "VM Agent").
//
// A library with hooks in the VM: the compile/recompile path logs the
// address, size and signature of each freshly compiled body into an
// in-memory code buffer; the GC move path only *flags* moved methods
// (logging from inside the collector would be a "significant performance
// hit"); at each epoch boundary (just before GC, and at VM shutdown) the
// agent writes a partial code map to disk, enqueues an epoch marker into the
// sample stream, and notifies the daemon.
//
// Every hook returns its simulated cycle cost, which the VM charges inside
// the agent's library code — so agent overhead shows up both in Fig. 2
// slowdowns and, under heavy sampling, in the profile itself.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/code_map.hpp"
#include "core/map_write.hpp"
#include "core/registration.hpp"
#include "core/sample_buffer.hpp"
#include "jvm/hooks.hpp"
#include "os/machine.hpp"
#include "support/fault.hpp"
#include "support/telemetry.hpp"

namespace viprof::core {

struct AgentConfig {
  /// Ablation ABL1: log GC moves immediately (with full entry construction
  /// inside the collector) instead of flagging. The paper rejects this.
  bool log_moves_immediately = false;

  /// Ablation ABL2: write a *full* map (every live body) at each epoch
  /// boundary instead of the paper's partial maps. Resolution then never
  /// needs the backward search, but map-writing cost scales with total
  /// compiled code instead of per-epoch churn.
  bool write_full_maps = false;

  hw::Cycles compile_hook_cost = 550;  // append to code buffer
  hw::Cycles move_flag_cost = 12;      // set a bit on the compiled method
  hw::Cycles move_log_cost = 380;      // full entry construction inside GC
  hw::Cycles map_write_base = 5'000;   // open/fsync-equivalent per epoch map
  hw::Cycles map_write_per_entry = 600;
  hw::Cycles registration_cost = 2'000;  // one-time VM registration

  /// Failed map writes: bounded retries, each charged inside the epoch
  /// boundary (the VM is already paused for GC, so retries must stay cheap
  /// and bounded — instrumentation cost is bounded even on failure paths).
  std::size_t map_write_retries = 2;
  hw::Cycles map_retry_cost = 8'000;

  std::string map_dir = "jit_maps";

  /// Where the memory-profiling agent (memprof::MemProfAgent, if attached)
  /// writes its epoch object maps. Rides along in the VmRegistration —
  /// there is exactly one registration per pid, so the VM agent announces
  /// both map directories. Empty = no object profiling.
  std::string obj_map_dir;

  /// Optional fault injector; also consulted for scheduled agent kills.
  support::FaultInjector* fault = nullptr;
};

/// Map-write outcomes (maps_written, the failure accounting) come from the
/// MapWriteStats base.
struct AgentStats : MapWriteStats {
  std::uint64_t compiles_logged = 0;
  std::uint64_t moves_flagged = 0;
  std::uint64_t moves_logged = 0;
  std::uint64_t map_entries_written = 0;
  hw::Cycles cost_cycles = 0;
  std::uint64_t killed_epochs = 0; // epoch boundaries after the agent died
};

class VmAgent : public jvm::VmEventListener {
 public:
  VmAgent(os::Machine& machine, SampleBuffer& buffer, RegistrationTable& table,
          const AgentConfig& config = {});

  hw::Cycles on_vm_start(const jvm::VmStartInfo& info) override;
  hw::Cycles on_method_compiled(const jvm::MethodInfo& method,
                                const jvm::CodeObject& code) override;
  hw::Cycles on_method_moved(const jvm::MethodInfo& method, hw::Address old_address,
                             const jvm::CodeObject& code) override;
  hw::Cycles on_epoch_end(std::uint64_t epoch, bool final_epoch) override;
  const hw::ExecContext* agent_context() const override { return &context_; }

  const AgentStats& stats() const { return stats_; }
  const AgentConfig& config() const { return config_; }

  /// True once a scheduled kill fired: the library is gone from the VM
  /// process — no further maps are written and no markers are enqueued.
  bool killed() const { return dead_; }

 private:
  hw::Cycles write_map(std::uint64_t epoch);

  os::Machine* machine_;
  SampleBuffer* buffer_;
  RegistrationTable* table_;
  AgentConfig config_;
  MapWriter map_writer_;  // agent.maps_written / map_write_errors / maps_dropped
  AgentStats stats_;

  const jvm::Heap* heap_ = nullptr;
  hw::Pid pid_ = 0;
  bool dead_ = false;
  hw::ExecContext context_{};  // inside libviprofagent.so

  // Code buffer: bodies compiled since the last map write, plus bodies the
  // previous collection moved (flag mode) — exactly what a partial map holds.
  std::vector<jvm::CodeId> pending_;
  std::unordered_set<jvm::CodeId> pending_set_;
  std::unordered_map<jvm::CodeId, support::Name> signatures_;

  // Self-telemetry handles (agent.* namespace, DESIGN.md §8).
  support::Counter* tele_compiles_ = nullptr;
  support::Counter* tele_moves_ = nullptr;
  support::Counter* tele_map_entries_ = nullptr;
  support::LatencyHistogram* tele_map_cost_ = nullptr;     // cycles per map write
  support::LatencyHistogram* tele_map_entries_hist_ = nullptr;  // entries per map
};

}  // namespace viprof::core
