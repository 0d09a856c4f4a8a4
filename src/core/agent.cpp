#include "core/agent.hpp"

#include "support/check.hpp"

namespace viprof::core {

VmAgent::VmAgent(os::Machine& machine, SampleBuffer& buffer, RegistrationTable& table,
                 const AgentConfig& config)
    : machine_(&machine),
      buffer_(&buffer),
      table_(&table),
      config_(config),
      map_writer_(machine.telemetry(), "agent", config.map_retry_cost,
                  config.map_write_retries) {
  support::Telemetry& tele = machine_->telemetry();
  tele_compiles_ = &tele.counter("agent.compiles_logged");
  tele_moves_ = &tele.counter("agent.moves_flagged");
  tele_map_entries_ = &tele.counter("agent.map_entries");
  tele_map_cost_ = &tele.histogram("agent.map_write.cost_cycles");
  tele_map_entries_hist_ = &tele.histogram("agent.map_write.entries");
}

hw::Cycles VmAgent::on_vm_start(const jvm::VmStartInfo& info) {
  heap_ = info.heap;
  pid_ = info.pid;

  // The agent is "implemented as a library with several hooks in the VM's
  // code" — give it a real identity in the process image map.
  os::Image& lib =
      machine_->registry().create("libviprofagent.so", os::ImageKind::kSharedLib, 16 * 1024);
  lib.symbols().add("viprof_register_vm", 0, 2048);
  lib.symbols().add("viprof_log_compile", 2048, 2048);
  lib.symbols().add("viprof_flag_move", 4096, 1024);
  lib.symbols().add("viprof_write_code_map", 5120, 6144);
  lib.symbols().add("viprof_notify_daemon", 11264, 2048);
  os::Process* proc = machine_->find_process(info.pid);
  VIPROF_CHECK(proc != nullptr);
  const os::Vma vma = machine_->loader().load_library(*proc, lib.id());
  context_ = hw::ExecContext{vma.start, lib.size(), hw::CpuMode::kUser, info.pid};

  VmRegistration reg;
  reg.pid = info.pid;
  reg.heap_lo = info.heap_lo;
  reg.heap_hi = info.heap_hi;
  reg.boot_base = info.boot_base;
  reg.boot_size = info.boot ? info.boot->size() : 0;
  reg.boot_map_path = info.boot ? info.boot->map_path() : "";
  reg.jit_map_dir = config_.map_dir;
  reg.obj_map_dir = config_.obj_map_dir;
  table_->add(reg);

  stats_.cost_cycles += config_.registration_cost;
  return config_.registration_cost;
}

hw::Cycles VmAgent::on_method_compiled(const jvm::MethodInfo& method,
                                       const jvm::CodeObject& code) {
  signatures_[code.id] = support::Name(method.qualified_name());
  if (pending_set_.insert(code.id).second) pending_.push_back(code.id);
  ++stats_.compiles_logged;
  tele_compiles_->inc();
  stats_.cost_cycles += config_.compile_hook_cost;
  return config_.compile_hook_cost;
}

hw::Cycles VmAgent::on_method_moved(const jvm::MethodInfo& method,
                                    hw::Address old_address,
                                    const jvm::CodeObject& code) {
  (void)method;
  (void)old_address;
  // Either cheap flagging (the shipped design) or, for the ablation, full
  // logging from inside the collector. Both end with the body in the next
  // partial map; the difference is purely where the cycles are spent.
  if (pending_set_.insert(code.id).second) pending_.push_back(code.id);
  if (config_.log_moves_immediately) {
    ++stats_.moves_logged;
    stats_.cost_cycles += config_.move_log_cost;
    return config_.move_log_cost;
  }
  ++stats_.moves_flagged;
  tele_moves_->inc();
  stats_.cost_cycles += config_.move_flag_cost;
  return config_.move_flag_cost;
}

hw::Cycles VmAgent::on_epoch_end(std::uint64_t epoch, bool final_epoch) {
  (void)final_epoch;
  if (!dead_ && config_.fault != nullptr &&
      config_.fault->should_kill(support::FaultComponent::kAgent,
                                 machine_->cpu().now())) {
    dead_ = true;
  }
  if (dead_) {
    // The agent died: no map, no epoch marker. The daemon keeps logging
    // with the last delivered epoch, and post-processing sends every
    // sample of an epoch without a map to an explicit unresolved bin —
    // degraded, counted, never misattributed.
    ++stats_.killed_epochs;
    return 0;
  }
  return write_map(epoch);
}

hw::Cycles VmAgent::write_map(std::uint64_t epoch) {
  VIPROF_CHECK(heap_ != nullptr);
  CodeMapFile file;
  file.epoch = epoch;
  auto emit = [&](jvm::CodeId id) {
    const jvm::CodeObject& code = heap_->code(id);
    CodeMapEntry e;
    e.address = code.address;
    e.size = code.size;
    auto sig = signatures_.find(id);
    VIPROF_CHECK(sig != signatures_.end());
    e.symbol = sig->second;
    file.entries.push_back(std::move(e));
  };
  if (config_.write_full_maps) {
    // ABL2 alternative: dump every live body the agent knows about, plus
    // the pending buffer — a body compiled *and* superseded within this
    // epoch is dead already but may have absorbed samples, and no other
    // map will ever cover its address range.
    std::unordered_set<jvm::CodeId> emitted;
    for (const jvm::CodeObject& code : heap_->all_code()) {
      if (!code.dead && signatures_.count(code.id) && emitted.insert(code.id).second) {
        emit(code.id);
      }
    }
    for (jvm::CodeId id : pending_) {
      if (emitted.insert(id).second) emit(id);
    }
  } else {
    // The paper's partial map: bodies compiled this epoch plus bodies the
    // previous collection moved. Bodies superseded within the epoch are
    // written too: samples taken before the recompile landed in the old
    // body, and its address range is not reused until after the upcoming
    // GC, so the entry cannot overlap anything live.
    file.entries.reserve(pending_.size());
    for (jvm::CodeId id : pending_) emit(id);
  }
  const std::string path = CodeMapFile::path_for(config_.map_dir, pid_, epoch);
  hw::Cycles cost =
      config_.map_write_base +
      config_.map_write_per_entry * static_cast<hw::Cycles>(file.entries.size());
  const bool landed =
      map_writer_.write(machine_->vfs(), path, file.serialize(pid_), stats_, cost);
  if (landed) {
    stats_.map_entries_written += file.entries.size();
    tele_map_entries_->inc(file.entries.size());
  }
  tele_map_cost_->add(static_cast<double>(cost));
  tele_map_entries_hist_->add(static_cast<double>(file.entries.size()));
  // GC-epoch span marker: the map write happens inside the epoch boundary,
  // while the VM is paused for collection. `arg` carries the closing epoch.
  const hw::Cycles map_begin = machine_->cpu().now();
  machine_->telemetry().spans().record("agent.map_write", "gc", map_begin,
                                       map_begin + cost, epoch);

  // Notify the daemon through the ordered sample stream: samples enqueued
  // after this marker belong to the next epoch. Sent even when the map
  // write failed: advancing the epoch keeps later samples out of *older*
  // maps (stale attribution); the lost map's own epoch degrades to an
  // explicit unresolved bin instead.
  buffer_->push(Sample::epoch_marker(pid_, epoch, machine_->cpu().now()));

  stats_.cost_cycles += cost;

  if (!landed) {
    // Keep the code buffer: the entries ride along into the next epoch's
    // map, so the method bodies are not lost forever — only the dropped
    // epoch itself degrades to unresolved.
    return cost;
  }
  pending_.clear();
  pending_set_.clear();
  return cost;
}

}  // namespace viprof::core
