#include "memprof/agent.hpp"

#include "jvm/heap.hpp"
#include "support/check.hpp"

namespace viprof::memprof {

MemProfAgent::MemProfAgent(os::Machine& machine, const MemProfConfig& config)
    : machine_(&machine),
      config_(config),
      map_writer_(machine.telemetry(), "memprof", config.map_retry_cost,
                  config.map_write_retries) {
  support::Telemetry& tele = machine_->telemetry();
  tele_allocs_ = &tele.counter("memprof.allocs_logged");
  tele_moves_ = &tele.counter("memprof.moves_flagged");
  tele_deads_ = &tele.counter("memprof.deads_flagged");
  tele_map_entries_ = &tele.counter("memprof.map_entries");
  tele_map_cost_ = &tele.histogram("memprof.map_write.cost_cycles");
  tele_map_entries_hist_ = &tele.histogram("memprof.map_write.entries");
}

hw::Cycles MemProfAgent::on_vm_start(const jvm::VmStartInfo& info) {
  heap_ = info.heap;
  pid_ = info.pid;

  // Like the VM agent, the memory profiler is a library with hooks in the
  // VM — its own image, so its overhead shows up in its own reports.
  os::Image& lib = machine_->registry().create("libviprofmemprof.so",
                                               os::ImageKind::kSharedLib, 12 * 1024);
  lib.symbols().add("viprof_log_alloc", 0, 2048);
  lib.symbols().add("viprof_flag_obj_move", 2048, 1024);
  lib.symbols().add("viprof_flag_obj_death", 3072, 1024);
  lib.symbols().add("viprof_write_object_map", 4096, 8192);
  os::Process* proc = machine_->find_process(info.pid);
  VIPROF_CHECK(proc != nullptr);
  const os::Vma vma = machine_->loader().load_library(*proc, lib.id());
  context_ = hw::ExecContext{vma.start, lib.size(), hw::CpuMode::kUser, info.pid};

  // No registration and no epoch markers from here: the VM agent's
  // registration carries obj_map_dir, and its markers already advance the
  // pid's epoch for every sample stream.
  return 0;
}

hw::Cycles MemProfAgent::on_alloc_site(std::uint32_t site, const std::string& name) {
  sites_.push_back({site, support::Name(name)});
  ++stats_.sites_announced;
  stats_.cost_cycles += config_.site_hook_cost;
  return config_.site_hook_cost;
}

hw::Cycles MemProfAgent::on_object_alloc(const jvm::DataObject& obj) {
  if (pending_set_.insert(obj.id).second) pending_.push_back(obj.id);
  ++stats_.allocs_logged;
  tele_allocs_->inc();
  stats_.cost_cycles += config_.alloc_hook_cost;
  return config_.alloc_hook_cost;
}

hw::Cycles MemProfAgent::on_object_moved(const jvm::DataObject& obj,
                                         hw::Address old_address) {
  (void)old_address;
  // Cheap flagging only — the collector never constructs map entries. The
  // object's post-move address is read at map-write time.
  if (pending_set_.insert(obj.id).second) pending_.push_back(obj.id);
  ++stats_.moves_flagged;
  tele_moves_->inc();
  stats_.cost_cycles += config_.move_flag_cost;
  return config_.move_flag_cost;
}

hw::Cycles MemProfAgent::on_object_dead(const jvm::DataObject& obj) {
  // Deaths happen inside the collection that closes an epoch — *after* that
  // epoch's map was written — so the death line lands in the next map.
  pending_dead_.push_back({obj.id, obj.size, obj.site});
  ++stats_.deads_flagged;
  tele_deads_->inc();
  stats_.cost_cycles += config_.dead_flag_cost;
  return config_.dead_flag_cost;
}

hw::Cycles MemProfAgent::on_epoch_end(std::uint64_t epoch, bool final_epoch) {
  (void)final_epoch;
  if (!dead_ && config_.fault != nullptr &&
      config_.fault->should_kill(support::FaultComponent::kAgent,
                                 machine_->cpu().now())) {
    dead_ = true;
  }
  if (dead_) {
    // No map for this epoch: its object samples degrade to the counted
    // unresolved.obj.no_map bin — degraded, never misattributed.
    ++stats_.killed_epochs;
    return 0;
  }
  return write_map(epoch);
}

hw::Cycles MemProfAgent::write_map(std::uint64_t epoch) {
  VIPROF_CHECK(heap_ != nullptr);
  core::ObjectMapFile file;
  file.epoch = epoch;
  file.sites = sites_;
  file.objects.reserve(pending_.size());
  for (const jvm::ObjId id : pending_) {
    const jvm::DataObject& obj = heap_->object(id);
    // An object allocated this epoch dies no earlier than the collection
    // that closes it, which runs after this write — every pending object is
    // still live and its address current. Guard anyway: a dead entry would
    // shadow whatever reuses its range.
    if (obj.dead) continue;
    file.objects.push_back({obj.address, obj.size, obj.id, obj.site});
  }
  file.dead = pending_dead_;

  const std::string path = core::ObjectMapFile::path_for(config_.map_dir, pid_, epoch);
  hw::Cycles cost = config_.map_write_base +
                    config_.map_write_per_entry *
                        static_cast<hw::Cycles>(file.objects.size() + file.dead.size());
  const bool landed =
      map_writer_.write(machine_->vfs(), path, file.serialize(pid_), stats_, cost);
  if (landed) {
    stats_.map_entries_written += file.objects.size();
    stats_.map_deaths_written += file.dead.size();
    tele_map_entries_->inc(file.objects.size());
  }
  tele_map_cost_->add(static_cast<double>(cost));
  tele_map_entries_hist_->add(static_cast<double>(file.objects.size()));
  const hw::Cycles begin = machine_->cpu().now();
  machine_->telemetry().spans().record("memprof.map_write", "gc", begin, begin + cost,
                                       epoch);
  stats_.cost_cycles += cost;

  if (!landed) {
    // Keep the buffers: the entries ride into the next epoch's map, so the
    // objects are not lost forever — only the dropped epoch degrades.
    return cost;
  }
  pending_.clear();
  pending_set_.clear();
  pending_dead_.clear();
  return cost;
}

}  // namespace viprof::memprof
