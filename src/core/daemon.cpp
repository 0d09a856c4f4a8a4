#include "core/daemon.hpp"

#include "support/backoff.hpp"
#include "support/check.hpp"

namespace viprof::core {

Daemon::Daemon(os::Machine& machine, SampleBuffer& buffer, const RegistrationTable& table,
               const DaemonConfig& config)
    : machine_(&machine),
      buffer_(&buffer),
      table_(&table),
      config_(config),
      log_(machine.vfs(), config.sample_dir) {
  // The daemon is a real user process ("oprofiled") with its own image, so
  // heavy profiling shows the profiler in its own reports.
  os::Image& img =
      machine_->registry().create("oprofiled", os::ImageKind::kExecutable, 64 * 1024);
  img.symbols().add("opd_process_samples", 0, 8192);
  img.symbols().add("opd_sfile_log", 8192, 4096);
  img.symbols().add("opd_anon_match", 12288, 4096);
  os::Process& proc = machine_->spawn("oprofiled");
  const os::Vma vma = machine_->loader().load_executable(proc, img.id());
  context_ = hw::ExecContext{vma.start, 8192, hw::CpuMode::kUser, proc.pid()};
  pattern_.base = vma.start + img.size();
  pattern_.working_set = 64 * 1024;
  pattern_.stride = 64;
  pattern_.random_frac = 0.2;
  pattern_.accesses_per_op = 0.5;
  log_.set_spill_capacity(config_.spill_capacity_bytes);

  support::Telemetry& tele = machine_->telemetry();
  tele_drained_ = &tele.counter("daemon.drained");
  tele_wakeups_ = &tele.counter("daemon.wakeups");
  tele_flushes_ = &tele.counter("daemon.flushes");
  tele_jit_samples_ = &tele.counter("daemon.samples.jit");
  tele_obj_samples_ = &tele.counter("daemon.samples.obj");
  tele_epoch_markers_ = &tele.counter("daemon.epoch_markers");
  tele_flush_errors_ = &tele.counter("daemon.flush.write_errors");
  tele_flush_torn_ = &tele.counter("daemon.flush.torn_writes");
  tele_flush_retries_ = &tele.counter("daemon.flush.retries");
  tele_spill_dropped_ = &tele.counter("daemon.spill.dropped_records");
  tele_crashes_ = &tele.counter("daemon.crashes");
  tele_backlog_ = &tele.histogram("daemon.drain.backlog");
  tele_drain_cost_ = &tele.histogram("daemon.drain.cost_cycles");
  tele_flush_cost_ = &tele.histogram("daemon.flush.retry_cycles");
}

std::optional<os::WorkChunk> Daemon::next_work(hw::Cycles now) {
  if (!dead_ && config_.fault != nullptr &&
      config_.fault->should_kill(support::FaultComponent::kDaemon, now)) {
    crash(now);
  }
  if (dead_) return std::nullopt;

  const std::size_t backlog = buffer_->size();
  if (backlog == 0) return std::nullopt;
  const bool period_hit = now - last_drain_ >= config_.drain_period;
  if (backlog < config_.drain_watermark && !period_hit) return std::nullopt;

  hw::Cycles cost = config_.wakeup_cost;
  ++stats_.wakeups;
  tele_wakeups_->inc();
  tele_backlog_->add(static_cast<double>(backlog));
  std::size_t processed = 0;
  while (processed < config_.batch) {
    const auto sample = buffer_->pop();
    if (!sample) break;
    cost += process(*sample);
    ++processed;
  }
  cost += flush_logs();
  if (buffer_->empty()) last_drain_ = now;
  stats_.cost_cycles += cost;
  tele_drained_->inc(processed);
  tele_drain_cost_->add(static_cast<double>(cost));
  machine_->telemetry().spans().record("daemon.drain", "daemon", now, now + cost);

  os::WorkChunk chunk;
  chunk.context = context_;
  chunk.cycles = cost;
  chunk.ops = std::max<std::uint64_t>(1, cost / 2);  // ~2 cycles per daemon op
  chunk.pattern = pattern_;
  return chunk;
}

hw::Cycles Daemon::flush_logs() {
  auto account = [this](const LogFlushResult& res) {
    stats_.flush_write_errors += res.write_errors;
    stats_.flush_torn_writes += res.torn_writes;
    stats_.spill_dropped_records += res.records_dropped;
    tele_flush_errors_->inc(res.write_errors);
    tele_flush_torn_->inc(res.torn_writes);
    tele_spill_dropped_->inc(res.records_dropped);
  };
  tele_flushes_->inc();
  LogFlushResult res = log_.flush();
  account(res);

  // Shared retry policy (support::Backoff): doubling delays, no jitter —
  // the exact schedule the daemon has always used, now driven by the one
  // tested implementation every retry path shares.
  support::BackoffConfig policy;
  policy.initial = config_.flush_retry_cost;
  policy.multiplier = 2.0;
  policy.max_attempts = config_.flush_retries;
  support::Backoff backoff(policy);
  hw::Cycles retry_cost = 0;
  while (!res.fully_flushed) {
    const auto delay = backoff.next();
    if (!delay) break;
    // The daemon sleeps out the backoff and re-issues the write; both the
    // wait and the rewrite are charged as daemon time.
    retry_cost += *delay;
    ++stats_.flush_retries;
    tele_flush_retries_->inc();
    res = log_.flush();
    account(res);
  }
  if (retry_cost > 0) tele_flush_cost_->add(static_cast<double>(retry_cost));
  return retry_cost;
}

void Daemon::final_flush() {
  if (dead_) return;  // a crashed daemon drains nothing
  while (const auto sample = buffer_->pop()) process(*sample);
  flush_logs();
}

void Daemon::crash(hw::Cycles now) {
  if (dead_) return;
  dead_ = true;
  ++stats_.crashes;
  tele_crashes_->inc();
  machine_->telemetry().spans().instant("daemon.crash", "daemon", now);
  stats_.crash_lost_records += log_.discard_pending();
  last_drain_ = now;
}

void Daemon::restart(hw::Cycles now) {
  if (!dead_) return;
  dead_ = false;
  ++stats_.restarts;
  last_drain_ = now;
}

hw::Cycles Daemon::process(const Sample& sample) {
  ++stats_.drained;
  if (sample.kind == RecordKind::kEpochMarker) {
    ++stats_.epoch_markers;
    tele_epoch_markers_->inc();
    // Epoch `sample.epoch` of this VM closed; its subsequent samples belong
    // to the next one. Other VMs' epoch counters are untouched.
    epoch_by_pid_[sample.pid] = sample.epoch + 1;
    return config_.per_sample_kernel;  // marker handling is trivial
  }

  LoggedSample out;
  out.pc = sample.pc;
  out.caller_pc = sample.caller_pc;
  out.mode = sample.mode;
  out.pid = sample.pid;
  out.cycle = sample.cycle;
  // Logging-time epoch assignment (paper Section 3.1): every sample carries
  // the epoch of its VM current at the time it is logged. Stock OProfile
  // has no markers, so its samples all stay in epoch 0.
  out.epoch = current_epoch(sample.pid);

  hw::Cycles cost = 0;
  const auto& hyp = machine_->hypervisor();
  if (sample.mode == hw::CpuMode::kHypervisor || (hyp && hyp->contains(sample.pc))) {
    // XenoProf extension: hypervisor-ring samples match the Xen range first.
    ++stats_.hypervisor_samples;
    cost = config_.per_sample_kernel;
  } else if (sample.mode == hw::CpuMode::kKernel || machine_->kernel().contains(sample.pc)) {
    ++stats_.kernel_samples;
    cost = config_.per_sample_kernel;
  } else {
    // User-space: find the backing VMA.
    const os::Process* proc = machine_->find_process(sample.pid);
    bool anon = true;
    if (proc != nullptr) {
      if (const auto vma = proc->address_space().find(sample.pc)) {
        anon = machine_->registry().get(vma->image).kind() == os::ImageKind::kAnon;
      }
    }
    if (!anon) {
      ++stats_.image_samples;
      cost = config_.per_sample_image;
    } else if (config_.vm_aware &&
               table_->find_heap(sample.pid, sample.pc) != nullptr) {
      // VIProf path: the registered-heap check replaces the anon machinery.
      // Object-miss samples carry a *data* address inside the same heap;
      // the same range check admits them, but they are tallied apart — the
      // memory profiler resolves them against object maps, not code maps.
      if (sample.event == hw::EventKind::kObjDmiss) {
        ++stats_.obj_samples;
        tele_obj_samples_->inc();
      } else {
        ++stats_.jit_samples;
        tele_jit_samples_->inc();
      }
      cost = config_.per_sample_jit;
    } else {
      ++stats_.anon_samples;
      cost = config_.per_sample_anon;
    }
  }
  log_.append(sample.event, out);
  return cost;
}

}  // namespace viprof::core
