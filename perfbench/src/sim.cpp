// Simulated VIProf sessions: each workload's inputs are real profiling
// runs of the repository's workload programs, produced from the benchmark
// seed, plus the base-arm twin that gives the Fig. 2 slowdown.
#include <cinttypes>
#include <cstdio>

#include "bench.hpp"
#include "memprof/report.hpp"
#include "service/client.hpp"
#include "service/scenario.hpp"
#include "workloads/dacapo.hpp"
#include "workloads/memmix.hpp"
#include "workloads/pseudojbb.hpp"

namespace perfbench {

namespace {

workloads::Workload make_program(const SessionSpec& spec) {
  workloads::Workload w;
  if (spec.program == "pseudojbb") {
    w = workloads::make_pseudojbb();
  } else if (spec.program == "leakshaped") {
    w = workloads::make_leak_shaped();
    w.vm.heap.track_objects = true;
  } else {
    w = workloads::make_dacapo(spec.program, workloads::DacapoSize::kSmall);
  }
  w.program.total_app_ops = static_cast<std::uint64_t>(
      static_cast<double>(w.program.total_app_ops) * spec.scale);
  w.vm.seed ^= spec.seed;
  return w;
}

os::MachineConfig machine_config(std::uint64_t seed) {
  os::MachineConfig config;
  config.seed = seed;
  return config;
}

core::SessionConfig session_config(core::ProfilingMode mode, bool memprof) {
  core::SessionConfig config;
  config.mode = mode;
  const std::uint64_t miss_period = std::max<std::uint64_t>(kSamplePeriod / 64, 200);
  config.counters = {{hw::EventKind::kGlobalPowerEvents, kSamplePeriod, true},
                     {hw::EventKind::kBsqCacheReference, miss_period, true}};
  if (memprof) {
    config.counters.push_back({hw::EventKind::kObjDmiss, miss_period, true});
    config.agent.obj_map_dir = "obj_maps";
  }
  return config;
}

}  // namespace

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<SimSession> simulate(const std::vector<SessionSpec>& specs) {
  std::vector<SimSession> out;
  out.reserve(specs.size());
  for (const SessionSpec& spec : specs) {
    Span span("jvm.simulate", trace_id_of(spec.id));
    const workloads::Workload w = make_program(spec);
    const bool memprof = spec.program == "leakshaped";

    SimSession s;
    s.id = spec.id;
    s.machine = std::make_unique<os::Machine>(machine_config(spec.seed));
    s.vm = std::make_unique<jvm::Vm>(*s.machine, w.vm);
    s.session = std::make_unique<core::ProfilingSession>(
        *s.machine, *s.vm, session_config(core::ProfilingMode::kViprof, memprof));
    s.agent = std::make_unique<memprof::MemProfAgent>(*s.machine);
    s.session->attach();
    if (memprof) s.vm->add_listener(s.agent.get());
    s.vm->setup(w.program);
    s.result = s.session->run();
    s.session->export_archive();
    s.memprof_cycles = s.agent->stats().cost_cycles;

    // The base arm: same program, machine seed and VM seed, profiler off.
    os::Machine machine(machine_config(spec.seed));
    jvm::Vm vm(machine, w.vm);
    core::ProfilingSession base(machine, vm,
                                session_config(core::ProfilingMode::kBase, false));
    base.attach();
    vm.setup(w.program);
    s.base_cycles = base.run().cycles;
    out.push_back(std::move(s));
  }
  return out;
}

void report_overhead(const std::vector<SimSession>& sessions, Result& result) {
  std::uint64_t base = 0, profiled = 0, nmi = 0, daemon = 0, agent = 0, mem = 0;
  for (const SimSession& s : sessions) {
    base += s.base_cycles;
    profiled += s.result.cycles;
    nmi += s.result.nmi_cycles;
    daemon += s.result.daemon.cost_cycles;
    agent += s.result.agent.cost_cycles;
    mem += s.memprof_cycles;
  }
  const std::int64_t delta =
      static_cast<std::int64_t>(profiled) - static_cast<std::int64_t>(base);
  const std::int64_t parts = static_cast<std::int64_t>(nmi + daemon + agent + mem);
  const std::int64_t residual = delta - parts;
  const double pct = base > 0 ? 100.0 / static_cast<double>(base) : 0.0;
  std::printf("overhead ledger (simulated cycles, %zu sessions): base %" PRIu64
              ", VIProf %" PRIu64 ", delta %" PRId64 " = nmi %" PRIu64 " + daemon %" PRIu64
              " + agent %" PRIu64 " + memprof %" PRIu64 " + residual %" PRId64 "\n",
              sessions.size(), base, profiled, delta, nmi, daemon, agent, mem, residual);
  result.check(parts + residual == delta && base > 0,
               "overhead ledger: parts + residual != cycle delta");
  result.e2e("overhead_pct", static_cast<double>(delta) * pct, "%");
  result.layer("hw.nmi.cycles_pct", static_cast<double>(nmi) * pct, "%");
  result.layer("core.daemon.cycles_pct", static_cast<double>(daemon) * pct, "%");
  result.layer("core.agent.cycles_pct", static_cast<double>(agent) * pct, "%");
  result.layer("memprof.agent.cycles_pct", static_cast<double>(mem) * pct, "%");
  result.layer("overhead.residual_pct", static_cast<double>(residual) * pct, "%");
}

namespace {

/// Keeps every frame a ReplayClient sends, so a session's stream is encoded
/// once in set-up and replayed from memory in the timed region.
class CaptureTransport final : public service::Transport {
 public:
  explicit CaptureTransport(std::vector<std::string>& frames) : frames_(frames) {}
  bool send(const std::string& bytes) override {
    frames_.push_back(bytes);
    return true;
  }
  void close() override { closed_ = true; }
  bool is_closed() const override { return closed_; }

 private:
  std::vector<std::string>& frames_;
  bool closed_ = false;
};

}  // namespace

EncodedSession encode_session(const SimSession& sim) {
  Span span("service.encode", trace_id_of(sim.id));
  EncodedSession out;
  out.id = sim.id;
  out.trace_id = trace_id_of(sim.id);
  CaptureTransport capture(out.frames);
  service::ReplayClient client(sim.world(), sim.id, capture);
  out.complete = client.run();
  out.batches = client.batches_sent();
  out.records = client.records_sent();
  return out;
}

OfflineAnswers offline_answers(const std::vector<SimSession>& sims) {
  OfflineAnswers out;
  const std::uint64_t t0 = now_ns();
  for (const SimSession& sim : sims) {
    out.top.push_back(service::offline_render(sim.world(), kReportEvents, kTop));
    const memprof::ObjectReport obj = memprof::build_object_report(
        sim.world(), "samples", sim.session->registrations().all());
    out.memprof.push_back(memprof::render_memprof(obj.sites, obj.profile, kTop));
  }
  out.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  return out;
}

}  // namespace perfbench
