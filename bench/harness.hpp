// Shared measurement harness for the paper-figure benches.
//
// Reproduces the paper's methodology (Section 4.1): each configuration is
// run 10 times, the fastest and slowest runs are discarded, and the
// remaining 8 are averaged. Per-run measurement noise and per-configuration
// alignment bias (code layout differences between profiled and unprofiled
// builds — the standard explanation for the paper's occasional apparent
// speedups) are modelled as small seeded multiplicative factors, documented
// in EXPERIMENTS.md.
//
// Set VIPROF_QUICK=1 in the environment to use 4 runs instead of 10.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/viprof.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/telemetry.hpp"
#include "vertical/vertical_profiler.hpp"
#include "workloads/common.hpp"

namespace viprof::bench {

enum class Arm : std::uint8_t {
  kBase,
  kOprofile,  // stock OProfile at `period`
  kViprof,    // VIProf at `period`
  kVertical,  // Vertical Profiling comparator (instrumentation, no sampling)
};

inline const char* to_string(Arm arm) {
  switch (arm) {
    case Arm::kBase:     return "base";
    case Arm::kOprofile: return "oprofile";
    case Arm::kViprof:   return "viprof";
    case Arm::kVertical: return "vertical";
  }
  return "?";
}

struct RunOutcome {
  hw::Cycles cycles = 0;
  core::SessionResult session;
  /// Registry snapshot taken after the run, before the machine dies.
  support::TelemetrySnapshot telemetry;
};

inline std::uint64_t mix_seed(const std::string& name, Arm arm, std::uint64_t period,
                              std::uint64_t run) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto fold = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  for (char c : name) fold(static_cast<std::uint64_t>(c));
  fold(static_cast<std::uint64_t>(arm));
  fold(period);
  fold(run);
  return h;
}

/// Executes one run of `workload` under `arm` and returns measured cycles.
inline RunOutcome run_once(const workloads::Workload& workload, Arm arm,
                           std::uint64_t period, std::uint64_t run_index) {
  os::MachineConfig mcfg;
  mcfg.seed = mix_seed(workload.name, arm, period, run_index);
  os::Machine machine(mcfg);

  jvm::VmConfig vm_config = workload.vm;
  vm_config.seed ^= run_index * 0x9e3779b9ULL;  // run-to-run variation
  jvm::Vm vm(machine, vm_config);

  core::SessionConfig scfg;
  switch (arm) {
    case Arm::kBase:
    case Arm::kVertical:
      scfg.mode = core::ProfilingMode::kBase;
      break;
    case Arm::kOprofile:
      scfg.mode = core::ProfilingMode::kOprofile;
      break;
    case Arm::kViprof:
      scfg.mode = core::ProfilingMode::kViprof;
      break;
  }
  if (period > 0) {
    scfg.counters = {
        {hw::EventKind::kGlobalPowerEvents, period, true},
        // The paper samples L2 misses alongside time in all profiled runs;
        // the miss period scales with the cycle period to keep both columns
        // similarly populated.
        {hw::EventKind::kBsqCacheReference, std::max<std::uint64_t>(period / 64, 200),
         true},
    };
  }

  core::ProfilingSession session(machine, vm, scfg);
  session.attach();

  vertical::VerticalProfiler vertical_profiler(machine);
  if (arm == Arm::kVertical) vm.add_listener(&vertical_profiler);

  vm.setup(workload.program);
  RunOutcome outcome;
  outcome.session = session.run();
  outcome.cycles = outcome.session.cycles;
  outcome.telemetry = machine.telemetry().snapshot();
  return outcome;
}

inline int runs_per_config() {
  const char* quick = std::getenv("VIPROF_QUICK");
  return (quick != nullptr && quick[0] == '1') ? 4 : 10;
}

/// One measured configuration, machine-readable: what the BENCH_*.json CI
/// trajectory files carry per benchmark.
struct BenchRecord {
  std::string name;        // "<workload>.<arm>[.<period>]"
  int iterations = 0;      // runs contributing to the mean
  double seconds = 0.0;    // trimmed-mean virtual seconds
  double ns_per_op = 0.0;  // seconds normalised by the workload's app ops
  support::TelemetrySnapshot telemetry;  // registry snapshot of the final run
};

/// Full measurement of one (workload, arm, period): paper methodology plus
/// the modelled noise/alignment factors, with the telemetry of the last run
/// attached for the machine-readable output.
inline BenchRecord measure(const workloads::Workload& workload, Arm arm,
                           std::uint64_t period) {
  const int runs = runs_per_config();
  // Alignment bias: fixed per configuration, ~N(0, 0.8%).
  support::Xoshiro256 align_rng(mix_seed(workload.name, arm, period, 0xa119));
  const double alignment = arm == Arm::kBase ? 0.0 : align_rng.normal(0.0, 0.008);

  BenchRecord record;
  record.name = workload.name + std::string(".") + to_string(arm);
  if (period > 0) record.name += "." + std::to_string(period);
  record.iterations = runs;

  std::uint64_t last_app_ops = 0;
  std::vector<double> seconds;
  seconds.reserve(runs);
  for (int run = 0; run < runs; ++run) {
    RunOutcome outcome = run_once(workload, arm, period, run);
    support::Xoshiro256 noise_rng(mix_seed(workload.name, arm, period, 1000 + run));
    const double noise = noise_rng.normal(0.0, 0.003);
    const double secs = static_cast<double>(outcome.cycles) /
                        workloads::kCyclesPerSecond * (1.0 + alignment + noise);
    seconds.push_back(secs);
    last_app_ops = outcome.session.vm.app_ops;
    if (run == runs - 1) record.telemetry = std::move(outcome.telemetry);
  }
  record.seconds = support::trimmed_mean_drop_extremes(std::move(seconds));
  if (last_app_ops > 0) {
    record.ns_per_op = record.seconds * 1e9 / static_cast<double>(last_app_ops);
  }
  return record;
}

/// Measured seconds for one (workload, arm, period).
inline double measure_seconds(const workloads::Workload& workload, Arm arm,
                              std::uint64_t period) {
  return measure(workload, arm, period).seconds;
}

/// The value at index floor(p * n) (clamped to the last) of an ascending
/// `sorted` sample; 0 when it is empty. The micro benches' query p50/p99.
inline double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t at = std::min(
      sorted.size() - 1, static_cast<std::size_t>(p * static_cast<double>(sorted.size())));
  return sorted[at];
}

/// Serialises records as the BENCH_*.json schema: one object per measured
/// configuration with the telemetry snapshot embedded verbatim.
inline std::string bench_json(const std::string& bench_name,
                              const std::vector<BenchRecord>& records) {
  std::string out = "{\n\"bench\": \"" + bench_name + "\",\n\"results\": [";
  bool first = true;
  for (const BenchRecord& r : records) {
    out += first ? "\n" : ",\n";
    first = false;
    char head[256];
    std::snprintf(head, sizeof(head),
                  "{\"name\": \"%s\", \"iterations\": %d, \"seconds\": %.6f, "
                  "\"ns_per_op\": %.3f, \"telemetry\": ",
                  r.name.c_str(), r.iterations, r.seconds, r.ns_per_op);
    out += head;
    out += r.telemetry.to_json();
    out += "}";
  }
  out += "\n]\n}\n";
  return out;
}

/// Writes BENCH_<name>.json next to the running binary (the CI trajectory
/// artifact). Failure to write is reported, never fatal: the human-readable
/// tables on stdout remain the primary output.
inline void write_bench_json(const std::string& bench_name,
                             const std::vector<BenchRecord>& records) {
  const std::string path = "BENCH_" + bench_name + ".json";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  out << bench_json(bench_name, records);
  std::printf("machine-readable results written to %s\n", path.c_str());
}

}  // namespace viprof::bench
