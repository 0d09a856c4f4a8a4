// Sample resolution — VIProf's modified OProfile post-processing
// (paper Sections 3.2-3.3).
//
// Turns a logged (pc, mode, pid, epoch) into (image, symbol):
//   * kernel PCs resolve against the kernel symbol table;
//   * mapped binaries/libraries resolve against their symbol tables
//     ("(no symbols)" when stripped);
//   * the JVM boot image resolves through the Jikes build's RVM.map —
//     VIProf only; stock OProfile reports the opaque RVM.code.image;
//   * registered-heap PCs resolve through the epoch code maps with the
//     paper's backward search (this epoch's map, else the one before, ...);
//     stock OProfile reports "anon (range:...)".
//
// The decision tree itself lives in ArchiveResolver (core/archive.hpp).
// Resolver is the in-process front end: load() captures the live Machine
// and RegistrationTable into an ArchiveResolver world, and every resolve
// runs the shared tree over that capture, tallying the JIT outcomes it
// returns.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/archive.hpp"
#include "core/code_map.hpp"
#include "core/registration.hpp"
#include "core/resolution.hpp"
#include "core/sample_log.hpp"
#include "os/machine.hpp"
#include "support/check.hpp"
#include "support/interner.hpp"
#include "support/telemetry.hpp"

namespace viprof::core {

/// Thread-safety contract (DESIGN.md §9): after load(), the stats-taking
/// resolve()/resolve_pc() overloads are safe to call from any number of
/// threads concurrently — the shared tree mutates nothing, and the front
/// end mutates nothing but the caller's ResolveStats (and, for a walk
/// deeper than its depth slots, the mutexed walk-depth histogram). The
/// stats-less overloads and fold() are also thread-safe; the tallies behind
/// the accessors are atomics, and fold() publishes the resolver.*
/// telemetry. load() itself is exclusive.
class Resolver {
 public:
  /// `vm_aware` selects VIProf behaviour; false reproduces stock OProfile.
  Resolver(const os::Machine& machine, const RegistrationTable& table, bool vm_aware);
  ~Resolver();

  /// Movable (the atomic tallies transfer by value); moves are exclusive,
  /// like any mutation under the thread-safety contract above.
  Resolver(Resolver&& other) noexcept;

  /// Captures the machine's images, processes, kernel/hypervisor ranges
  /// and registrations, and reads RVM.map and all epoch code maps from the
  /// VFS. Must be called before resolve(), once the run is over: later
  /// changes to the machine are not seen. Safe with no registrations.
  void load();

  Resolution resolve(const LoggedSample& s) const {
    return resolve_pc(s.pc, s.mode, s.pid, s.epoch);
  }
  Resolution resolve_pc(hw::Address pc, hw::CpuMode mode, hw::Pid pid,
                        std::uint64_t epoch) const;

  /// Pure-with-respect-to-the-resolver variants: outcome tallies go into
  /// `stats` instead of the internal counters. Callers that want the
  /// accessors below to reflect their work fold() the stats back in. The
  /// forwarding to the tree is inline, so a resolve here costs what
  /// ArchiveResolver::resolve costs plus the tally.
  Resolution resolve(const LoggedSample& s, ResolveStats& stats) const {
    return resolve_pc(s.pc, s.mode, s.pid, s.epoch, stats);
  }
  Resolution resolve_pc(hw::Address pc, hw::CpuMode mode, hw::Pid pid,
                        std::uint64_t epoch, ResolveStats& stats) const {
    VIPROF_CHECK(world_ != nullptr);
    Resolution out = world_->resolve_pc(pc, mode, pid, epoch);
    if (out.domain == SampleDomain::kJit) tally_jit(out, stats);
    return out;
  }

  /// Adds shard tallies into the internal counters and the resolver.*
  /// telemetry.
  void fold(const ResolveStats& stats) const;

  const CodeMapIndex* code_maps(hw::Pid pid) const;
  std::uint64_t jit_resolved() const {
    return jit_resolved_.load(std::memory_order_relaxed);
  }
  std::uint64_t jit_unresolved() const {
    return jit_unresolved_.load(std::memory_order_relaxed);
  }
  std::uint64_t backward_steps() const {
    return backward_steps_.load(std::memory_order_relaxed);
  }

  /// Degradation accounting: JIT samples whose epoch map was lost or
  /// salvaged-incomplete. These land in the `unresolved.missing_map` /
  /// `unresolved.truncated_map` bins — counted, never misattributed.
  std::uint64_t unresolved_missing_map() const {
    return unresolved_missing_map_.load(std::memory_order_relaxed);
  }
  std::uint64_t unresolved_truncated_map() const {
    return unresolved_truncated_map_.load(std::memory_order_relaxed);
  }

 private:
  const os::Machine* machine_;
  const RegistrationTable* table_;
  bool vm_aware_;
  std::unique_ptr<const ArchiveResolver> world_;  // set by load()

  /// The tree tells a JIT hit by its walk depth (the sample's own epoch map
  /// counts as one) and a miss by its interned bin name.
  void tally_jit(const Resolution& out, ResolveStats& stats) const {
    if (out.maps_searched == 0) {
      tally_jit_miss(out, stats);
      return;
    }
    stats.backward_steps += out.maps_searched;
    ++stats.jit_resolved;
    if (out.maps_searched < ResolveStats::kDepthSlots)
      ++stats.hits_at_depth[out.maps_searched];
    else
      tele_walkback_->add(static_cast<double>(out.maps_searched));
  }
  static void tally_jit_miss(const Resolution& out, ResolveStats& stats);

  mutable std::atomic<std::uint64_t> jit_resolved_{0};
  mutable std::atomic<std::uint64_t> jit_unresolved_{0};
  mutable std::atomic<std::uint64_t> backward_steps_{0};
  mutable std::atomic<std::uint64_t> unresolved_missing_map_{0};
  mutable std::atomic<std::uint64_t> unresolved_truncated_map_{0};

  // Self-telemetry handles (resolver.* namespace, DESIGN.md §8). The
  // registry is reachable through the const machine because telemetry is a
  // mutable member — resolution is logically const, instrumentation is not
  // part of the observable profile.
  support::Counter* tele_jit_resolved_ = nullptr;
  support::Counter* tele_jit_unresolved_ = nullptr;
  support::Counter* tele_missing_map_ = nullptr;
  support::Counter* tele_truncated_map_ = nullptr;
  support::LatencyHistogram* tele_walkback_ = nullptr;  // maps searched per hit
};

}  // namespace viprof::core
