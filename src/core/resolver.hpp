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

#include "core/code_map.hpp"
#include "core/registration.hpp"
#include "core/sample_log.hpp"
#include "os/machine.hpp"
#include "support/interner.hpp"
#include "support/telemetry.hpp"

namespace viprof::core {

enum class SampleDomain : std::uint8_t {
  kHypervisor,  // Xen (XenoProf extension)
  kKernel,
  kImage,   // executable or shared library
  kBoot,    // JVM boot image
  kJit,     // dynamically generated code, resolved via code maps
  kAnon,    // anonymous mapping the tool cannot see into
  kObject,  // heap data object, resolved via epoch object maps (memprof)
  kUnknown,
};

inline const char* to_string(SampleDomain d) {
  switch (d) {
    case SampleDomain::kHypervisor: return "hypervisor";
    case SampleDomain::kKernel:  return "kernel";
    case SampleDomain::kImage:   return "image";
    case SampleDomain::kBoot:    return "boot";
    case SampleDomain::kJit:     return "jit";
    case SampleDomain::kAnon:    return "anon";
    case SampleDomain::kObject:  return "object";
    case SampleDomain::kUnknown: return "unknown";
  }
  return "?";
}

/// The domain whose to_string() is `name`, or nullopt.
std::optional<SampleDomain> domain_from_string(std::string_view name);

/// Scans "<domain> <c0> .. <cN>" (a domain token, then one count per event
/// kind: how the store segments and the service snapshot write a profile
/// row) off the front of `s`. False when a field is missing or malformed;
/// a well-formed but unknown domain name leaves `domain` nullopt.
bool scan_domain_counts(std::string_view& s, std::optional<SampleDomain>& domain,
                        std::uint64_t (&counts)[hw::kEventKindCount]);

/// One resolved sample. Names are interned ids (support/interner.hpp), so a
/// Resolution is a 32-byte value that copies no string.
struct Resolution {
  support::Name image;
  support::Name symbol;
  SampleDomain domain = SampleDomain::kUnknown;
  std::uint32_t maps_searched = 0;  // JIT hits: backward-search depth

  // Extent of the resolved symbol in the sampled address space (0/0 when
  // unresolved); lets opannotate-style tools bucket samples *within* a
  // method body.
  hw::Address symbol_base = 0;
  std::uint64_t symbol_size = 0;
};

/// Resolution outcome tallies. The parallel pipeline gives each shard its
/// own ResolveStats and folds them into the resolver afterwards, so worker
/// threads never contend on shared counters, telemetry included.
struct ResolveStats {
  /// Slots of the walk-depth tally below.
  static constexpr std::size_t kDepthSlots = 16;

  std::uint64_t jit_resolved = 0;
  std::uint64_t jit_unresolved = 0;
  std::uint64_t backward_steps = 0;
  std::uint64_t unresolved_missing_map = 0;
  std::uint64_t unresolved_truncated_map = 0;
  /// JIT hits by backward-walk depth (maps searched), for the
  /// resolver.walkback.depth histogram. A hit as deep as kDepthSlots or
  /// deeper is rare and goes straight to the histogram instead.
  std::uint64_t hits_at_depth[kDepthSlots] = {};

  void merge(const ResolveStats& o) {
    jit_resolved += o.jit_resolved;
    jit_unresolved += o.jit_unresolved;
    backward_steps += o.backward_steps;
    unresolved_missing_map += o.unresolved_missing_map;
    unresolved_truncated_map += o.unresolved_truncated_map;
    for (std::size_t d = 0; d < kDepthSlots; ++d) hits_at_depth[d] += o.hits_at_depth[d];
  }
};

class ArchiveResolver;

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
  /// accessors below to reflect their work fold() the stats back in.
  Resolution resolve(const LoggedSample& s, ResolveStats& stats) const {
    return resolve_pc(s.pc, s.mode, s.pid, s.epoch, stats);
  }
  Resolution resolve_pc(hw::Address pc, hw::CpuMode mode, hw::Pid pid,
                        std::uint64_t epoch, ResolveStats& stats) const;

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

/// Symbol names of the explicit degradation bins. A sample is *never*
/// silently attributed to a neighbouring method when its epoch map is
/// damaged; it lands in one of these instead.
inline constexpr const char* kUnresolvedMissingMap = "unresolved.missing_map";
inline constexpr const char* kUnresolvedTruncatedMap = "unresolved.truncated_map";
inline constexpr const char* kUnknownJit = "(unknown JIT code)";
inline constexpr const char* kNoSymbols = "(no symbols)";
inline constexpr const char* kJitImage = "JIT.App";

/// The fixed names the attribution tree reports, interned once per process.
struct ResolveNames {
  support::Name no_symbols{kNoSymbols};
  support::Name jit_image{kJitImage};
  support::Name unmapped{"unmapped"};
  support::Name missing_map{kUnresolvedMissingMap};
  support::Name truncated_map{kUnresolvedTruncatedMap};
  support::Name unknown_jit{kUnknownJit};

  static const ResolveNames& get() {
    static const ResolveNames names;
    return names;
  }
};

}  // namespace viprof::core
