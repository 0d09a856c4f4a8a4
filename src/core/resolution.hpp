// What resolving one sample yields: its domain, the Resolution (image and
// symbol as interned names), the outcome tallies and the fixed names of
// the degradation bins. Shared by the attribution tree (core/archive.hpp)
// and its in-process front end (core/resolver.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "hw/event.hpp"
#include "hw/types.hpp"
#include "support/interner.hpp"

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
