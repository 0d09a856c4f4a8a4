// Hardware performance event kinds.
//
// Named after the Pentium 4 events the paper profiles: GLOBAL_POWER_EVENTS
// approximates elapsed (unhalted) cycles, i.e. "time"; BSQ_CACHE_REFERENCE
// configured for L2 data read/write misses is the paper's "Dmiss" column.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>

namespace viprof::hw {

enum class EventKind : std::uint8_t {
  kGlobalPowerEvents,  // unhalted cycles ("time")
  kBsqCacheReference,  // L2 cache misses ("Dmiss")
  kInstrRetired,       // retired instructions
  kItlbMiss,           // instruction TLB misses
  kBranchMispredict,   // mispredicted branches
  kObjDmiss,           // L2 data misses sampled by *data address* (memprof)
};

inline constexpr std::size_t kEventKindCount = 6;

inline constexpr std::array<EventKind, kEventKindCount> kAllEventKinds = {
    EventKind::kGlobalPowerEvents, EventKind::kBsqCacheReference,
    EventKind::kInstrRetired,      EventKind::kItlbMiss,
    EventKind::kBranchMispredict,  EventKind::kObjDmiss};

inline const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kGlobalPowerEvents: return "GLOBAL_POWER_EVENTS";
    case EventKind::kBsqCacheReference: return "BSQ_CACHE_REFERENCE";
    case EventKind::kInstrRetired:      return "INSTR_RETIRED";
    case EventKind::kItlbMiss:          return "ITLB_MISS";
    case EventKind::kBranchMispredict:  return "BRANCH_MISPREDICT";
    case EventKind::kObjDmiss:          return "DMISS_OBJ";
  }
  return "UNKNOWN_EVENT";
}

/// Inverse of to_string(), plus the report's short names "time"
/// (GLOBAL_POWER_EVENTS) and "dmiss" (BSQ_CACHE_REFERENCE). The one
/// event-name parser: queries, batch headers and tool flags all use it.
inline std::optional<EventKind> event_from_name(std::string_view name) {
  if (name == "time") return EventKind::kGlobalPowerEvents;
  if (name == "dmiss") return EventKind::kBsqCacheReference;
  for (const EventKind kind : kAllEventKinds)
    if (name == to_string(kind)) return kind;
  return std::nullopt;
}

inline constexpr std::size_t event_index(EventKind kind) {
  return static_cast<std::size_t>(kind);
}

}  // namespace viprof::hw
