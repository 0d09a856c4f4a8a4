// One write-and-retry path for the epoch map files the agents write at GC
// time: code maps (VmAgent) and object maps (memprof::MemProfAgent).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "hw/types.hpp"
#include "os/vfs.hpp"
#include "support/telemetry.hpp"

namespace viprof::core {

/// Write-outcome tallies every map-writing agent keeps; AgentStats and
/// memprof::MemProfStats carry them as a base.
struct MapWriteStats {
  std::uint64_t maps_written = 0;      // landed, whole or torn
  std::uint64_t map_write_errors = 0;  // rejected writes (before any retry)
  std::uint64_t map_write_retries = 0;
  std::uint64_t maps_torn = 0;     // map landed torn (reader will salvage)
  std::uint64_t maps_dropped = 0;  // all retries failed; epoch has no map
};

/// Writes one agent's map files. A write rejected with an I/O error or a
/// full disk is retried up to `retries` times at a flat `retry_cost` each
/// (support::Backoff, multiplier 1, no jitter). Outcomes are tallied into a
/// MapWriteStats and the `<prefix>.maps_written`, `<prefix>.map_write_errors`
/// and `<prefix>.maps_dropped` counters.
class MapWriter {
 public:
  MapWriter(support::Telemetry& tele, const std::string& prefix, hw::Cycles retry_cost,
            std::size_t retries);

  /// Writes `blob` to `path` and adds the retry delays to `cost`. True when
  /// the map landed, whole or torn (the reader marks a torn map truncated
  /// and salvages its verifiable entries); false when every attempt failed
  /// and the epoch has no map.
  bool write(os::Vfs& vfs, const std::string& path, const std::string& blob,
             MapWriteStats& stats, hw::Cycles& cost) const;

 private:
  hw::Cycles retry_cost_;
  std::size_t retries_;
  support::Counter* written_;
  support::Counter* errors_;
  support::Counter* dropped_;
};

}  // namespace viprof::core
