#include "core/map_write.hpp"

#include "support/backoff.hpp"

namespace viprof::core {

MapWriter::MapWriter(support::Telemetry& tele, const std::string& prefix,
                     hw::Cycles retry_cost, std::size_t retries)
    : retry_cost_(retry_cost),
      retries_(retries),
      written_(&tele.counter(prefix + ".maps_written")),
      errors_(&tele.counter(prefix + ".map_write_errors")),
      dropped_(&tele.counter(prefix + ".maps_dropped")) {}

bool MapWriter::write(os::Vfs& vfs, const std::string& path, const std::string& blob,
                      MapWriteStats& stats, hw::Cycles& cost) const {
  const auto rejected = [](os::IoStatus st) {
    return st == os::IoStatus::kIoError || st == os::IoStatus::kNoSpace;
  };
  os::IoStatus st = vfs.write(path, blob);
  if (rejected(st)) {
    ++stats.map_write_errors;
    errors_->inc();
    support::BackoffConfig policy;
    policy.initial = retry_cost_;
    policy.multiplier = 1.0;
    policy.max_attempts = retries_;
    support::Backoff backoff(policy);
    while (rejected(st)) {
      const auto delay = backoff.next();
      if (!delay) break;
      cost += *delay;
      ++stats.map_write_retries;
      st = vfs.write(path, blob);
    }
  }
  if (rejected(st)) {
    // The epoch closes without a map; its samples land in an unresolved
    // bin. Counted here, never silent.
    ++stats.maps_dropped;
    dropped_->inc();
    return false;
  }
  if (st == os::IoStatus::kTorn) ++stats.maps_torn;
  ++stats.maps_written;
  written_->inc();
  return true;
}

}  // namespace viprof::core
