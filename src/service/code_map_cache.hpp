// Shared cache of prepared CodeMapIndex instances, RCU-style.
//
// Ingest workers resolve each batch against one index per (session, pid,
// epoch ceiling). A miss builds it by flattening the session's map shelves,
// which hold every map parsed once on arrival; the cache keeps `capacity`
// generations, so an always-on server neither rebuilds per batch nor grows
// without bound.
//
// Hits are lock-free: a reader counts itself in `readers_`, loads the
// immutable snapshot behind a std::atomic<const Table*>, finds its entry,
// bumps its LRU tick and leaves with a pin. Misses serialize on
// `service.map_cache` (concurrent misses on one key build once), install a
// copy-on-write successor with one atomic store and retire the old table,
// freed under the mutex once `readers_` is seen at zero. Entries are shared
// between generations, and a pin keeps its index alive past any eviction.
// Plain atomics and a mutex only, so ThreadSanitizer models the protocol.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/code_map.hpp"
#include "support/telemetry.hpp"
#include "support/traced_mutex.hpp"

namespace viprof::service {

class CodeMapCache {
 public:
  using IndexPtr = std::shared_ptr<const core::CodeMapIndex>;
  using Builder = std::function<core::CodeMapIndex()>;

  explicit CodeMapCache(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity), snapshot_(new Table) {}
  ~CodeMapCache();
  CodeMapCache(const CodeMapCache&) = delete;
  CodeMapCache& operator=(const CodeMapCache&) = delete;

  /// Publishes the writer mutex's contention metrics (steady-state reads
  /// never touch it, so lock.service.map_cache.wait_ns records only
  /// build/install serialization, DESIGN.md §14) and registers the
  /// service.map_cache.{hits,misses,evictions} counters publish() feeds,
  /// so all three show in a snapshot even while still zero.
  void attach_telemetry(support::Telemetry& telemetry);

  /// Index for `pid` of `session` at epoch ceiling `ceiling`; `build` runs
  /// (under the writer lock, so concurrent misses on one key build once)
  /// on a miss. The returned pin stays valid across later evictions.
  IndexPtr get(const std::string& session, hw::Pid pid, std::uint64_t ceiling,
               const Builder& build);

  /// Mirrors hit/miss/eviction counts into the attached telemetry's
  /// service.map_cache.* counters (each call adds the delta since the last
  /// publish, so viprof_stat diff works across snapshots); call after a
  /// batch (cheap: three atomic reads, no cache lock, no registry lookup).
  /// Does nothing before attach_telemetry().
  void publish();

  std::size_t capacity() const { return capacity_; }
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  std::uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    IndexPtr index;
    /// Access tick for LRU eviction; hits store relaxed, the (serialized)
    /// evictor reads — approximate ordering between racing hits is fine,
    /// eviction choice never affects correctness (pins outlive eviction).
    mutable std::atomic<std::uint64_t> last_used{0};
  };
  /// Immutable after install; generations share Entry objects.
  struct Table {
    std::unordered_map<std::string, std::shared_ptr<Entry>> entries;
  };

  const std::size_t capacity_;
  std::atomic<const Table*> snapshot_;
  /// Hits between counting in and out; writers free retired tables only
  /// when they see it at zero.
  std::atomic<std::uint64_t> readers_{0};
  mutable support::TracedMutex mu_{"service.map_cache"};  // writers only
  std::vector<std::unique_ptr<const Table>> retired_;   // guarded by mu_
  std::atomic<std::uint64_t> tick_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  // Registered once by attach_telemetry(); publish() adds through them.
  support::Counter* tele_hits_ = nullptr;
  support::Counter* tele_misses_ = nullptr;
  support::Counter* tele_evictions_ = nullptr;
  // Counts already published, so publish() emits exact deltas.
  std::mutex publish_mu_;
  std::uint64_t published_hits_ = 0;
  std::uint64_t published_misses_ = 0;
  std::uint64_t published_evictions_ = 0;
};

}  // namespace viprof::service
