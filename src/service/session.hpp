// Server-side state of one streamed profiling session.
//
// A session is one client's world: the files it streamed in (archive
// manifest, boot maps, epoch maps) in a private VFS, the maps parsed on
// their shelves, its registration table, the per-event stream parsers with
// their seen-sequence sets, a bounded batch queue toward the ingest
// workers, and the rolling aggregates. Locks, never nested with each other:
//   ingest_mu_   — the batch stamp: apply seq and the published epoch
//                  ceilings (receiver; O(1) per batch)
//   seen locks   — one per event: its parser's seen-sequence set and read
//                  accounting (workers; the receiver on the drop path)
//   world_mu_    — the VFS; the resolver's one-time construction (receiver +
//                  the first worker to need it; then read lock-free)
//   reg_mu_      — the registration table (receiver + queries)
//   shelf_mu_    — the map shelves: every map parsed, and the object
//                  shelves' site tables (receiver, queries, index builds)
//   stripe locks — one per aggregation stripe (workers + queries)
//
// Sample lines are verified on the ingest workers, outside every lock
// (DESIGN.md §14); only the dedup against the event's seen-sequence set
// takes that event's lock, one insert per run of consecutive seqs. A
// record counts iff its seq is new, so the counts do not depend on which
// worker admits which batch first (DESIGN.md §10).
//
// Every map is parsed once, on arrival (DESIGN.md §14): store_file
// salvages it outside every lock onto the shelf of its (kind, dir, pid),
// folding an object map into that shelf's SiteTable too (§15). Index
// builds (map_index) and `memprof` queries read the shelves; neither
// parses text or takes world_mu_.
//
// Aggregation is striped (DESIGN.md §14): a batch lands on stripe
// (apply_seq % stripes) and merges into that stripe's plain Profile and
// CallGraph under the stripe's own lock, so concurrent workers only
// collide when their sequence numbers share a stripe. There is no reorder
// buffer and no apply-order requirement: merges are commutative sums and
// every table ranks in one canonical order (count, then names), so queries
// just merge the stripes. The online answer stays byte-identical to
// offline viprof_report at any thread count, stripe count and worker
// interleaving. Every stripe lock shares the TracedMutex name
// "service.session.agg", so contention evidence reads on one key.
//
// Counters (SessionStats) are plain atomics: stats() composes a snapshot
// without stopping ingest.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "core/archive.hpp"
#include "core/callgraph.hpp"
#include "core/object_map.hpp"
#include "core/registration.hpp"
#include "core/report.hpp"
#include "core/sample_log.hpp"
#include "memprof/site_table.hpp"
#include "support/arena.hpp"
#include "support/bounded_queue.hpp"
#include "support/format.hpp"
#include "support/traced_mutex.hpp"

namespace viprof::service {

/// Per pid, the highest map epoch announced so far.
using CeilingMap = std::map<hw::Pid, std::uint64_t>;

/// The two epoch-map kinds a session shelves: "map.<E>" and "omap.<E>".
enum class MapKind : std::uint8_t { kCode, kObject };

/// One sample batch queued for ingest, not yet parsed. `ceilings` is the
/// session's published ceiling map when the batch was stamped — the worker
/// resolves against exactly that generation of the map index. The body
/// (the frame's sample lines) is copied once into the batch's arena, a
/// pooled bump-allocated block chain the server recycles as soon as the
/// worker has decoded the body: no per-batch heap string.
struct Batch {
  hw::EventKind event = hw::EventKind::kGlobalPowerEvents;
  std::string_view body;                  // lives in `arena`
  std::unique_ptr<support::Arena> arena;  // owns the body
  std::uint64_t apply_seq = 0;
  std::shared_ptr<const CeilingMap> ceilings;
};

/// A worker's resolved batch: partial aggregates interned per batch (one
/// shared-table fold per distinct row, not per sample) and handed to
/// apply() in any order.
struct BatchResult {
  core::Profile partial;
  std::map<std::uint64_t, core::Profile> epoch_partial;
  core::CallGraph arcs;  // resolver-less partial graph
  std::uint64_t records = 0;
};

struct SessionStats {
  std::uint64_t frames = 0;
  std::uint64_t torn_frames = 0;      // wire framing damage (decoder skips)
  std::uint64_t files = 0;
  std::uint64_t batches_enqueued = 0;
  std::uint64_t batches_applied = 0;
  std::uint64_t batches_dropped = 0;  // overload drops (kDropNewest / fault)
  std::uint64_t records_ingested = 0;
  std::uint64_t records_dropped = 0;
  std::uint64_t registrations = 0;
  std::uint64_t registrations_rejected = 0;
  bool ended = false;
};

/// The "sessions" answer, one row per session in id order: Session,
/// Records, Batches, Dropped, Torn, VMs, State. The server and the
/// federator both answer with it.
std::string render_session_stats(const std::map<std::string, SessionStats>& rows);

class ProfileServer;

class ServerSession {
 public:
  /// `stripes` aggregation stripes (clamped to >= 1). `telemetry` (may be
  /// null) hosts this session's lock contention metrics and queue-depth
  /// instrumentation; the server passes its own hub so every session folds
  /// into one observable registry.
  ServerSession(std::string id, std::size_t queue_capacity, std::size_t stripes = 1,
                support::Telemetry* telemetry = nullptr)
      : id_(std::move(id)), telemetry_(telemetry), queue_(queue_capacity) {
    if (stripes == 0) stripes = 1;
    stripes_.reserve(stripes);
    for (std::size_t i = 0; i < stripes; ++i)
      stripes_.push_back(std::make_unique<Stripe>());
    if (telemetry != nullptr) {
      ingest_mu_.attach(*telemetry);
      for (EventStream& stream : streams_) stream.mu.attach(*telemetry);
      shelf_mu_.attach(*telemetry);
      for (auto& stripe : stripes_) stripe->mu.attach(*telemetry);
      queue_.instrument(&telemetry->gauge("service.queue.depth"),
                        &telemetry->histogram("service.queue.depth_hist"));
      maps_folded_ = &telemetry->counter("service.memprof.maps_folded");
      refolds_ = &telemetry->counter("service.memprof.refolds");
      fold_us_ = &telemetry->histogram("service.memprof.fold_us");
      map_bytes_received_ = &telemetry->counter("service.maps.bytes_received");
      map_bytes_parsed_ = &telemetry->counter("service.maps.bytes_parsed");
    }
  }

  const std::string& id() const { return id_; }

  std::size_t stripe_count() const { return stripes_.size(); }

  /// Trace context minted (or received over the wire) for this session;
  /// every span the server records on its behalf carries this id.
  void set_trace(std::uint64_t trace_id) {
    trace_id_.store(trace_id, std::memory_order_relaxed);
  }
  std::uint64_t trace() const { return trace_id_.load(std::memory_order_relaxed); }

  SessionStats stats() const;

  /// Registered VMs (wire kRegisterVm frames), with hardening semantics.
  core::RegisterStatus register_vm(const core::VmRegistration& reg);
  std::uint64_t registration_version() const;

  /// Stores a streamed file in the session world. A map (`<dir>/<pid>/map.<E>`
  /// or `omap.<E>`) is salvaged here, once, and shelved before it moves the
  /// pid's epoch ceiling; re-streaming an object map's path rebuilds its
  /// shelf's site table from the kept maps.
  void store_file(const std::string& path, std::string bytes);

  /// The published epoch ceilings: per pid, the highest map epoch stored.
  std::shared_ptr<const CeilingMap> ceilings() const {
    std::lock_guard<support::TracedMutex> lock(ingest_mu_);
    return ceilings_;
  }

  /// Accepted VM registrations, in table order.
  std::vector<core::VmRegistration> registrations() const;

  /// Copy of the streamed world (the full-reload path's input).
  os::Vfs world() const;

  /// The session's resolver, built from the streamed archive manifest on
  /// first use (epoch maps resolve through the code-map cache instead),
  /// then read lock-free. nullptr until the manifest has been streamed.
  /// Malformed manifest lines are skipped and counted in
  /// service.archive.malformed_lines.
  const core::ArchiveResolver* resolver();

  /// Combined rolling profile: every stripe's per-event profiles merged.
  core::Profile merged_profile() const;

  /// Merge of the per-epoch profiles with epoch >= `since`.
  core::Profile profile_since_epoch(std::uint64_t since) const;

  /// Rolling cross-layer call graph: every stripe's graph merged.
  core::CallGraph merged_graph() const;

  /// merged_graph()'s arcs in CallGraph::ranked() order.
  std::vector<core::CallArc> ranked_arcs() const { return merged_graph().ranked(); }

  /// Merges the site table of every registered VM's object shelf into
  /// `sites` (additive across sessions; per-(pid, obj_id) dedup makes
  /// re-folds idempotent). O(sites): the maps were folded on arrival.
  void fold_object_sites(memprof::SiteTable& sites) const;

  /// Heap bytes of the obj_id seen-sets of every object shelf
  /// (memprof::SiteTable::seen_bytes).
  std::size_t site_bytes() const;

  /// Epoch index over the `kind` maps streamed so far under
  /// (dir, pid), flattened from the shelf: the index CodeMapIndex::load or
  /// core::load_object_index builds from the world, without a re-parse.
  core::CodeMapIndex map_index(MapKind kind, const std::string& dir, hw::Pid pid) const;

  /// Everything applied since the previous take_flush(): the increment the
  /// persistent profile store ingests as one interval (DESIGN.md §11).
  struct FlushDelta {
    core::Profile profile;  // every event's delta, merged
    std::uint64_t epoch_lo = 0, epoch_hi = 0;  // epochs seen in the delta
    std::uint64_t records = 0;
    bool any = false;
  };

  /// Returns and clears the accumulated delta. A batch folds into exactly
  /// one stripe's pending state, so every batch lands in exactly one
  /// flush interval; the intervals merged back together, in any order,
  /// reproduce the session's full profile.
  FlushDelta take_flush();

  /// Copies of the per-epoch profiles (snapshot serialisation).
  std::map<std::uint64_t, core::Profile> epoch_profiles() const;

  /// Verifies `body`'s sample lines into `arena` outside every lock, then
  /// admits them under the event's seen lock, and returns the records whose
  /// seq was new to the event's stream. Any thread, any batch order.
  support::ArenaVector<core::LoggedSample> parse_batch(hw::EventKind event,
                                                      std::string_view body,
                                                      support::Arena& arena);

  /// The event stream's read accounting so far: the counts
  /// core::SampleLogReader reports over the same lines, in any arrival
  /// order and at any worker count.
  core::SampleLogReadStatus read_status(hw::EventKind event) const;

  /// Merges `result` into stripe (apply_seq % stripes). Called by the
  /// ingest workers under no other lock; any order, any interleaving.
  void apply(std::uint64_t apply_seq, BatchResult result);

  std::uint64_t ingested_records() const {
    return records_ingested_.load(std::memory_order_relaxed);
  }

  /// Wire-level damage charged to this session (decoder skips, mid-frame
  /// disconnects).
  void count_torn_frames(std::uint64_t n) {
    torn_frames_.fetch_add(n, std::memory_order_relaxed);
  }

  void mark_ended() { ended_.store(true, std::memory_order_relaxed); }
  bool ended() const { return ended_.load(std::memory_order_relaxed); }

 private:
  friend class ProfileServer;

  /// One aggregation stripe: the rolling aggregates plus the pending
  /// flush delta, under the stripe's own lock.
  struct Stripe {
    mutable support::TracedMutex mu{"service.session.agg"};
    core::Profile profile;
    std::map<std::uint64_t, core::Profile> epoch_profiles;
    core::CallGraph graph;
    // Flush accumulation since the last take_flush().
    core::Profile pending;
    std::uint64_t pending_epoch_lo = ~0ull, pending_epoch_hi = 0;  // lo>hi: none
    std::uint64_t pending_records = 0;
    bool pending_any = false;
  };

  const std::string id_;
  std::atomic<std::uint64_t> trace_id_{0};

  // ---- receiver side (ingest_mu_): the batch stamp. store_file replaces
  // the ceiling map whole, so a stamp copies one pointer.
  mutable support::TracedMutex ingest_mu_{"service.session.ingest"};
  std::shared_ptr<const CeilingMap> ceilings_ = std::make_shared<const CeilingMap>();
  std::uint64_t next_enqueue_seq_ = 0;

  // ---- per-event stream state (one seen lock each, a leaf lock)
  struct EventStream {
    mutable support::TracedMutex mu{"service.session.seen"};
    core::SampleStreamParser parser;
  };
  EventStream streams_[hw::kEventKindCount];

  /// One map as parsed on arrival: a code map as salvaged, an object map
  /// as its to_code_map() projection beside the salvaged file.
  struct KeptMap {
    std::shared_ptr<const core::CodeMapFile> code;
    std::shared_ptr<const core::ObjectMapFile> object;  // null for a code map
  };
  /// The maps of one kind, dir and pid, by path (the order a reload lists
  /// them in); an object shelf also folds its maps into `sites`.
  struct MapShelf {
    std::map<std::string, KeptMap> maps;
    memprof::SiteTable sites;
  };
  using ShelfKey = std::tuple<MapKind, std::string, hw::Pid>;  // (kind, dir, pid)

  void shelve(const ShelfKey& key, const std::string& path, KeptMap kept);

  // ---- streamed world (world_mu_)
  mutable std::mutex world_mu_;
  os::Vfs world_;
  support::Telemetry* telemetry_;  // may be null
  std::unique_ptr<core::ArchiveResolver> resolver_;  // built once, never replaced
  std::atomic<const core::ArchiveResolver*> resolver_ready_{nullptr};

  // ---- registrations (own lock; consulted from receiver and queries)
  mutable std::mutex reg_mu_;
  core::RegistrationTable table_;

  // ---- map shelves (shelf_mu_, a leaf lock)
  mutable support::TracedMutex shelf_mu_{"service.session.sites"};
  std::map<ShelfKey, MapShelf> shelves_;
  support::Counter* maps_folded_ = nullptr;  // null without telemetry
  support::Counter* refolds_ = nullptr;
  support::LatencyHistogram* fold_us_ = nullptr;
  support::Counter* map_bytes_received_ = nullptr;
  support::Counter* map_bytes_parsed_ = nullptr;

  // ---- ingest queue (self-locked)
  support::BoundedQueue<Batch> queue_;

  // ---- aggregates (per-stripe locks)
  std::vector<std::unique_ptr<Stripe>> stripes_;

  // ---- counters (lock-free)
  std::atomic<std::uint64_t> frames_{0};
  std::atomic<std::uint64_t> torn_frames_{0};
  std::atomic<std::uint64_t> files_{0};
  std::atomic<std::uint64_t> batches_enqueued_{0};
  std::atomic<std::uint64_t> batches_applied_{0};
  std::atomic<std::uint64_t> batches_dropped_{0};
  std::atomic<std::uint64_t> records_ingested_{0};
  std::atomic<std::uint64_t> records_dropped_{0};
  std::atomic<std::uint64_t> registrations_{0};
  std::atomic<std::uint64_t> registrations_rejected_{0};
  std::atomic<bool> ended_{false};
};

}  // namespace viprof::service
