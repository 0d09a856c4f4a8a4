// The persistent profile store: crash-consistent segmented time-series
// storage for continuous profiles, with compaction, retention, and
// historical queries (DESIGN.md §11).
//
// Write path: ingest() assigns each interval a globally unique first_seq,
// appends it (framed, §7 discipline) to the active segment, and seals the
// segment after seal_after_intervals — a seal record plus a manifest swap.
// compact() merges consecutive runs of small sealed segments into larger
// ones with Profile::merge and deduplicated dictionaries; the merge plan is
// computed deterministically before any parallelism, so the result is
// byte-identical at any ThreadPool width. A retention budget ages out the
// oldest segments with counted dropped_* bins — never silently.
//
// Crash model: the store consults the FaultInjector's kCompactor kill
// schedule at every checkpoint (append, seal, between manifest temp-write
// and rename, between compaction phases). Once killed, every public call
// returns early — the object models a dead process and must be discarded;
// re-opening a fresh ProfileStore over the same Vfs replays the manifest,
// salvages segments, and accounts every lost interval and row exactly.
//
// Query model: answers are folds of interval profiles, and the fold is
// commutative (interval.hpp), so a window query renders byte-identical
// whether its intervals sit in the unsealed segment, sealed segments, or
// compacted ones — the determinism anchor asserted by the `store` ctest
// label. Every sealed segment also carries a derived query tier: its
// intervals pre-folded whole and per session, each under the tick fence
// of the intervals it folds. It is built once when the segment joins the
// sealed set (at seal, inside each compaction job from the inputs' tiers,
// and at open from the salvaged intervals) and never persisted. A window
// fold skips a segment whose fence it misses, takes a pre-fold whose fence
// it covers, and scans raw intervals only for a straddled session fence
// and for the active segment. A pre-fold folds exactly the intervals
// under its fence, so a window covering the fence matches every one of
// them, and by commutativity the answer is the flat fold's bytes.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/fsck.hpp"
#include "os/vfs.hpp"
#include "store/interval.hpp"
#include "store/manifest.hpp"
#include "store/segment.hpp"
#include "support/traced_mutex.hpp"

namespace viprof::support {
class ThreadPool;
}

namespace viprof::store {

struct StoreConfig {
  /// Store root inside the Vfs ("" = the Vfs root itself).
  std::string root = "store";
  /// Active segment seals after this many intervals.
  std::size_t seal_after_intervals = 8;
  /// Max input segments merged into one compaction output.
  std::size_t compact_fanin = 4;
  /// compact() is a no-op below this many eligible sealed segments.
  std::size_t compact_min_segments = 2;
  /// Total live rows allowed; oldest sealed segments are dropped (and
  /// counted) beyond it. 0 = unlimited.
  std::uint64_t retention_budget_rows = 0;
  /// store.* metrics registry; not owned, nullptr disables.
  support::Telemetry* telemetry = nullptr;
};

/// What open()/fsck() found and did. The verdict doubles as the
/// `viprof_store fsck` exit code (core::FsckVerdict convention).
struct StoreRecovery {
  core::FsckVerdict verdict = core::FsckVerdict::kClean;
  bool fresh = false;             // no manifest, no segments: new store
  bool manifest_rebuilt = false;  // manifest missing/corrupt, rebuilt by scan

  std::uint64_t segments_loaded = 0;
  std::uint64_t segments_lost = 0;      // listed in manifest, file gone/dead
  std::uint64_t orphans_removed = 0;    // files no generation refers to
  std::uint64_t tombstones_cleared = 0;

  std::uint64_t intervals_salvaged = 0;
  std::uint64_t rows_salvaged = 0;
  /// Exact loss: manifest-authoritative counts minus what salvage yielded.
  std::uint64_t intervals_lost = 0;
  std::uint64_t rows_lost = 0;
  std::uint64_t lines_discarded = 0;
  /// The active segment listed in the manifest is gone: the manifest never
  /// holds an active segment's counts, so what it held is lost uncounted
  /// and intervals_lost/rows_lost are only a lower bound.
  bool loss_unknown = false;

  std::string summary;  // one line, human-readable
  std::string details;  // per-segment findings
};

/// One (tick-window, session) query target; lo/hi are inclusive ticks and
/// an interval matches when fully contained. Empty session = all sessions.
struct WindowSpec {
  std::uint64_t tick_lo = 0;
  std::uint64_t tick_hi = ~0ull;
  std::string session;
};

/// "LO" or "LO:HI" — inclusive ticks, unsigned decimal, LO <= HI, nothing
/// else — as a window over `session`; nullopt on any other spelling.
std::optional<WindowSpec> parse_window(std::string_view spec, std::string session = {});

class ProfileStore {
 public:
  explicit ProfileStore(os::Vfs& vfs, StoreConfig config = {});

  /// Replays the manifest, salvages segments, removes orphans and
  /// tombstoned files, rewrites damaged segments re-framed, and publishes a
  /// fresh manifest. Must be called (once) before ingest/queries.
  StoreRecovery open();

  /// Read-only dry run of open(): reports what recovery would find and do,
  /// touching nothing. Usable on a store opened by another instance.
  StoreRecovery fsck() const;

  /// Persists one interval (first_seq is assigned by the store). False when
  /// the store is not open or the simulated process was killed; an interval
  /// whose append was rejected by a fault is still queryable in memory but
  /// will be reported lost by fsck after a crash — counted, not silent.
  bool ingest(IntervalProfile iv);

  /// Seals the active segment now (normally automatic).
  bool seal_active();

  /// Merges eligible runs of sealed segments, then enforces the retention
  /// budget. Returns the number of compaction outputs written. With a pool,
  /// output contents build in parallel; the plan and therefore the result
  /// bytes are identical at any thread count.
  std::size_t compact(support::ThreadPool* pool = nullptr);

  /// True once a scheduled kCompactor kill fired; the store refuses all
  /// further work (discard it and re-open to model the process restart).
  bool killed() const;

  // -- Queries (all answers are commutative folds of intervals) --

  /// Aggregate profile over every interval contained in the window.
  core::Profile window_profile(const WindowSpec& w) const;

  /// Fig. 1-style top-N table over the window.
  std::string render_top(const WindowSpec& w, const std::vector<hw::EventKind>& events,
                         std::size_t top_n) const;

  /// Per-tick series for one (image, symbol): Tick / Count / Total / %.
  std::string render_series(const WindowSpec& w, const std::string& image,
                            const std::string& symbol, hw::EventKind event) const;

  /// Window-vs-window regression ranking (core::render_diff).
  std::string render_diff(const WindowSpec& before, const WindowSpec& after,
                          hw::EventKind event, std::size_t top_n) const;

  /// Segment inventory table (id, state, intervals, rows, tick span).
  std::string render_segments() const;

  /// One distinct session's live footprint in this store. `records` is the
  /// sum of the session's profile counts over every event — exactly the
  /// record count the service flushed, which is what the fleet ledger's
  /// stored side is audited against (viprof_fleet fsck).
  struct StoredSession {
    std::string session;
    std::uint64_t intervals = 0;
    std::uint64_t records = 0;
  };

  /// Distinct sessions across all live intervals, sorted by id.
  std::vector<StoredSession> sessions() const;

  std::uint64_t live_intervals() const;
  std::uint64_t live_rows() const;
  std::size_t segment_count() const;
  const StoreConfig& config() const { return config_; }

 private:
  /// One session's intervals in a sealed segment, folded, under the fence
  /// [tick_lo, tick_hi] their tick ranges span.
  struct SessionFold {
    std::string session;
    std::uint64_t tick_lo = ~0ull, tick_hi = 0;
    core::Profile profile;
    /// The folded intervals' positions in the segment, for straddle scans.
    std::vector<std::uint32_t> members;
  };
  /// A sealed segment's query tier: per-session folds (sorted by session)
  /// and their fold over the whole segment, under the union fence. Derived
  /// from the intervals the segment holds, never from manifest counts.
  struct Prefold {
    std::uint64_t tick_lo = ~0ull, tick_hi = 0;
    core::Profile all;
    std::vector<SessionFold> sessions;
  };
  struct LoadedSegment {
    ManifestSegment meta;
    std::vector<IntervalProfile> intervals;
    Prefold tier;  // empty until the segment joins sealed_
  };

  static Prefold build_prefold(const std::vector<IntervalProfile>& intervals);
  /// The tier of a compaction output: the inputs' tiers merged, members
  /// indexed into the output's `intervals`.
  static Prefold merge_prefolds(const LoadedSegment* first, const LoadedSegment* last,
                                const std::vector<IntervalProfile>& intervals);

  // All helpers assume mu_ is held.
  std::string path(const std::string& rel) const;
  bool check_kill();
  bool swap_manifest();
  Manifest build_manifest() const;
  bool start_active_locked();
  bool seal_active_locked();
  void enforce_retention_locked();
  void publish_prefold_rows_locked();
  core::Profile window_profile_locked(const WindowSpec& w) const;
  /// Read-only recovery analysis shared by open() and fsck(); defined in
  /// recovery.cpp.
  struct ScanState;
  void scan(ScanState& st) const;

  os::Vfs& vfs_;
  StoreConfig config_;
  // The whole store serialises on this one lock (manifest, segments,
  // queries) — the "store manifest mutex" of DESIGN.md §13. Contention
  // metrics publish into config_.telemetry when one is supplied.
  mutable support::TracedMutex mu_{"store.manifest"};

  bool open_ = false;
  bool killed_ = false;
  std::uint64_t kill_ops_ = 0;  // checkpoint counter driving should_kill

  std::uint64_t generation_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_segment_ = 0;
  std::uint64_t dropped_intervals_ = 0;
  std::uint64_t dropped_rows_ = 0;
  std::uint64_t dropped_segments_ = 0;

  /// Sealed segments in ingest order (ascending seq_lo); compaction only
  /// ever replaces consecutive runs, which preserves that order.
  std::vector<LoadedSegment> sealed_;
  std::optional<LoadedSegment> active_;
  SegmentWriter active_writer_{0};
  /// Non-empty only between the two manifest swaps of a compaction or
  /// retention drop: files adopted out of the live set, awaiting deletion.
  std::vector<std::string> tombstones_;

  support::Counter* ctr_ingest_intervals_ = nullptr;
  support::Counter* ctr_ingest_rows_ = nullptr;
  support::Counter* ctr_append_errors_ = nullptr;
  support::Counter* ctr_seals_ = nullptr;
  support::Counter* ctr_compactions_ = nullptr;
  support::Counter* ctr_compact_in_ = nullptr;
  support::Counter* ctr_compact_out_ = nullptr;
  support::Counter* ctr_dropped_intervals_ = nullptr;
  support::Counter* ctr_dropped_rows_ = nullptr;
  support::Counter* ctr_dropped_segments_ = nullptr;
  support::Counter* ctr_query_prefolds_ = nullptr;
  support::Counter* ctr_query_scanned_ = nullptr;
  support::Gauge* gauge_prefold_rows_ = nullptr;
};

}  // namespace viprof::store
