// The store manifest: the single source of truth for what is live.
//
// A crc-guarded text file listing every live segment (with its authoritative
// interval/row counts once sealed), the allocation cursors, tombstones for
// files awaiting deletion, and the cumulative retention-drop bins. It is
// only ever replaced whole, via temp-file + Vfs::rename, so a reader sees
// either the old generation or the new one — never a blend. Recovery
// (DESIGN.md §11) replays it: segments it lists are loaded and salvaged,
// tombstoned files are deleted, anything else in the segments directory is
// an orphan from an interrupted compaction and is discarded.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace viprof::store {

struct ManifestSegment {
  std::string name;           // path relative to the store root
  std::uint64_t id = 0;
  bool sealed = false;
  /// Authoritative once sealed; 0 for the active segment (its true counts
  /// are only knowable from the file itself).
  std::uint64_t intervals = 0;
  std::uint64_t rows = 0;
  std::uint64_t tick_lo = 0, tick_hi = 0;
  std::uint64_t seq_lo = 0, seq_hi = 0;  // first_seq span (ingest order)
};

struct Manifest {
  std::uint64_t generation = 0;
  std::uint64_t next_seq = 1;      // next interval first_seq to assign
  std::uint64_t next_segment = 0;  // next segment id to allocate
  std::vector<ManifestSegment> segments;
  std::vector<std::string> tombstones;
  /// Cumulative retention-budget drops — aged-out data is counted forever,
  /// never silently forgotten.
  std::uint64_t dropped_intervals = 0;
  std::uint64_t dropped_rows = 0;
  std::uint64_t dropped_segments = 0;

  std::string serialize() const;
  /// nullopt on any damage: a manifest is all-or-nothing (the crc trailer
  /// guards the whole file), unlike segments which salvage line by line.
  static std::optional<Manifest> parse(const std::string& text);

  const ManifestSegment* find(const std::string& name) const;
};

/// One shard's entry in the fleet manifest. `root` is its partition root
/// (every shard's ProfileStore lives under its own directory, see
/// partition_root()); `sessions`/`records` are the counts the router has
/// flushed into that partition.
struct FleetShard {
  std::string name;
  std::string root;
  bool alive = true;
  std::uint64_t sessions = 0;
  std::uint64_t records = 0;
};

/// Fleet-wide degradation ledger. The exact-accounting invariant
/// (DESIGN.md §12) is:
///
///   acked_records == stored_records + lost_wire + lost_queue + lost_dead
///
/// where acked counts every record sent on a session's *terminal* attempt
/// (the attempt that either completed or had nowhere left to fail over to),
/// stored is what reached the partitions, lost_wire is frames the transport
/// dropped or tore, lost_queue is shard-side bounded-queue sheds, and
/// lost_dead is records sent on a terminal attempt whose shard died with no
/// live ring successor. failover_* counts re-sent work from *aborted*
/// attempts — informational, deliberately outside the invariant, because
/// those records were re-streamed and are accounted under their terminal
/// attempt. refused_sessions were never attempted at all (no live shard);
/// nothing of theirs enters acked.
struct FleetLedger {
  std::uint64_t acked_sessions = 0;
  std::uint64_t acked_records = 0;
  std::uint64_t stored_records = 0;
  std::uint64_t lost_wire = 0;
  std::uint64_t lost_queue = 0;
  std::uint64_t lost_dead_records = 0;
  std::uint64_t lost_dead_sessions = 0;
  std::uint64_t failover_sessions = 0;
  std::uint64_t failover_records = 0;
  std::uint64_t refused_sessions = 0;
  std::uint64_t retried_sends = 0;
  std::uint64_t retried_giveups = 0;
  std::uint64_t circuit_opens = 0;
  std::uint64_t rebalances = 0;

  /// Records the invariant can place: everything acked must be stored or
  /// in a counted loss bin.
  std::uint64_t accounted() const {
    return stored_records + lost_wire + lost_queue + lost_dead_records;
  }
  bool balanced() const { return acked_records == accounted(); }
};

/// The fleet manifest: the router's crc-guarded record of which shard
/// partitions exist and the cumulative degradation ledger. Same discipline
/// as the store Manifest — replaced whole via temp-file + rename, parsed
/// all-or-nothing — so `viprof_fleet fsck` either trusts the whole file
/// or declares the fleet unrecoverable.
struct FleetManifest {
  std::uint64_t generation = 0;
  std::vector<FleetShard> shards;
  FleetLedger ledger;

  std::string serialize() const;
  static std::optional<FleetManifest> parse(const std::string& text);

  const FleetShard* find(const std::string& name) const;
};

/// Canonical partition root for a shard: every shard's ProfileStore lives
/// under `<shard>/store` inside the fleet Vfs, next to wherever the shard
/// would keep scratch state.
inline std::string partition_root(const std::string& shard_name) {
  return shard_name + "/store";
}

/// Where the fleet manifest lives inside the fleet Vfs.
inline constexpr const char* kFleetManifestPath = "MANIFEST";

}  // namespace viprof::store
