// Per-allocation-site accounting folded from object maps.
//
// Object maps are *partial*: an object appears in the map of every epoch in
// which it was allocated or moved, and its death is recorded once in the
// map written after the collection that reclaimed it. The table therefore
// dedups by (pid, obj_id) — the first sighting of an object charges its
// allocation, the first death line charges its death — so the same totals
// fall out no matter how many maps mention an object or in which order the
// maps are folded. Both the online server and the offline resolver build
// this table from the same file bytes, which is what makes the rendered
// per-site rows byte-identical across ingest paths.
//
// The dedup state is partitioned by (scope, pid): each partition keeps its
// own obj_id seen-sets (flat support::U64Set tables, no heap node per
// object), per-site charges, and shared read-only references to the maps
// it folded. merge() adopts a partition the target lacks in O(sites) —
// counts and map references, no per-object work — and falls back to an
// exact per-object union only when both sides hold the same partition.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/object_map.hpp"
#include "hw/types.hpp"
#include "support/u64_set.hpp"

namespace viprof::memprof {

/// Objects and bytes allocated at a site, and how many of them died.
struct SiteCounts {
  std::uint64_t alloc_objects = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t dead_objects = 0;
  std::uint64_t dead_bytes = 0;
};

struct SiteStats : SiteCounts {
  std::string name;  // lexicographic-min dictionary name; "site#<idx>" fallback

  /// Saturating: a death can be charged from a dead line alone when the map
  /// holding the allocation sighting was lost, so dead may exceed alloc.
  std::uint64_t live_objects() const {
    return alloc_objects > dead_objects ? alloc_objects - dead_objects : 0;
  }
  std::uint64_t live_bytes() const {
    return alloc_bytes > dead_bytes ? alloc_bytes - dead_bytes : 0;
  }
};

class SiteTable {
 public:
  /// Folds one salvaged object map into the table. Safe to feed the same
  /// map twice (a federated query may see a map through several shards):
  /// object and death dedup make ingestion idempotent per (scope, pid,
  /// obj_id). `scope` names the session the map tree belongs to — obj_ids
  /// are per-session, so two sessions that happen to share a pid must not
  /// dedup against each other (and must total the same no matter which
  /// folds first). The table keeps `file` alive as a read-only reference.
  void ingest(const std::string& scope, hw::Pid pid,
              std::shared_ptr<const core::ObjectMapFile> file);
  void ingest(const std::string& scope, hw::Pid pid, const core::ObjectMapFile& file) {
    ingest(scope, pid, std::make_shared<const core::ObjectMapFile>(file));
  }

  /// Single-session fold (the offline report path): empty scope.
  void ingest(hw::Pid pid, const core::ObjectMapFile& file) { ingest("", pid, file); }

  /// Adds `other` into this table: the result equals one table that
  /// ingested every map of both, in any order, with map counts summed per
  /// fold. A partition this table lacks costs O(its sites); one both hold
  /// is unioned per object, so merging the same partition twice charges
  /// nothing twice.
  void merge(const SiteTable& other);

  /// Sites keyed by (pid, site), ordered — deterministic render order.
  const std::map<std::pair<hw::Pid, std::uint32_t>, SiteStats>& sites() const {
    return sites_;
  }

  /// Display name for a site (dictionary name or "site#<idx>").
  const std::string& name_of(hw::Pid pid, std::uint32_t site) const;

  std::uint64_t maps_ingested() const { return maps_ingested_; }
  std::uint64_t maps_truncated() const { return maps_truncated_; }

  /// Heap bytes of every partition's obj_id seen-sets: the dedup state,
  /// which grows with the distinct objects folded.
  std::size_t seen_bytes() const;

 private:
  struct Partition {
    std::vector<std::shared_ptr<const core::ObjectMapFile>> maps;  // every map folded
    std::map<std::uint32_t, SiteCounts> charges;  // this partition's share
    // obj_id seen-sets. A partition adopted by merge() arrives without
    // them; they are replayed from `maps` before its next per-object fold.
    bool indexed = false;
    support::U64Set seen_alloc, seen_dead;
  };

  SiteStats& site(hw::Pid pid, std::uint32_t site);
  void adopt_name(hw::Pid pid, std::uint32_t site, std::string_view name);
  static void index(Partition& part);
  /// Charges `file`'s first sightings and first deaths to `part` and to the
  /// table-wide per-site totals.
  void charge(Partition& part, hw::Pid pid, const core::ObjectMapFile& file);

  std::map<std::pair<hw::Pid, std::uint32_t>, SiteStats> sites_;
  std::map<std::pair<std::string, hw::Pid>, Partition> partitions_;
  std::uint64_t maps_ingested_ = 0;
  std::uint64_t maps_truncated_ = 0;
};

}  // namespace viprof::memprof
