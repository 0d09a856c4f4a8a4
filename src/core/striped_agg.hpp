// Order-recovering accumulators for striped aggregation (DESIGN.md §14).
//
// Profile::merge reproduces the serial row order only when partials are
// merged in contiguous shard order — a row's first-occurrence shard must
// be visited first. Striped ingest breaks that precondition on purpose:
// batches land on stripes by sequence number and apply in whatever order
// workers finish, so no stripe holds a contiguous run. SeqProfile and
// SeqCallGraph make the apply order irrelevant instead: every row/arc
// remembers the (batch sequence, within-batch insertion index) of its
// first occurrence, minimised across folds, and ordered() rebuilds the
// exact serial first-occurrence insertion order by sorting on that pair.
// Any batch→stripe assignment, any stripe count and any apply interleaving
// therefore render byte-identically to the serial aggregate — the
// online/offline identity anchor survives without a reorder buffer.
//
// RowMemo is the batched-interning half of the same hot path: within one
// batch (or resolve shard), repeated symbols are bumped through a cached
// row index keyed on the resolution's stable identity, skipping
// Profile::add's per-sample name hashing; the shared table is touched
// once per distinct row per batch, not once per sample.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/callgraph.hpp"
#include "core/report.hpp"
#include "core/resolver.hpp"
#include "core/row_index.hpp"
#include "core/sample_log.hpp"
#include "hw/event.hpp"

namespace viprof::core {

/// A Profile accumulator whose rows carry first-occurrence (seq, idx)
/// provenance. fold(seq, partial) folds one batch partial produced under
/// sequence number `seq`; fold(other) combines two accumulators (cross-
/// stripe merge at query time). ordered() renders back to a Profile in
/// recovered serial order.
class SeqProfile {
 public:
  void fold(std::uint64_t seq, const Profile& partial);
  void fold(const SeqProfile& other);

  /// The serial-order Profile: rows sorted by (seq, idx) and re-added, so
  /// row order, totals and domains match the sequential aggregate byte for
  /// byte.
  Profile ordered() const;

  bool empty() const { return rows_.empty(); }
  std::size_t row_count() const { return rows_.size(); }

 private:
  struct SeqRow {
    ProfileRow row;
    std::uint64_t seq = 0;  // batch sequence of the first occurrence
    std::uint32_t idx = 0;  // insertion index within that batch
  };

  void fold_row(const ProfileRow& src, std::uint64_t hash, std::uint64_t seq,
                std::uint32_t idx);

  std::vector<SeqRow> rows_;
  /// (image, symbol) -> index into rows_, hashed as in Profile.
  RowIndex index_;
};

/// CallGraph counterpart: arcs carry (seq, idx) provenance; ordered()
/// rebuilds serial arc insertion order (and total_samples) exactly.
class SeqCallGraph {
 public:
  void fold(std::uint64_t seq, const CallGraph& partial);
  void fold(const SeqCallGraph& other);

  CallGraph ordered() const;

  bool empty() const { return arcs_.empty(); }

 private:
  struct SeqArc {
    CallArc arc;
    std::uint64_t seq = 0;
    std::uint32_t idx = 0;
  };

  void fold_arc(const CallArc& src, std::uint64_t hash, std::uint64_t seq,
                std::uint32_t idx);

  std::vector<SeqArc> arcs_;
  /// The four endpoint names -> index into arcs_, hashed as in CallGraph.
  RowIndex index_;
};

/// Per-batch (or per-shard) memo from a resolution's stable identity —
/// (domain, pid, sample epoch, symbol_base) — to its interned row index in
/// one target Profile. Only resolutions with symbol_size != 0 are
/// memoised: the unresolved degradation bins all report base 0, so they
/// always take the exact add() path. A memo is valid for exactly one
/// Profile and one batch; start a fresh one per batch.
class RowMemo {
 public:
  void add(Profile& out, hw::EventKind event, hw::Pid pid, std::uint64_t epoch,
           const Resolution& res, std::uint64_t count = 1) {
    if (res.symbol_size == 0) {
      out.add(event, res, count);
      return;
    }
    const Key key{res.symbol_base, epoch, pid, static_cast<std::uint8_t>(res.domain)};
    const auto [it, inserted] = map_.try_emplace(key, 0);
    if (inserted) it->second = out.row_index(res);
    out.bump(it->second, event, count);
  }

  void clear() { map_.clear(); }

 private:
  struct Key {
    hw::Address base = 0;
    std::uint64_t epoch = 0;
    hw::Pid pid = 0;
    std::uint8_t domain = 0;

    bool operator==(const Key& o) const {
      return base == o.base && epoch == o.epoch && pid == o.pid && domain == o.domain;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::uint64_t h = k.base * 0x9e3779b97f4a7c15ull;
      h ^= (k.epoch + 0x7f4a7c15u) * 0xc2b2ae3d27d4eb4full;
      h ^= (static_cast<std::uint64_t>(k.pid) << 8 | k.domain) * 0x165667b19e3779f9ull;
      h ^= h >> 29;
      return static_cast<std::size_t>(h);
    }
  };

  std::unordered_map<Key, std::size_t, KeyHash> map_;
};

}  // namespace viprof::core
