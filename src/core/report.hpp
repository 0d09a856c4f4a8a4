// opreport-style aggregation and rendering (paper Fig. 1).
//
// Aggregates resolved samples into (image, symbol) rows with per-event
// counts, computes percentages against each event's total, and renders the
// fixed-width table the paper shows:
//
//   Time %  Dmiss %  Image name  Symbol name
//   13.01   0.56     RVM.map     com.ibm.jikesrvm...getOsrPrologueLength
//   ...
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/resolver.hpp"
#include "core/row_index.hpp"
#include "hw/event.hpp"

namespace viprof::core {

struct ProfileRow {
  std::string image;
  std::string symbol;
  SampleDomain domain = SampleDomain::kUnknown;
  std::uint64_t counts[hw::kEventKindCount] = {};

  std::uint64_t count(hw::EventKind e) const { return counts[hw::event_index(e)]; }
};

/// Column header the paper uses for each event.
const char* event_column_title(hw::EventKind event);

/// Aggregation is hash-based: rows_ holds the rows in first-insertion
/// order and a string-free RowIndex maps (image, symbol) to a row, so add()
/// is O(1) amortised, and find() and the merge of an already-present row
/// allocate nothing. Every ranking (ranked(), render(), render_diff()) is
/// ordered by count descending, ties in first-insertion order; render()
/// and render_diff() only partially sort, up to their top_n.
class Profile {
 public:
  void add(hw::EventKind event, const Resolution& res, std::uint64_t count = 1);

  /// Adds every row and total of `other` into this profile. Merging
  /// per-shard profiles in shard order reproduces the serial profile
  /// exactly (row order included): a row's first-occurrence shard is the
  /// shard of its globally first sample. Into an empty profile, merge
  /// adopts `other` whole — copied, or moved from an rvalue.
  void merge(const Profile& other);
  void merge(Profile&& other);

  /// Folds one finished row — all its counts, into the row and the totals —
  /// in a single lookup. `hash` must be row_hash(row.image, row.symbol);
  /// a new row takes `row.domain`. Used by the striped aggregator's order
  /// recovery (SeqProfile::ordered).
  void add_row(const ProfileRow& row, std::uint64_t hash);

  std::uint64_t total(hw::EventKind event) const {
    return totals_[hw::event_index(event)];
  }

  double percent(const ProfileRow& row, hw::EventKind event) const;

  /// Rows sorted by the count of `primary` (descending), ties in
  /// first-insertion order.
  std::vector<ProfileRow> ranked(hw::EventKind primary) const;

  /// Sum of counts of `event` over rows in `domain`.
  std::uint64_t domain_total(SampleDomain domain, hw::EventKind event) const;

  /// Row for an exact (image, symbol), if present.
  const ProfileRow* find(std::string_view image, std::string_view symbol) const;

  /// Interning API for hot aggregation loops (service ingest, resolve
  /// shards): intern the row slot once, then bump() repeats without
  /// hashing the row's names per sample. Indices stay valid across later
  /// add()s (rows are never removed). bump() maintains totals exactly as
  /// add() does: row_index() + bump() == add().
  std::size_t row_index(const Resolution& res);
  void bump(std::size_t row, hw::EventKind event, std::uint64_t count = 1) {
    totals_[hw::event_index(event)] += count;
    rows_[row].counts[hw::event_index(event)] += count;
  }

  /// Fig. 1-style report: one percentage column per event in `events`,
  /// then image and symbol names; top `top_n` rows by the first event.
  std::string render(const std::vector<hw::EventKind>& events, std::size_t top_n) const;

  std::size_t row_count() const { return rows_.size(); }
  const std::vector<ProfileRow>& rows() const { return rows_; }

  /// row_hash() of row `row`, cached at insertion: lets a fold of this
  /// profile into another skip rehashing the row's names.
  std::uint64_t row_hash_of(std::size_t row) const {
    return index_.hash(static_cast<std::uint32_t>(row));
  }

 private:
  friend std::string render_diff(const Profile&, const Profile&, hw::EventKind,
                                 std::size_t);

  std::size_t row_slot(std::uint64_t hash, std::string_view image,
                       std::string_view symbol, SampleDomain domain);
  const ProfileRow* find_hashed(std::uint64_t hash, std::string_view image,
                                std::string_view symbol) const;

  std::vector<ProfileRow> rows_;
  /// (image, symbol) -> index into rows_.
  RowIndex index_;
  std::uint64_t totals_[hw::kEventKindCount] = {};
};

/// Regression table between two profiles: rows whose `event` count changed,
/// ranked by |delta| descending (ties keep `after`-then-`before` row order,
/// so equally-built profiles render byte-identically). Used by the service
/// snapshot diff and the store's window-vs-window queries.
std::string render_diff(const Profile& before, const Profile& after,
                        hw::EventKind event, std::size_t top_n);

}  // namespace viprof::core
