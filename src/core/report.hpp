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

/// One (image, symbol) row. The names are interned ids, so a row is a
/// plain 64-byte value: copying a Profile copies no string.
struct ProfileRow {
  support::Name image;
  support::Name symbol;
  SampleDomain domain = SampleDomain::kUnknown;
  std::uint64_t counts[hw::kEventKindCount] = {};

  std::uint64_t count(hw::EventKind e) const { return counts[hw::event_index(e)]; }
};

/// The report's event columns, time and Dmiss (paper Fig. 1): what
/// viprof_report prints and what a query renders without --event.
inline const std::vector<hw::EventKind> kReportEvents = {
    hw::EventKind::kGlobalPowerEvents, hw::EventKind::kBsqCacheReference};

/// Column header the paper uses for each event.
const char* event_column_title(hw::EventKind event);

/// Aggregation is hash-based: RowIndex maps the (image, symbol) name ids to
/// a row, so add() is O(1) amortised and hashes two integers, and find(),
/// add() and the merge of an already-present row allocate nothing. Every
/// ranking (ranked(), render(),
/// render_diff()) is ordered by count descending, ties by (image, symbol)
/// ascending; render() and render_diff() only partially sort, up to their
/// top_n. A row that arrives with two domains keeps the lower SampleDomain.
/// Together these make every fold commutative: profiles merged in any
/// order, or built from samples in any order, rank and render the same
/// bytes. Only rows() exposes the (insertion) order of the rows.
class Profile {
 public:
  void add(hw::EventKind event, const Resolution& res, std::uint64_t count = 1);

  /// Adds every row and total of `other` into this profile. Into an empty
  /// profile, merge adopts `other` whole — copied, or moved from an rvalue.
  void merge(const Profile& other);
  void merge(Profile&& other);

  std::uint64_t total(hw::EventKind event) const {
    return totals_[hw::event_index(event)];
  }

  double percent(const ProfileRow& row, hw::EventKind event) const;

  /// Rows sorted by the count of `primary` (descending), ties by
  /// (image, symbol).
  std::vector<ProfileRow> ranked(hw::EventKind primary) const;

  /// Sum of counts of `event` over rows in `domain`.
  std::uint64_t domain_total(SampleDomain domain, hw::EventKind event) const;

  /// Row for an exact (image, symbol), if present. The text overload
  /// looks the names up without interning them: a name never seen finds
  /// nothing and leaves the interner as it was.
  const ProfileRow* find(support::Name image, support::Name symbol) const;
  const ProfileRow* find(std::string_view image, std::string_view symbol) const;

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

  std::size_t row_slot(std::uint64_t hash, support::Name image, support::Name symbol,
                       SampleDomain domain);
  /// Row positions of the first `top_n` rows in ranked(primary) order.
  std::vector<std::uint32_t> rank(hw::EventKind primary, std::size_t top_n) const;
  const ProfileRow* find_hashed(std::uint64_t hash, support::Name image,
                                support::Name symbol) const;

  std::vector<ProfileRow> rows_;
  /// (image, symbol) -> index into rows_.
  RowIndex index_;
  std::uint64_t totals_[hw::kEventKindCount] = {};
};

/// Regression table between two profiles: rows whose `event` count changed,
/// ranked by |delta| descending, ties by (image, symbol). Used by the
/// service snapshot diff and the store's window-vs-window queries.
std::string render_diff(const Profile& before, const Profile& after,
                        hw::EventKind event, std::size_t top_n);

}  // namespace viprof::core
