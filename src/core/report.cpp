#include "core/report.hpp"

#include <tuple>

#include "support/format.hpp"

namespace viprof::core {

const char* event_column_title(hw::EventKind event) {
  switch (event) {
    case hw::EventKind::kGlobalPowerEvents: return "Time %";
    case hw::EventKind::kBsqCacheReference: return "Dmiss %";
    case hw::EventKind::kInstrRetired:      return "Instr %";
    case hw::EventKind::kItlbMiss:          return "ITLB %";
    case hw::EventKind::kBranchMispredict:  return "BrMiss %";
    case hw::EventKind::kObjDmiss:          return "ObjDmiss %";
  }
  return "?";
}

std::size_t Profile::row_slot(std::uint64_t hash, support::Name image,
                              support::Name symbol, SampleDomain domain) {
  const auto [id, inserted] = index_.intern(hash, [&](std::uint32_t i) {
    return rows_[i].image == image && rows_[i].symbol == symbol;
  });
  if (inserted) {
    ProfileRow& row = rows_.emplace_back();
    row.image = image;
    row.symbol = symbol;
    row.domain = domain;
  } else if (domain < rows_[id].domain) {
    rows_[id].domain = domain;  // the lower domain wins, in any fold order
  }
  return id;
}

const ProfileRow* Profile::find_hashed(std::uint64_t hash, support::Name image,
                                       support::Name symbol) const {
  const std::uint32_t id = index_.find(hash, [&](std::uint32_t i) {
    return rows_[i].image == image && rows_[i].symbol == symbol;
  });
  return id == RowIndex::kNone ? nullptr : &rows_[id];
}

void Profile::add(hw::EventKind event, const Resolution& res, std::uint64_t count) {
  ProfileRow& row =
      rows_[row_slot(row_hash(res.image, res.symbol), res.image, res.symbol, res.domain)];
  totals_[hw::event_index(event)] += count;
  row.counts[hw::event_index(event)] += count;
}

void Profile::merge(const Profile& other) {
  if (rows_.empty()) {
    rows_ = other.rows_;
    index_ = other.index_;
  } else {
    for (std::size_t r = 0; r < other.rows_.size(); ++r) {
      const ProfileRow& src = other.rows_[r];
      ProfileRow& dst =
          rows_[row_slot(other.row_hash_of(r), src.image, src.symbol, src.domain)];
      for (std::size_t i = 0; i < hw::kEventKindCount; ++i) dst.counts[i] += src.counts[i];
    }
  }
  for (std::size_t i = 0; i < hw::kEventKindCount; ++i) totals_[i] += other.totals_[i];
}

void Profile::merge(Profile&& other) {
  if (!rows_.empty()) return merge(static_cast<const Profile&>(other));
  rows_ = std::move(other.rows_);
  index_ = std::move(other.index_);
  for (std::size_t i = 0; i < hw::kEventKindCount; ++i) totals_[i] += other.totals_[i];
}

double Profile::percent(const ProfileRow& row, hw::EventKind event) const {
  const std::uint64_t total = totals_[hw::event_index(event)];
  if (total == 0) return 0.0;
  return 100.0 * static_cast<double>(row.count(event)) / static_cast<double>(total);
}

std::vector<std::uint32_t> Profile::rank(hw::EventKind primary, std::size_t top_n) const {
  const auto names = [&](std::size_t i) {
    return std::tie(rows_[i].image, rows_[i].symbol);
  };
  return rank_top(
      rows_.size(), top_n, [&](std::size_t i) { return rows_[i].count(primary); },
      [&](std::size_t a, std::size_t b) { return names(a) < names(b); });
}

std::vector<ProfileRow> Profile::ranked(hw::EventKind primary) const {
  std::vector<ProfileRow> out;
  out.reserve(rows_.size());
  for (const std::uint32_t r : rank(primary, rows_.size())) out.push_back(rows_[r]);
  return out;
}

std::uint64_t Profile::domain_total(SampleDomain domain, hw::EventKind event) const {
  std::uint64_t total = 0;
  for (const ProfileRow& row : rows_)
    if (row.domain == domain) total += row.count(event);
  return total;
}

const ProfileRow* Profile::find(support::Name image, support::Name symbol) const {
  return find_hashed(row_hash(image, symbol), image, symbol);
}

const ProfileRow* Profile::find(std::string_view image, std::string_view symbol) const {
  const auto image_name = support::Name::lookup(image);
  const auto symbol_name = support::Name::lookup(symbol);
  // A name never interned is in no row.
  return image_name && symbol_name ? find(*image_name, *symbol_name) : nullptr;
}

std::string Profile::render(const std::vector<hw::EventKind>& events,
                            std::size_t top_n) const {
  const hw::EventKind primary =
      events.empty() ? hw::EventKind::kGlobalPowerEvents : events[0];
  const std::vector<std::uint32_t> ranked = rank(primary, top_n);

  std::vector<std::string_view> headers;
  headers.reserve(events.size() + 2);
  for (hw::EventKind e : events) headers.push_back(event_column_title(e));
  headers.push_back("Image name");
  headers.push_back("Symbol name");
  support::TextTable table(headers, ranked.size(), 64);
  for (const std::uint32_t r : ranked) {
    const ProfileRow& row = rows_[r];
    for (hw::EventKind e : events) table.cell_fixed(percent(row, e), 4);
    table.cell(row.image.view()).cell(row.symbol.view()).end_row();
  }
  return table.render();
}

std::string render_diff(const Profile& before, const Profile& after,
                        hw::EventKind event, std::size_t top_n) {
  struct Mover {
    std::int64_t delta;
    std::uint64_t from, to;
    const ProfileRow* row;
  };
  std::vector<Mover> movers;
  for (std::size_t r = 0; r < after.rows_.size(); ++r) {
    const ProfileRow& row = after.rows_[r];
    const ProfileRow* prev = before.find_hashed(after.row_hash_of(r), row.image, row.symbol);
    const std::uint64_t from = prev ? prev->count(event) : 0;
    const std::uint64_t to = row.count(event);
    if (from != to)
      movers.push_back({static_cast<std::int64_t>(to) - static_cast<std::int64_t>(from),
                        from, to, &row});
  }
  for (std::size_t r = 0; r < before.rows_.size(); ++r) {
    const ProfileRow& row = before.rows_[r];
    if (after.find_hashed(before.row_hash_of(r), row.image, row.symbol) != nullptr)
      continue;
    const std::uint64_t from = row.count(event);
    if (from != 0)
      movers.push_back({-static_cast<std::int64_t>(from), from, 0, &row});
  }

  support::TextTable table({"Delta", "Before", "After", "Image", "Symbol"});
  const auto magnitude = [&](std::size_t i) {
    const std::int64_t d = movers[i].delta;
    return static_cast<std::uint64_t>(d < 0 ? -d : d);
  };
  // Every mover is a distinct (image, symbol), so the tie rule is total.
  const auto names = [&](std::size_t i) {
    return std::tie(movers[i].row->image, movers[i].row->symbol);
  };
  for (const std::uint32_t m :
       rank_top(movers.size(), top_n, magnitude,
                [&](std::size_t a, std::size_t b) { return names(a) < names(b); })) {
    const Mover& mv = movers[m];
    table.cell_signed(mv.delta).cell(mv.from).cell(mv.to);
    table.cell(mv.row->image.view()).cell(mv.row->symbol.view()).end_row();
  }
  return table.render();
}

}  // namespace viprof::core
