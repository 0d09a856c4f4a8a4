// Test oracles for the render path (DESIGN.md §9): the snprintf-based
// fixed(), the vector-of-strings TextTable and the std::map + stable_sort
// render_memprof, kept verbatim from before rendering moved to one buffer
// and std::to_chars. The differential tests diff the production code
// against these, so an oracle must never call the code it checks: nothing
// here uses support::fixed, support::TextTable or memprof::render_memprof.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/object_map.hpp"
#include "core/report.hpp"
#include "memprof/resolve.hpp"
#include "memprof/site_table.hpp"
#include "support/interner.hpp"

namespace viprof::oracle {

inline std::string fixed(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  return buf;
}

inline std::string pad_left(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return std::string(width - s.size(), ' ') + s;
}

inline std::string pad_right(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return s + std::string(width - s.size(), ' ');
}

inline bool looks_numeric(const std::string& s) {
  if (s.empty()) return false;
  bool digit_seen = false;
  for (char c : s) {
    if (std::isdigit(static_cast<unsigned char>(c))) {
      digit_seen = true;
    } else if (c != '.' && c != '-' && c != '+' && c != '%' && c != 'e') {
      return false;
    }
  }
  return digit_seen;
}

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> cells) {
    cells.resize(headers_.size());
    rows_.push_back(std::move(cells));
  }

  std::string render() const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
    for (const auto& row : rows_)
      for (std::size_t c = 0; c < row.size(); ++c)
        if (row[c].size() > widths[c]) widths[c] = row[c].size();

    std::string out;
    auto emit_row = [&](const std::vector<std::string>& row) {
      for (std::size_t c = 0; c < row.size(); ++c) {
        if (c) out += "  ";
        // Last column stays left-aligned and unpadded (symbol names can be long).
        if (c + 1 == row.size()) {
          out += row[c];
        } else if (looks_numeric(row[c])) {
          out += pad_left(row[c], widths[c]);
        } else {
          out += pad_right(row[c], widths[c]);
        }
      }
      out += '\n';
    };
    emit_row(headers_);
    for (const auto& row : rows_) emit_row(row);
    return out;
  }

  std::size_t row_count() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string render_memprof(const memprof::SiteTable& sites,
                                  const core::Profile& profile, std::size_t top_n) {
  using namespace memprof;
  // Collapse (pid, site) onto the site index — object rows in the profile
  // are keyed by "site#<idx>" alone, the same way JIT.App rows collapse
  // method names across VMs. First (lowest-pid) name wins.
  struct Agg {
    std::string name;
    std::uint64_t alloc_objects = 0, alloc_bytes = 0;
    std::uint64_t dead_objects = 0, dead_bytes = 0;
  };
  std::map<std::uint32_t, Agg> by_site;
  for (const auto& [key, stats] : sites.sites()) {
    Agg& agg = by_site[key.second];
    if (agg.name.empty()) agg.name = stats.name;
    agg.alloc_objects += stats.alloc_objects;
    agg.alloc_bytes += stats.alloc_bytes;
    agg.dead_objects += stats.dead_objects;
    agg.dead_bytes += stats.dead_bytes;
  }

  struct Row {
    std::uint32_t site;
    std::uint64_t misses;
    const Agg* agg;
  };
  std::vector<Row> rows;
  rows.reserve(by_site.size());
  // Names are looked up, never interned: a name no row carries has no id.
  const auto object_image = support::Name::lookup(kObjectImage);
  for (const auto& [site, agg] : by_site) {
    const auto symbol = object_image ? support::Name::lookup(core::site_symbol(site))
                                     : std::nullopt;
    const core::ProfileRow* pr = symbol ? profile.find(*object_image, *symbol) : nullptr;
    rows.push_back({site, pr ? pr->count(hw::EventKind::kObjDmiss) : 0, &agg});
  }
  std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.misses != b.misses) return a.misses > b.misses;
    if (a.agg->alloc_bytes != b.agg->alloc_bytes)
      return a.agg->alloc_bytes > b.agg->alloc_bytes;
    return a.site < b.site;
  });

  const std::uint64_t total = profile.total(hw::EventKind::kObjDmiss);
  TextTable table({"Dmiss %", "Samples", "Alloc B", "Live B", "Objects",
                   "Ineff B/miss", "Allocation site"});
  std::size_t emitted = 0;
  for (const Row& r : rows) {
    if (emitted >= top_n) break;
    const double pct =
        total == 0 ? 0.0
                   : 100.0 * static_cast<double>(r.misses) / static_cast<double>(total);
    // Saturating: deaths charged from dead lines alone (alloc sighting in a
    // lost map) may exceed the sighted allocations.
    const std::uint64_t live_bytes =
        r.agg->alloc_bytes > r.agg->dead_bytes ? r.agg->alloc_bytes - r.agg->dead_bytes : 0;
    const std::uint64_t live_objects = r.agg->alloc_objects > r.agg->dead_objects
                                           ? r.agg->alloc_objects - r.agg->dead_objects
                                           : 0;
    // Bytes allocated per observed miss (integer): high = allocated-but-cold.
    const std::uint64_t ineff = r.agg->alloc_bytes / (1 + r.misses);
    table.add_row({fixed(pct, 4), std::to_string(r.misses),
                   std::to_string(r.agg->alloc_bytes), std::to_string(live_bytes),
                   std::to_string(live_objects), std::to_string(ineff), r.agg->name});
    ++emitted;
  }

  std::string out = table.render();
  out += "\n";
  const auto bin = [&](const char* symbol) -> std::uint64_t {
    const core::ProfileRow* row = profile.find(kObjectImage, symbol);
    return row ? row->count(hw::EventKind::kObjDmiss) : 0;
  };
  out += "degradation: no_map " + std::to_string(bin(kUnresolvedObjNoMap)) +
         ", truncated " + std::to_string(bin(kUnresolvedObjTruncated)) +
         ", untracked " + std::to_string(bin(kUnresolvedObjUntracked)) + " of " +
         std::to_string(total) + " samples\n";
  out += "object maps: " + std::to_string(sites.maps_ingested()) + " ingested, " +
         std::to_string(sites.maps_truncated()) + " truncated\n";
  return out;
}

}  // namespace viprof::oracle
