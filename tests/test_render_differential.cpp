// Differential tests for the render path (DESIGN.md §9). support::fixed,
// support::TextTable and memprof::render_memprof are diffed byte for byte
// against the verbatim snprintf / vector-of-strings / std::map +
// stable_sort versions kept in render_oracle.hpp:
//
//   * fixed() over seeded values: ties at the fourth decimal, 0, -0.0, 100,
//     negatives, random finite bit patterns, NaN and infinities, for
//     decimals 0..6;
//   * TextTable over seeded tables whose cells include numeric-looking
//     text ("1e5", "-", "+", "12.5%"), empty cells, short rows and rows
//     longer than the header, built with add_row and with the cell
//     appenders;
//   * render_memprof over tie-heavy site tables (equal misses, equal bytes,
//     empty and shared names, several pids per site) at top_n 0, 1, k, n,
//     n + 1 and SIZE_MAX.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "core/object_map.hpp"
#include "core/report.hpp"
#include "memprof/report.hpp"
#include "memprof/resolve.hpp"
#include "memprof/site_table.hpp"
#include "render_oracle.hpp"
#include "support/format.hpp"
#include "support/rng.hpp"

namespace viprof {
namespace {

constexpr std::uint64_t kSeeds = 6;

// ------------------------------------------------------------------ fixed

std::vector<double> fixed_inputs(support::Xoshiro256& rng) {
  std::vector<double> out = {0.0,  -0.0,   100.0,   -100.0, 1.0,     0.5,     -0.5,
                             1.5,  2.5,    0.00005, 0.00015, 99.99995, 12.34565, -3.14159,
                             1e-9, -1e-9,  1e20,    -1e40,   4503599627370496.5};
  for (int i = 0; i < 2000; ++i) {
    // Ties at the fourth decimal: k / 10^4 + 5 / 10^5, as a percentage
    // column sees them, and their negatives.
    const double tie = static_cast<double>(rng.below(1'000'000)) / 1e4 + 0.00005;
    out.push_back(tie);
    out.push_back(-tie);
    // A share of a total: what every report column prints.
    const std::uint64_t total = 1 + rng.below(100'000);
    out.push_back(100.0 * static_cast<double>(rng.below(total + 1)) /
                  static_cast<double>(total));
    // Random bit patterns, kept where the oracle's 64-byte buffer holds
    // every digit (below 1e50).
    const double bits = std::bit_cast<double>(rng());
    if (std::isfinite(bits) && std::fabs(bits) < 1e50) out.push_back(bits);
  }
  return out;
}

TEST(RenderDifferential, FixedMatchesSnprintf) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    support::Xoshiro256 rng(seed);
    for (const double v : fixed_inputs(rng)) {
      for (int d = 0; d <= 6; ++d) {
        ASSERT_EQ(support::fixed(v, d), oracle::fixed(v, d))
            << "value " << std::bit_cast<std::uint64_t>(v) << " decimals " << d;
      }
    }
  }
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         -std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()})
    for (int d = 0; d <= 6; ++d) EXPECT_EQ(support::fixed(v, d), oracle::fixed(v, d));
}

TEST(RenderDifferential, FixedPrintsEveryDigitOfHugeValues) {
  // The one intended difference: the old 64-byte buffer cut these off.
  for (const double v : {1e59, -1e300, std::numeric_limits<double>::max()}) {
    for (int d : {0, 4, 70}) {
      std::vector<char> buf(400 + static_cast<std::size_t>(d));
      const int n = std::snprintf(buf.data(), buf.size(), "%.*f", d, v);
      EXPECT_EQ(support::fixed(v, d), std::string(buf.data(), static_cast<std::size_t>(n)));
    }
  }
}

TEST(RenderDifferential, AppendFixedAppends) {
  std::string out = "pct=";
  support::append_fixed(out, 12.34565, 4);
  out += '%';
  EXPECT_EQ(out, "pct=" + oracle::fixed(12.34565, 4) + "%");
}

// -------------------------------------------------------------- TextTable

const std::vector<std::string>& cell_pool() {
  static const std::vector<std::string> pool = {
      "",       "1e5",        "-",     "+",         "%",       "12.5%",   "0",
      "-3",     "+7",         "1.5",   "100.0000",  "e",       "1-2",     "abc",
      "a b",    "RVM.map",    "x",     "->",        "nan",     "inf",     "1e5x",
      "0x1f",   "libc.so.6",  "com.example.workload.Parser12.process", "Time %",
      "site#3", "JIT.App:m1", "--",    "..",        "99999999999999999999"};
  return pool;
}

std::vector<std::string> random_cells(support::Xoshiro256& rng, std::size_t n) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(cell_pool()[rng.below(cell_pool().size())]);
  return out;
}

TEST(RenderDifferential, TextTableMatchesVectorOfStrings) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    support::Xoshiro256 rng(seed * 17 + 1);
    const std::size_t columns = rng.below(7);  // 0..6, a header-less table too
    const std::vector<std::string> headers = random_cells(rng, columns);
    std::vector<std::string_view> header_views(headers.begin(), headers.end());
    support::TextTable got(header_views);
    oracle::TextTable want(headers);
    const std::size_t rows = rng.below(12);
    for (std::size_t r = 0; r < rows; ++r) {
      // Short rows, exact rows and rows longer than the header.
      const std::vector<std::string> cells = random_cells(rng, rng.below(columns + 3));
      got.add_row(cells);
      want.add_row(cells);
    }
    EXPECT_EQ(got.row_count(), want.row_count());
    ASSERT_EQ(got.render(), want.render()) << "seed " << seed;
  }
}

TEST(RenderDifferential, CellAppendersMatchTheirTextForms) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    support::Xoshiro256 rng(seed * 29 + 7);
    support::TextTable got({"Delta", "Count", "Pct", "Endpoint", "Name"});
    oracle::TextTable want({"Delta", "Count", "Pct", "Endpoint", "Name"});
    for (int r = 0; r < 50; ++r) {
      const auto delta = static_cast<std::int64_t>(rng.below(2001)) - 1000;
      const std::uint64_t count = rng.below(4) == 0 ? rng() : rng.below(1000);
      const double pct = static_cast<double>(rng.below(1'000'000)) / 1e4 + 0.00005;
      const std::string image = cell_pool()[rng.below(cell_pool().size())];
      const std::string symbol = cell_pool()[rng.below(cell_pool().size())];
      const std::string name = cell_pool()[rng.below(cell_pool().size())];
      got.cell_signed(delta).cell(count).cell_fixed(pct, 4).cell(image, ':', symbol);
      got.cell(name).end_row();
      want.add_row({(delta > 0 ? "+" : "") + std::to_string(delta), std::to_string(count),
                    oracle::fixed(pct, 4), image + ":" + symbol, name});
    }
    // A short row and an over-long one through the appenders.
    got.cell(std::uint64_t{5}).end_row();
    want.add_row({"5"});
    got.cell("a").cell("b").cell("c").cell("d").cell("e").cell("f").end_row();
    want.add_row({"a", "b", "c", "d", "e", "f"});
    ASSERT_EQ(got.render(), want.render()) << "seed " << seed;
  }
  EXPECT_EQ(support::TextTable({"A", "B"}).render(), oracle::TextTable({"A", "B"}).render());
}

TEST(RenderDifferential, RenderToAppends) {
  support::TextTable t({"N", "Name"});
  t.add_row({"1", "x"});
  std::string out = "head\n";
  t.render_to(out);
  EXPECT_EQ(out, "head\n" + t.render());
}

// ----------------------------------------------------------- render_memprof

struct MemprofCase {
  memprof::SiteTable sites;
  core::Profile profile;
};

core::Resolution object_row(const std::string& symbol) {
  core::Resolution r;
  r.image = memprof::kObjectImage;
  r.symbol = symbol;
  return r;
}

/// Sites across three pids with few distinct sizes and miss counts, so
/// the rank leans on its tie rules; some names are empty, some shared.
MemprofCase memprof_case(support::Xoshiro256& rng) {
  MemprofCase c;
  const std::uint32_t sites = 1 + static_cast<std::uint32_t>(rng.below(30));
  std::uint64_t obj_id = 1;
  for (const hw::Pid pid : {3u, 5u, 8u}) {
    if (rng.below(4) == 0) continue;
    core::ObjectMapFile file;
    file.epoch = 1;
    for (std::uint32_t s = 0; s < sites; ++s) {
      if (rng.below(3) == 0) continue;
      const std::uint64_t pick = rng.below(4);
      const std::string name = pick == 0   ? ""
                               : pick == 1 ? "shared.Alloc.site"
                                           : "pid" + std::to_string(pid) + ".Site" +
                                                 std::to_string(s);
      file.sites.push_back({s, support::Name(name)});
      for (std::uint64_t o = rng.below(3); o > 0; --o) {
        file.objects.push_back({0x1000 * obj_id, 16 * (1 + rng.below(2)), obj_id, s});
        if (rng.below(3) == 0) file.dead.push_back({obj_id, 16, s});
        ++obj_id;
      }
    }
    c.sites.ingest(pid, file);
  }
  for (std::uint32_t s = 0; s < sites + 2; ++s)  // +2: rows for sites with no table entry
    for (std::uint64_t m = rng.below(3); m > 0; --m)
      c.profile.add(hw::EventKind::kObjDmiss, object_row(core::site_symbol(s)));
  for (const char* bin : {memprof::kUnresolvedObjNoMap, memprof::kUnresolvedObjUntracked})
    if (rng.below(2) == 0) c.profile.add(hw::EventKind::kObjDmiss, object_row(bin), 3);
  return c;
}

TEST(RenderDifferential, RenderMemprofMatchesStableSortAtEveryTopN) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    support::Xoshiro256 rng(seed * 41 + 9);
    const MemprofCase c = memprof_case(rng);
    const std::size_t n = c.sites.sites().size();
    std::set<std::size_t> top_ns = {0, 1, n, n + 1, std::numeric_limits<std::size_t>::max()};
    if (n > 0) top_ns.insert(1 + rng.below(n));
    for (const std::size_t top : top_ns) {
      ASSERT_EQ(memprof::render_memprof(c.sites, c.profile, top),
                oracle::render_memprof(c.sites, c.profile, top))
          << "seed " << seed << " top " << top;
    }
  }
  // No sites, no samples.
  EXPECT_EQ(memprof::render_memprof({}, {}, 10), oracle::render_memprof({}, {}, 10));
}

}  // namespace
}  // namespace viprof
