// Differential test for the bounded top-N rank (DESIGN.md §9). The oracles
// below rank with a full std::sort under the canonical order — count
// descending, ties by (image, symbol) for profile rows and diff movers and
// by the four endpoint names for arcs; on seeded profiles and call graphs
// with heavy count ties, zero counts and before-only diff rows, every
// top_n from 0 to SIZE_MAX must render byte-equal to them. The oracles
// print through the verbatim pre-to_chars fixed() and TextTable of
// render_oracle.hpp, so they share no code with the renders they check.
// merge(Profile&&) must equal merge(const Profile&).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "core/callgraph.hpp"
#include "core/report.hpp"
#include "render_oracle.hpp"
#include "support/rng.hpp"

namespace viprof::core {
namespace {

constexpr auto kTime = hw::EventKind::kGlobalPowerEvents;
constexpr auto kDmiss = hw::EventKind::kBsqCacheReference;

// ---------------------------------------------------------------- oracles

// The oracles compare name text directly, not through support::Name.
std::tuple<std::string_view, std::string_view> names(const ProfileRow& r) {
  return {r.image.view(), r.symbol.view()};
}

std::tuple<std::string_view, std::string_view, std::string_view, std::string_view> names(
    const CallArc& a) {
  return {a.caller_image.view(), a.caller_symbol.view(), a.callee_image.view(),
          a.callee_symbol.view()};
}

std::vector<ProfileRow> oracle_ranked(const Profile& p, hw::EventKind primary) {
  std::vector<ProfileRow> out = p.rows();
  std::sort(out.begin(), out.end(), [&](const ProfileRow& a, const ProfileRow& b) {
    if (a.count(primary) != b.count(primary)) return a.count(primary) > b.count(primary);
    return names(a) < names(b);
  });
  return out;
}

std::string oracle_render(const Profile& p, const std::vector<hw::EventKind>& events,
                          std::size_t top_n) {
  std::vector<std::string> headers;
  for (hw::EventKind e : events) headers.push_back(event_column_title(e));
  headers.push_back("Image name");
  headers.push_back("Symbol name");
  oracle::TextTable table(std::move(headers));

  const auto rows =
      oracle_ranked(p, events.empty() ? hw::EventKind::kGlobalPowerEvents : events[0]);
  std::size_t emitted = 0;
  for (const ProfileRow& row : rows) {
    if (emitted >= top_n) break;
    std::vector<std::string> cells;
    for (hw::EventKind e : events) cells.push_back(oracle::fixed(p.percent(row, e), 4));
    cells.push_back(row.image.str());
    cells.push_back(row.symbol.str());
    table.add_row(std::move(cells));
    ++emitted;
  }
  return table.render();
}

std::string oracle_render_diff(const Profile& before, const Profile& after,
                               hw::EventKind event, std::size_t top_n) {
  struct Mover {
    std::int64_t delta;
    std::uint64_t from, to;
    const ProfileRow* row;
  };
  std::vector<Mover> movers;
  for (const ProfileRow& row : after.rows()) {
    const ProfileRow* prev = before.find(row.image, row.symbol);
    const std::uint64_t from = prev ? prev->count(event) : 0;
    const std::uint64_t to = row.count(event);
    if (from != to)
      movers.push_back({static_cast<std::int64_t>(to) - static_cast<std::int64_t>(from),
                        from, to, &row});
  }
  for (const ProfileRow& row : before.rows()) {
    if (after.find(row.image, row.symbol) != nullptr) continue;
    const std::uint64_t from = row.count(event);
    if (from != 0)
      movers.push_back({-static_cast<std::int64_t>(from), from, 0, &row});
  }
  std::sort(movers.begin(), movers.end(), [](const Mover& x, const Mover& y) {
    const std::int64_t ax = x.delta < 0 ? -x.delta : x.delta;
    const std::int64_t ay = y.delta < 0 ? -y.delta : y.delta;
    if (ax != ay) return ax > ay;
    return names(*x.row) < names(*y.row);
  });

  oracle::TextTable table({"Delta", "Before", "After", "Image", "Symbol"});
  std::size_t emitted = 0;
  for (const Mover& m : movers) {
    if (emitted++ >= top_n) break;
    table.add_row({(m.delta > 0 ? "+" : "") + std::to_string(m.delta),
                   std::to_string(m.from), std::to_string(m.to), m.row->image.str(),
                   m.row->symbol.str()});
  }
  return table.render();
}

std::vector<CallArc> oracle_arcs_ranked(const CallGraph& g) {
  std::vector<CallArc> out = g.arcs();
  std::sort(out.begin(), out.end(), [](const CallArc& a, const CallArc& b) {
    if (a.count != b.count) return a.count > b.count;
    return names(a) < names(b);
  });
  return out;
}

std::string oracle_callgraph_render(const CallGraph& g, std::size_t top_n) {
  oracle::TextTable table({"Samples", "Caller", "->", "Callee"});
  std::size_t emitted = 0;
  for (const CallArc& arc : oracle_arcs_ranked(g)) {
    if (emitted >= top_n) break;
    table.add_row({std::to_string(arc.count),
                   arc.caller_image.str() + ":" + arc.caller_symbol.str(), "->",
                   arc.callee_image.str() + ":" + arc.callee_symbol.str()});
    ++emitted;
  }
  return table.render();
}

// ----------------------------------------------------------------- inputs

Resolution res(std::uint64_t image, std::uint64_t symbol, SampleDomain domain) {
  Resolution r;
  r.image = "img" + std::to_string(image);
  r.symbol = "com.example.Class" + std::to_string(symbol) + ".method";
  r.domain = domain;
  return r;
}

SampleDomain domain_of(support::Xoshiro256& rng) {
  return static_cast<SampleDomain>(rng.below(5));
}

/// `adds` samples over a `symbols`-row pool with counts in [0, 3]: many
/// rows tie, some are created with a zero count and stay at zero.
Profile random_profile(support::Xoshiro256& rng, std::size_t adds, std::uint64_t symbols) {
  Profile p;
  for (std::size_t i = 0; i < adds; ++i) {
    const hw::EventKind event = rng.below(3) == 0 ? kDmiss : kTime;
    p.add(event, res(rng.below(3), rng.below(symbols), domain_of(rng)), rng.below(4));
  }
  return p;
}

CallGraph random_graph(support::Xoshiro256& rng, std::size_t adds, std::uint64_t symbols) {
  CallGraph g;
  for (std::size_t i = 0; i < adds; ++i)
    g.add_resolved(res(rng.below(2), rng.below(symbols), domain_of(rng)),
                   res(rng.below(2), rng.below(symbols), domain_of(rng)), rng.below(4));
  return g;
}

/// 0, 1, k, n-1, n, n+1 and SIZE_MAX for a table of `n` candidate rows.
std::set<std::size_t> top_ns(std::size_t n, support::Xoshiro256& rng) {
  std::set<std::size_t> out = {0, 1, n, n + 1, std::numeric_limits<std::size_t>::max()};
  if (n > 0) {
    out.insert(n - 1);
    out.insert(1 + rng.below(n));
  }
  return out;
}

void expect_same_rows(const std::vector<ProfileRow>& a, const std::vector<ProfileRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].image, b[i].image) << "row " << i;
    EXPECT_EQ(a[i].symbol, b[i].symbol) << "row " << i;
    EXPECT_EQ(a[i].domain, b[i].domain) << "row " << i;
    EXPECT_TRUE(std::equal(std::begin(a[i].counts), std::end(a[i].counts),
                           std::begin(b[i].counts)))
        << "row " << i;
  }
}

void expect_same_profile(const Profile& a, const Profile& b) {
  expect_same_rows(a.rows(), b.rows());
  for (hw::EventKind e : hw::kAllEventKinds) EXPECT_EQ(a.total(e), b.total(e));
  for (const ProfileRow& row : a.rows()) {
    const ProfileRow* hit = b.find(row.image, row.symbol);
    ASSERT_NE(hit, nullptr) << row.image << " " << row.symbol;
    EXPECT_EQ(hit->symbol, row.symbol);
  }
}

// ------------------------------------------------------------------ tests

TEST(RankDifferential, ProfileRankedAndRenderMatchCanonicalSort) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    support::Xoshiro256 rng(seed);
    const Profile p = random_profile(rng, 10 + rng.below(200), 1 + rng.below(60));
    for (hw::EventKind primary : {kTime, kDmiss})
      expect_same_rows(p.ranked(primary), oracle_ranked(p, primary));
    for (const std::vector<hw::EventKind>& events :
         {std::vector<hw::EventKind>{kTime, kDmiss}, std::vector<hw::EventKind>{kDmiss},
          std::vector<hw::EventKind>{}}) {
      for (std::size_t top : top_ns(p.row_count(), rng))
        EXPECT_EQ(p.render(events, top), oracle_render(p, events, top))
            << "seed " << seed << " top " << top;
    }
  }
}

TEST(RankDifferential, EmptyProfileRendersHeaderOnly) {
  const Profile p;
  for (std::size_t top : {std::size_t{0}, std::size_t{1},
                          std::numeric_limits<std::size_t>::max()}) {
    EXPECT_EQ(p.render({kTime, kDmiss}, top), oracle_render(p, {kTime, kDmiss}, top));
    EXPECT_EQ(render_diff(p, p, kTime, top), oracle_render_diff(p, p, kTime, top));
  }
  EXPECT_TRUE(p.ranked(kTime).empty());
}

TEST(RankDifferential, RenderDiffMatchesCanonicalSort) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    support::Xoshiro256 rng(seed * 7 + 3);
    const std::uint64_t symbols = 1 + rng.below(50);
    // Overlapping but different pools: rows only `before` has, rows only
    // `after` has, and shared rows whose counts often tie or stay equal.
    Profile before = random_profile(rng, rng.below(150), symbols);
    Profile after = random_profile(rng, rng.below(150), symbols + rng.below(10));
    if (seed % 5 == 0) before.add(kTime, res(9, 9, SampleDomain::kKernel), 0);
    const std::size_t n = before.row_count() + after.row_count();
    for (hw::EventKind event : {kTime, kDmiss}) {
      for (std::size_t top : top_ns(n, rng)) {
        EXPECT_EQ(render_diff(before, after, event, top),
                  oracle_render_diff(before, after, event, top))
            << "seed " << seed << " top " << top;
        EXPECT_EQ(render_diff(after, before, event, top),
                  oracle_render_diff(after, before, event, top))
            << "seed " << seed << " top " << top << " (swapped)";
      }
    }
  }
}

TEST(RankDifferential, CallGraphRankedAndRenderMatchCanonicalSort) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    support::Xoshiro256 rng(seed * 13 + 1);
    const CallGraph g = random_graph(rng, rng.below(250), 1 + rng.below(12));
    const std::vector<CallArc> got = g.ranked();
    const std::vector<CallArc> want = oracle_arcs_ranked(g);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(std::tie(got[i].caller_image, got[i].caller_symbol, got[i].callee_image,
                         got[i].callee_symbol),
                std::tie(want[i].caller_image, want[i].caller_symbol, want[i].callee_image,
                         want[i].callee_symbol))
          << "seed " << seed << " arc " << i;
      EXPECT_EQ(got[i].caller_domain, want[i].caller_domain);
      EXPECT_EQ(got[i].callee_domain, want[i].callee_domain);
      EXPECT_EQ(got[i].count, want[i].count);
    }
    for (std::size_t top : top_ns(g.arcs().size(), rng))
      EXPECT_EQ(g.render(top), oracle_callgraph_render(g, top))
          << "seed " << seed << " top " << top;
  }
}

TEST(RankDifferential, MoveMergeEqualsCopyMerge) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    support::Xoshiro256 rng(seed * 31 + 5);
    const std::uint64_t symbols = 1 + rng.below(40);
    // Targets: empty, and non-empty with rows shared with and distinct
    // from the source.
    for (const Profile& target :
         {Profile{}, random_profile(rng, 1 + rng.below(80), symbols)}) {
      const Profile source = random_profile(rng, rng.below(120), symbols + 5);
      Profile by_copy = target;
      by_copy.merge(source);
      Profile by_move = target;
      Profile donor = source;
      by_move.merge(std::move(donor));
      expect_same_profile(by_move, by_copy);
      EXPECT_EQ(by_move.render({kTime, kDmiss}, 1000),
                by_copy.render({kTime, kDmiss}, 1000));
      // The adopted index keeps working: re-adding known rows keeps the
      // row count, a new row lands last.
      for (const ProfileRow& row : source.rows()) {
        Resolution r;
        r.image = row.image;
        r.symbol = row.symbol;
        by_move.add(kTime, r);
      }
      EXPECT_EQ(by_move.row_count(), by_copy.row_count());
      by_move.add(kTime, res(99, 99, SampleDomain::kJit));
      EXPECT_EQ(by_move.rows().back().image, "img99");
      EXPECT_EQ(by_move.row_count(), by_copy.row_count() + 1);
    }
  }
}

}  // namespace
}  // namespace viprof::core
