// Edge cases and a seeded property test for core::RowIndex, the
// string-free row index behind Profile and CallGraph (DESIGN.md §9). The
// reference models below intern through a std::map keyed on the names
// themselves; row order, counts, totals and domains must match them
// exactly, and a shuffled fold must match them row for row.
#include "core/row_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "core/callgraph.hpp"
#include "core/report.hpp"
#include "support/rng.hpp"

namespace viprof::core {
namespace {

constexpr auto kTime = hw::EventKind::kGlobalPowerEvents;
constexpr auto kDmiss = hw::EventKind::kBsqCacheReference;

Resolution res(std::string image, std::string symbol,
               SampleDomain domain = SampleDomain::kImage) {
  Resolution r;
  r.image = std::move(image);
  r.symbol = std::move(symbol);
  r.domain = domain;
  return r;
}

// ------------------------------------------------------------ edge cases

TEST(RowIndex, NamesTheOldSeparatorJoinedStayDistinct) {
  Profile p;
  p.add(kTime, res("ab", "c"));
  p.add(kTime, res("a", "bc"));
  p.add(kTime, res("abc", ""));
  p.add(kTime, res("", "abc"));
  p.add(kTime, res(std::string("a\0b", 3), "c"));
  p.add(kTime, res("a", std::string("b\0c", 3)));
  ASSERT_EQ(p.row_count(), 6u);
  EXPECT_EQ(p.find("ab", "c")->symbol, "c");
  EXPECT_EQ(p.find("a", "bc")->symbol, "bc");
  EXPECT_EQ(p.find("abc", "")->image, "abc");
  EXPECT_EQ(p.find("", "abc")->image, "");
  EXPECT_EQ(p.find("a", "b"), nullptr);
  EXPECT_EQ(p.find("", ""), nullptr);

  CallGraph g;
  g.add_resolved(res("ab", "c"), res("d", "e"));
  g.add_resolved(res("a", "bc"), res("d", "e"));
  g.add_resolved(res("a", "b"), res("cd", "e"));
  g.add_resolved(res("a", "b"), res("c", "de"));
  g.add_resolved(res("d", "e"), res("ab", "c"));  // reversed direction
  g.add_resolved(res("ab", "c"), res("d", "e"));
  ASSERT_EQ(g.total_arcs(), 5u);
  EXPECT_EQ(g.arcs()[0].count, 2u);

  Profile folded;
  Profile part;
  part.add(kTime, res("ab", "c"));
  part.add(kTime, res("a", "bc"));
  folded.merge(part);
  folded.merge(part);
  EXPECT_EQ(folded.row_count(), 2u);
}

TEST(RowIndex, EmptyImageAndSymbolAreOrdinaryNames) {
  Profile p;
  p.add(kTime, res("", ""), 3);
  p.add(kTime, res("", "x"));
  p.add(kTime, res("x", ""));
  p.add(kDmiss, res("", ""));
  ASSERT_EQ(p.row_count(), 3u);
  EXPECT_EQ(p.find("", "")->count(kTime), 3u);
  EXPECT_EQ(p.find("", "")->count(kDmiss), 1u);
  EXPECT_EQ(p.find("", "x")->count(kTime), 1u);
  EXPECT_EQ(p.find("x", "")->count(kTime), 1u);

  CallGraph g;
  g.add_resolved(res("", ""), res("", ""));
  g.add_resolved(res("", ""), res("", ""));
  g.add_resolved(res("", ""), res("", "x"));
  ASSERT_EQ(g.total_arcs(), 2u);
  EXPECT_EQ(g.arcs()[0].count, 2u);
}

TEST(RowIndex, GrowthKeepsEveryHitAndMiss) {
  Profile p;
  std::vector<std::string> symbols;
  for (std::size_t n = 0; n < 5000; ++n) {
    symbols.push_back("sym" + std::to_string(n * 7919));
    p.add(kTime, res("img", symbols.back()), n + 1);
    ASSERT_EQ(p.row_count(), n + 1);
    // Full check right after every resize (the 16-slot table grows when
    // its 13th, 25th, 49th, ... row arrives), spot checks otherwise.
    const std::size_t grown = n / 12;
    const bool resized = n % 12 == 0 && grown != 0 && (grown & (grown - 1)) == 0;
    const std::size_t from = resized ? 0 : n;
    for (std::size_t i = from; i <= n; ++i) {
      const ProfileRow* hit = p.find("img", symbols[i]);
      ASSERT_NE(hit, nullptr) << "row " << i << " after " << n + 1 << " rows";
      ASSERT_EQ(hit->count(kTime), i + 1);
    }
    ASSERT_EQ(p.find("img", "sym" + std::to_string(n * 7919 + 1)), nullptr);
    ASSERT_EQ(p.find("other", symbols[n]), nullptr);
  }
  for (std::size_t i = 0; i < symbols.size(); ++i)
    ASSERT_EQ(p.rows()[i].symbol, symbols[i]);
}

TEST(RowIndex, CollidingHashesFallBackToEquality) {
  // Every row under one hash: each probe walks the whole cluster and only
  // the owner's equality check tells rows apart.
  std::vector<std::string> keys;
  RowIndex index;
  const auto same_as = [&](const std::string& k) {
    return [&keys, &k](std::uint32_t id) { return keys[id] == k; };
  };
  for (std::uint32_t n = 0; n < 300; ++n) {
    const std::string k = "k" + std::to_string(n);
    const auto [id, inserted] = index.intern(42, same_as(k));
    ASSERT_TRUE(inserted);
    ASSERT_EQ(id, n);
    keys.push_back(k);
    const auto [again, fresh] = index.intern(42, same_as(k));
    EXPECT_FALSE(fresh);
    EXPECT_EQ(again, n);
  }
  for (std::uint32_t n = 0; n < 300; ++n) {
    EXPECT_EQ(index.find(42, same_as(keys[n])), n);
    EXPECT_EQ(index.hash(n), 42u);
  }
  const std::string absent = "absent";
  EXPECT_EQ(index.find(42, same_as(absent)), RowIndex::kNone);
  EXPECT_EQ(index.find(43, same_as(keys[0])), RowIndex::kNone);
  EXPECT_EQ(index.size(), 300u);
  EXPECT_EQ(RowIndex{}.find(42, same_as(absent)), RowIndex::kNone);
}

TEST(RowIndex, RankTopIsTheStableSortPrefix) {
  // With ties broken by position, rank_top is the stable_sort prefix; the
  // profiles pass a name rule instead, which the same code path sorts by.
  support::Xoshiro256 rng(5);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::uint64_t> keys(rng.below(60));
    for (std::uint64_t& k : keys) k = rng.below(4);
    std::vector<std::uint32_t> want(keys.size());
    for (std::uint32_t i = 0; i < want.size(); ++i) want[i] = i;
    std::stable_sort(want.begin(), want.end(),
                     [&](std::uint32_t a, std::uint32_t b) { return keys[a] > keys[b]; });
    for (std::size_t top = 0; top <= keys.size() + 1; ++top) {
      const std::vector<std::uint32_t> got =
          rank_top(keys.size(), top, [&](std::size_t i) { return keys[i]; },
                   [](std::size_t a, std::size_t b) { return a < b; });
      ASSERT_EQ(got.size(), std::min(top, keys.size()));
      EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()));
    }
  }
}

// ------------------------------------------------------ reference models

/// Profile interned through a std::map on the names: the semantics every
/// Profile must keep (first add fixes a row's position; a row keeps the
/// lowest domain it arrives with).
struct RefProfile {
  std::map<std::pair<std::string, std::string>, std::size_t> index;
  std::vector<ProfileRow> rows;
  std::uint64_t totals[hw::kEventKindCount] = {};

  ProfileRow& row(std::string_view image, std::string_view symbol, SampleDomain domain) {
    const auto [it, inserted] =
        index.try_emplace({std::string(image), std::string(symbol)}, rows.size());
    if (inserted) {
      ProfileRow r;
      r.image = image;
      r.symbol = symbol;
      r.domain = domain;
      rows.push_back(std::move(r));
    }
    ProfileRow& r = rows[it->second];
    r.domain = std::min(r.domain, domain);
    return r;
  }
  void add(hw::EventKind e, const Resolution& r, std::uint64_t count) {
    row(r.image, r.symbol, r.domain).counts[hw::event_index(e)] += count;
    totals[hw::event_index(e)] += count;
  }
  void merge(const RefProfile& other) {
    for (const ProfileRow& src : other.rows) {
      ProfileRow& dst = row(src.image, src.symbol, src.domain);
      for (std::size_t i = 0; i < hw::kEventKindCount; ++i) {
        dst.counts[i] += src.counts[i];
        totals[i] += src.counts[i];
      }
    }
  }
};

struct RefGraph {
  std::map<std::tuple<std::string, std::string, std::string, std::string>, std::size_t>
      index;
  std::vector<CallArc> arcs;
  std::uint64_t samples = 0;

  void add(const Resolution& caller, const Resolution& callee, std::uint64_t count) {
    const auto [it, inserted] =
        index.try_emplace({std::string(caller.image), std::string(caller.symbol),
                           std::string(callee.image), std::string(callee.symbol)},
                          arcs.size());
    if (inserted) {
      CallArc a;
      a.caller_image = caller.image;
      a.caller_symbol = caller.symbol;
      a.callee_image = callee.image;
      a.callee_symbol = callee.symbol;
      a.caller_domain = caller.domain;
      a.callee_domain = callee.domain;
      arcs.push_back(std::move(a));
    }
    CallArc& a = arcs[it->second];
    a.caller_domain = std::min(a.caller_domain, caller.domain);
    a.callee_domain = std::min(a.callee_domain, callee.domain);
    a.count += count;
    samples += count;
  }
};

/// Names drawn so that separator-shifted pairs ("ab","c") / ("a","bc")
/// and empty names occur often.
Resolution random_res(support::Xoshiro256& rng) {
  static const char* const kParts[] = {"", "a", "b", "ab", "bc", "c", "lib.so", "x.y.z"};
  const auto part = [&] { return std::string(kParts[rng.below(8)]); };
  return res(part() + part(), part() + part(), static_cast<SampleDomain>(rng.below(8)));
}

void expect_rows(const std::vector<ProfileRow>& got, const std::vector<ProfileRow>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].image, want[i].image) << "row " << i;
    EXPECT_EQ(got[i].symbol, want[i].symbol) << "row " << i;
    EXPECT_EQ(got[i].domain, want[i].domain) << "row " << i;
    for (std::size_t e = 0; e < hw::kEventKindCount; ++e)
      EXPECT_EQ(got[i].counts[e], want[i].counts[e]) << "row " << i << " event " << e;
  }
}

void expect_profile(const Profile& got, const RefProfile& want) {
  expect_rows(got.rows(), want.rows);
  for (std::size_t e = 0; e < hw::kEventKindCount; ++e)
    EXPECT_EQ(got.total(hw::kAllEventKinds[e]), want.totals[e]) << "event " << e;
  for (const ProfileRow& r : want.rows)
    EXPECT_NE(got.find(r.image, r.symbol), nullptr) << r.image << "|" << r.symbol;
}

TEST(RowIndexProperty, ProfileMatchesMapReference) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    support::Xoshiro256 rng(seed);
    Profile p;
    RefProfile ref;
    for (int step = 0; step < 40; ++step) {
      if (rng.below(4) == 0) {
        // Fold a fresh partial, by copy or by move.
        Profile part;
        RefProfile part_ref;
        for (std::uint64_t i = rng.below(30); i > 0; --i) {
          const Resolution r = random_res(rng);
          const hw::EventKind e = rng.below(2) ? kTime : kDmiss;
          const std::uint64_t count = rng.below(3);
          part.add(e, r, count);
          part_ref.add(e, r, count);
        }
        if (rng.below(2)) p.merge(part);
        else p.merge(std::move(part));
        ref.merge(part_ref);
      } else {
        const Resolution r = random_res(rng);
        const std::uint64_t count = rng.below(3);
        p.add(kTime, r, count);
        ref.add(kTime, r, count);
      }
    }
    expect_profile(p, ref);
  }
}

TEST(RowIndexProperty, CallGraphMatchesMapReference) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    support::Xoshiro256 rng(seed * 3 + 1);
    CallGraph g;
    CallGraph other;
    RefGraph ref;
    for (int step = 0; step < 300; ++step) {
      const Resolution caller = random_res(rng);
      const Resolution callee = random_res(rng);
      const std::uint64_t count = rng.below(3);
      if (step < 200) g.add_resolved(caller, callee, count);
      else other.add_resolved(caller, callee, count);
      ref.add(caller, callee, count);
    }
    g.merge(other);
    ASSERT_EQ(g.arcs().size(), ref.arcs.size());
    EXPECT_EQ(g.total_samples(), ref.samples);
    for (std::size_t i = 0; i < ref.arcs.size(); ++i) {
      const CallArc& a = g.arcs()[i];
      const CallArc& b = ref.arcs[i];
      EXPECT_EQ(std::tie(a.caller_image, a.caller_symbol, a.callee_image, a.callee_symbol),
                std::tie(b.caller_image, b.caller_symbol, b.callee_image, b.callee_symbol))
          << "arc " << i;
      EXPECT_EQ(a.caller_domain, b.caller_domain) << "arc " << i;
      EXPECT_EQ(a.callee_domain, b.callee_domain) << "arc " << i;
      EXPECT_EQ(a.count, b.count) << "arc " << i;
    }
  }
}

TEST(RowIndexProperty, ShuffledMergeMatchesSerialMapReference) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    support::Xoshiro256 rng(seed * 11 + 7);
    // Batches in sequence order; the serial reference adds them in order.
    std::vector<Profile> batches(1 + rng.below(12));
    RefProfile ref;
    for (Profile& batch : batches) {
      for (std::uint64_t i = rng.below(25); i > 0; --i) {
        const Resolution r = random_res(rng);
        const hw::EventKind e = rng.below(2) ? kTime : kDmiss;
        const std::uint64_t count = rng.below(3);
        batch.add(e, r, count);
        ref.add(e, r, count);
      }
    }
    // Fold them out of order across two stripes, then combine: the rows
    // may sit in any order, but each must equal its reference row.
    std::vector<std::size_t> order(batches.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
    Profile stripes[2];
    for (std::size_t i : order) stripes[rng.below(2)].merge(batches[i]);
    Profile combined;
    combined.merge(stripes[1]);
    combined.merge(stripes[0]);
    ASSERT_EQ(combined.row_count(), ref.rows.size());
    for (std::size_t e = 0; e < hw::kEventKindCount; ++e)
      EXPECT_EQ(combined.total(hw::kAllEventKinds[e]), ref.totals[e]) << "event " << e;
    for (const ProfileRow& want : ref.rows) {
      const ProfileRow* got = combined.find(want.image, want.symbol);
      ASSERT_NE(got, nullptr) << want.image << "|" << want.symbol;
      EXPECT_EQ(got->domain, want.domain) << want.image << "|" << want.symbol;
      for (std::size_t e = 0; e < hw::kEventKindCount; ++e)
        EXPECT_EQ(got->counts[e], want.counts[e]) << want.image << "|" << want.symbol;
    }
  }
}

}  // namespace
}  // namespace viprof::core
