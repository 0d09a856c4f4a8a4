// Property suite for the log-linear histogram (support::HistogramLayout):
// seeded value sets spanning nine decades, with single samples, weighted
// adds and values beyond both ends of the layout, split into random shard
// partitions. Merging the shards' summaries — in any order, directly or
// through a to_json/from_json round trip — must give exactly the summary of
// one histogram that saw every value, and every percentile must lie within
// 3% of the exact rank-ceil(q*n) value.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "support/rng.hpp"
#include "support/telemetry.hpp"

namespace viprof::support {
namespace {

constexpr std::uint64_t kSeeds = 200;
constexpr double kQuantiles[] = {0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0};

struct Weighted {
  double value = 0.0;
  std::uint64_t count = 1;
};

/// Values log-uniform over [1e-3, 1e6]. `saturating` mixes in values below
/// and above the layout: zero and one fixed huge value, or (`varied`) a few
/// distinct ones at each end.
std::vector<Weighted> value_set(Xoshiro256& rng, std::size_t n, bool saturating,
                                bool varied) {
  const double low_end[] = {0.0, 1e-9, 3e-7};
  const double high_end[] = {1e18, 3e15, 7e20};
  std::vector<Weighted> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Weighted w;
    const std::uint64_t kind = saturating ? rng.below(10) : 2;
    if (kind == 0) w.value = varied ? low_end[rng.below(3)] : 0.0;
    else if (kind == 1) w.value = varied ? high_end[rng.below(3)] : 1e18;
    else w.value = std::pow(10.0, -3.0 + 9.0 * rng.uniform());
    if (rng.below(4) == 0) w.count = 1 + rng.below(5);
    out.push_back(w);
  }
  return out;
}

HistogramSummary summary_of(const std::vector<Weighted>& values) {
  LatencyHistogram h;
  for (const Weighted& w : values) h.add(w.value, w.count);
  return h.summary();
}

/// Folds `parts` in a random order, the way viprof_stat folds shards.
HistogramSummary fold(std::vector<HistogramSummary> parts, Xoshiro256& rng) {
  for (std::size_t i = parts.size(); i > 1; --i) std::swap(parts[i - 1], parts[rng.below(i)]);
  HistogramSummary out;
  for (const HistogramSummary& p : parts) out = HistogramSummary::merged(out, p);
  return out;
}

void expect_same(const HistogramSummary& got, const HistogramSummary& want,
                 const std::string& where) {
  EXPECT_EQ(got.count, want.count) << where;
  EXPECT_EQ(got.min, want.min) << where;
  EXPECT_EQ(got.max, want.max) << where;
  EXPECT_EQ(got.buckets, want.buckets) << where;
  for (const double q : kQuantiles) EXPECT_EQ(got.percentile(q), want.percentile(q)) << where;
  EXPECT_LE(std::abs(got.sum - want.sum), 1e-9 * std::abs(want.sum)) << where;
}

TEST(HistogramProperty, MergedShardsEqualTheUnionAndSurviveJson) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Xoshiro256 rng(seed);
    const std::size_t n = seed % 10 == 0 ? 1 : 1 + rng.below(3000);
    const std::vector<Weighted> values =
        value_set(rng, n, /*saturating=*/seed % 3 != 0, /*varied=*/seed % 2 == 0);
    const HistogramSummary whole = summary_of(values);

    const std::size_t shards = 1 + rng.below(8);
    std::vector<std::vector<Weighted>> split(shards);
    for (const Weighted& w : values) split[rng.below(shards)].push_back(w);
    std::vector<HistogramSummary> parts;
    TelemetrySnapshot written;
    for (std::size_t s = 0; s < shards; ++s) {
      parts.push_back(summary_of(split[s]));
      written.histograms["shard." + std::to_string(s)] = parts.back();
    }
    const std::string where = "seed " + std::to_string(seed);
    expect_same(fold(parts, rng), whole, where);

    const auto read = TelemetrySnapshot::from_json(written.to_json());
    ASSERT_TRUE(read.has_value()) << where;
    std::vector<HistogramSummary> reread;
    for (const auto& [name, h] : read->histograms) reread.push_back(h);
    expect_same(fold(reread, rng), whole, where + " after json");
  }
}

TEST(HistogramProperty, PercentilesLieWithinThreePercentOfTheExactRank) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Xoshiro256 rng(seed * 7919);
    const std::size_t n = seed % 10 == 0 ? 1 : 1 + rng.below(3000);
    // One fixed value per end: a percentile that lands in an end bucket
    // clamps to the exact min/max, which is then the exact value too.
    const std::vector<Weighted> values =
        value_set(rng, n, /*saturating=*/seed % 2 == 0, /*varied=*/false);
    std::vector<double> sorted;
    for (const Weighted& w : values) sorted.insert(sorted.end(), w.count, w.value);
    std::sort(sorted.begin(), sorted.end());
    const HistogramSummary s = summary_of(values);
    ASSERT_EQ(s.count, sorted.size());
    EXPECT_EQ(s.min, sorted.front());
    EXPECT_EQ(s.max, sorted.back());
    double last = s.min;
    for (const double q : kQuantiles) {
      const auto rank = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size()))));
      const double exact = sorted[rank - 1];
      const double got = s.percentile(q);
      EXPECT_LE(std::abs(got - exact), 0.03 * exact)
          << "seed " << seed << " q " << q << " exact " << exact << " got " << got;
      EXPECT_GE(got, last) << "seed " << seed << " q " << q;  // monotone in q
      last = got;
    }
  }
}

TEST(HistogramProperty, EndBucketsReportTheObservedExtremes) {
  // Distinct values beyond the layout share an end bucket; a percentile
  // landing there reports 0 (low end) or the exact max (high end), always
  // inside [min, max].
  LatencyHistogram h;
  h.add(1e-9);
  h.add(3e-7);
  h.add(5.0);
  h.add(3e15);
  h.add(7e20);
  const HistogramSummary s = h.summary();
  EXPECT_DOUBLE_EQ(s.percentile(0.2), 1e-9);  // 0 clamped up to the min
  EXPECT_DOUBLE_EQ(s.percentile(0.4), 1e-9);
  EXPECT_NEAR(s.percentile(0.6), 5.0, 5.0 / 64);
  EXPECT_DOUBLE_EQ(s.percentile(0.8), 7e20);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 7e20);
}

}  // namespace
}  // namespace viprof::support
