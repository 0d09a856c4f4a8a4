// ProfileStore end-to-end: ingest/seal/compact/retention and the
// determinism anchor — every query is a commutative fold of interval
// profiles, so its bytes must be identical whether the intervals
// sit in the unsealed segment, sealed segments or compacted ones, at any
// compactor thread count, and across a close/re-open cycle.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "os/vfs.hpp"
#include "store/profile_store.hpp"
#include "support/telemetry.hpp"
#include "support/thread_pool.hpp"

namespace viprof::store {
namespace {

constexpr auto kTime = hw::EventKind::kGlobalPowerEvents;
constexpr auto kDmiss = hw::EventKind::kBsqCacheReference;
const std::vector<hw::EventKind> kEvents = {kTime, kDmiss};

core::Resolution res(const std::string& image, const std::string& symbol) {
  core::Resolution r;
  r.image = image;
  r.symbol = symbol;
  r.domain = core::SampleDomain::kJit;
  return r;
}

/// Interval j of the scenario: sessions alternate and ticks repeat every
/// four intervals, so some intervals share a merge key (same session, pid
/// and tick) — the compactor must fold those without changing any query.
IntervalProfile scenario_interval(std::uint64_t j) {
  IntervalProfile iv;
  iv.session = "vm-" + std::to_string(j % 2);
  iv.pid = 40 + j % 2;
  iv.tick_lo = iv.tick_hi = j / 4;
  iv.epoch_lo = j;
  iv.epoch_hi = j + 1;
  iv.profile.add(kTime, res("RVM.map", "method-" + std::to_string(j % 5)), 10 + j);
  iv.profile.add(kTime, res("vmlinux", "do_page_fault"), 1 + j % 3);
  iv.profile.add(kDmiss, res("RVM.map", "method-" + std::to_string(j % 5)), 1 + j % 7);
  return iv;
}

bool in_window(const IntervalProfile& iv, const WindowSpec& w) {
  return iv.tick_lo >= w.tick_lo && iv.tick_hi <= w.tick_hi &&
         (w.session.empty() || iv.session == w.session);
}

/// The offline oracle: the window's intervals folded in capture order.
/// The fold commutes, so the store may fold them in any order.
core::Profile fold(const std::vector<IntervalProfile>& ivs, const WindowSpec& w) {
  core::Profile out;
  for (const IntervalProfile& iv : ivs)
    if (in_window(iv, w)) out.merge(iv.profile);
  return out;
}

std::vector<IntervalProfile> scenario(std::size_t n) {
  std::vector<IntervalProfile> ivs;
  for (std::uint64_t j = 0; j < n; ++j) ivs.push_back(scenario_interval(j));
  return ivs;
}

StoreConfig small_config() {
  StoreConfig config;
  config.seal_after_intervals = 4;
  config.compact_fanin = 3;
  config.compact_min_segments = 2;
  return config;
}

/// Every query surface rendered at once, for byte comparisons.
std::string all_queries(const ProfileStore& st) {
  std::string out = st.render_top({}, kEvents, 15);
  out += st.render_top({0, 2, ""}, kEvents, 15);
  out += st.render_top({0, ~0ull, "vm-1"}, kEvents, 15);
  out += st.render_series({}, "RVM.map", "method-1", kTime);
  out += st.render_diff({0, 1, ""}, {2, 3, ""}, kTime, 10);
  return out;
}

std::string oracle_queries(const std::vector<IntervalProfile>& ivs) {
  std::string out = fold(ivs, {}).render(kEvents, 15);
  out += fold(ivs, {0, 2, ""}).render(kEvents, 15);
  out += fold(ivs, {0, ~0ull, "vm-1"}).render(kEvents, 15);
  // render_series / render_diff are folds too, but the oracle only needs
  // to cover them once: the store-vs-store comparisons below pin their
  // bytes across segment states and thread counts.
  return out;
}

TEST(ProfileStore, FreshStoreOpensCleanAndRequiresOpen) {
  os::Vfs vfs;
  ProfileStore st(vfs);
  EXPECT_FALSE(st.ingest(scenario_interval(0)));  // not open yet
  const StoreRecovery rec = st.open();
  EXPECT_TRUE(rec.fresh);
  EXPECT_EQ(rec.verdict, core::FsckVerdict::kClean);
  EXPECT_TRUE(st.ingest(scenario_interval(0)));
  EXPECT_EQ(st.live_intervals(), 1u);
}

TEST(ProfileStore, RebuildNumbersASegmentWithNoKnowableIdAfterTheRest) {
  os::Vfs vfs;
  {
    ProfileStore st(vfs, small_config());
    st.open();
    for (const IntervalProfile& iv : scenario(8)) ASSERT_TRUE(st.ingest(iv));
    ASSERT_TRUE(st.seal_active());
  }
  // Lose the manifest, then give the first segment a torn header line and
  // a name with no id in it: a rebuild cannot learn its id, so it is
  // numbered after every segment whose id is known.
  const std::vector<std::string> files = vfs.list("store/segments/");
  ASSERT_EQ(files.size(), 2u);
  std::string text = *vfs.read(files[0]);
  text[2] ^= 0x1;  // the H record's type tag: its frame no longer verifies
  vfs.remove(files[0]);
  vfs.write("store/segments/stray.vseg", text);
  vfs.remove("store/MANIFEST");

  ProfileStore st(vfs, small_config());
  const StoreRecovery rec = st.open();
  EXPECT_TRUE(rec.manifest_rebuilt);
  EXPECT_NE(rec.details.find("segments/stray.vseg: no segment id"), std::string::npos)
      << rec.details;
  EXPECT_EQ(st.live_intervals(), 8u);
  const auto manifest = Manifest::parse(*vfs.read("store/MANIFEST"));
  ASSERT_TRUE(manifest.has_value());
  ASSERT_EQ(manifest->segments.size(), 2u);
  const ManifestSegment* stray = manifest->find("segments/stray.vseg");
  ASSERT_NE(stray, nullptr);
  for (const ManifestSegment& s : manifest->segments)
    if (&s != stray) EXPECT_GT(stray->id, s.id);
}

TEST(ProfileStore, QueriesByteIdenticalAcrossSegmentStatesAndThreads) {
  const std::size_t kIntervals = 22;
  const std::vector<IntervalProfile> ivs = scenario(kIntervals);

  std::vector<std::string> unsealed_renders, sealed_renders, compacted_renders;
  for (const std::size_t threads : {std::size_t{0}, std::size_t{1}, std::size_t{4}}) {
    os::Vfs vfs;
    ProfileStore st(vfs, small_config());
    ASSERT_EQ(st.open().verdict, core::FsckVerdict::kClean);
    for (std::uint64_t j = 0; j < kIntervals; ++j)
      ASSERT_TRUE(st.ingest(scenario_interval(j)));

    // Stage 1: tail of the data still in the unsealed active segment.
    unsealed_renders.push_back(all_queries(st));
    ASSERT_TRUE(st.seal_active());
    sealed_renders.push_back(all_queries(st));

    // Stage 2: compacted, serially or on a pool.
    std::size_t outputs;
    if (threads == 0) {
      outputs = st.compact(nullptr);
    } else {
      support::ThreadPool pool(threads);
      outputs = st.compact(&pool);
    }
    EXPECT_GT(outputs, 0u);
    EXPECT_LT(st.segment_count(), (kIntervals + 3) / 4);
    compacted_renders.push_back(all_queries(st));

    // Stage 3: close and re-open over the same bytes.
    ProfileStore reopened(vfs, small_config());
    const StoreRecovery rec = reopened.open();
    EXPECT_EQ(rec.verdict, core::FsckVerdict::kClean);
    EXPECT_EQ(rec.intervals_lost, 0u);
    EXPECT_EQ(all_queries(reopened), compacted_renders.back());
  }

  // Unsealed == sealed == compacted, and identical at every thread count.
  for (const auto* stage : {&unsealed_renders, &sealed_renders, &compacted_renders}) {
    for (const std::string& r : *stage) EXPECT_EQ(r, (*stage)[0]);
  }
  EXPECT_EQ(unsealed_renders[0], sealed_renders[0]);
  EXPECT_EQ(sealed_renders[0], compacted_renders[0]);

  // And the whole family equals the offline canonical fold.
  const std::string expected = oracle_queries(ivs);
  EXPECT_EQ(unsealed_renders[0].substr(0, expected.size()), expected);
}

TEST(ProfileStore, CompactionDeduplicatesMergeKeysExactly) {
  os::Vfs vfs;
  ProfileStore st(vfs, small_config());
  ASSERT_EQ(st.open().verdict, core::FsckVerdict::kClean);
  const std::size_t kIntervals = 16;
  for (std::uint64_t j = 0; j < kIntervals; ++j)
    ASSERT_TRUE(st.ingest(scenario_interval(j)));
  ASSERT_TRUE(st.seal_active());

  EXPECT_EQ(st.live_intervals(), kIntervals);
  ASSERT_GT(st.compact(nullptr), 0u);
  // Ticks repeat every 4 intervals with 2 sessions: every merge key occurs
  // twice, so a full compaction folds pairs. (The exact live count depends
  // on which runs the fan-in grouped; it can only shrink.)
  EXPECT_LT(st.live_intervals(), kIntervals);
  EXPECT_EQ(fold(scenario(kIntervals), {}).render(kEvents, 15),
            st.render_top({}, kEvents, 15));
}

TEST(ProfileStore, RetentionDropsOldestWithExactAccounting) {
  support::Telemetry telemetry;
  os::Vfs vfs;
  StoreConfig config = small_config();
  config.seal_after_intervals = 2;
  config.retention_budget_rows = 18;  // each scenario interval carries 2 rows
  config.telemetry = &telemetry;
  ProfileStore st(vfs, config);
  ASSERT_EQ(st.open().verdict, core::FsckVerdict::kClean);

  const std::size_t kIntervals = 12;
  for (std::uint64_t j = 0; j < kIntervals; ++j)
    ASSERT_TRUE(st.ingest(scenario_interval(j)));
  ASSERT_TRUE(st.seal_active());

  EXPECT_LE(st.live_rows(), config.retention_budget_rows);
  const auto snap = telemetry.snapshot();
  const std::uint64_t dropped_ivs = snap.counter("store.retained.dropped_intervals");
  EXPECT_GT(dropped_ivs, 0u);
  EXPECT_GT(snap.counter("store.retained.dropped_segments"), 0u);
  EXPECT_EQ(snap.counter("store.retained.dropped_rows"), dropped_ivs * 2);
  EXPECT_EQ(st.live_intervals() + dropped_ivs, kIntervals);

  // Drops take whole oldest segments, so the survivors are exactly the
  // ingest-order suffix — and queries still equal the fold over it.
  std::vector<IntervalProfile> all = scenario(kIntervals);
  const std::vector<IntervalProfile> suffix(all.begin() + static_cast<std::ptrdiff_t>(dropped_ivs),
                                            all.end());
  EXPECT_EQ(st.render_top({}, kEvents, 15), fold(suffix, {}).render(kEvents, 15));
}

TEST(ProfileStore, SeriesAndDiffRenderKnownValues) {
  os::Vfs vfs;
  ProfileStore st(vfs);
  ASSERT_EQ(st.open().verdict, core::FsckVerdict::kClean);
  for (std::uint64_t tick = 0; tick < 3; ++tick) {
    IntervalProfile iv;
    iv.session = "s";
    iv.tick_lo = iv.tick_hi = tick;
    iv.profile.add(kTime, res("app", "hot"), 10 * (tick + 1));
    iv.profile.add(kTime, res("app", "cold"), 5);
    ASSERT_TRUE(st.ingest(std::move(iv)));
  }

  const std::string series = st.render_series({}, "app", "hot", kTime);
  EXPECT_NE(series.find("10"), std::string::npos);
  EXPECT_NE(series.find("20"), std::string::npos);
  EXPECT_NE(series.find("30"), std::string::npos);

  const std::string diff = st.render_diff({0, 0, ""}, {2, 2, ""}, kTime, 10);
  EXPECT_NE(diff.find("+20"), std::string::npos);  // hot: 10 -> 30
  EXPECT_NE(diff.find("hot"), std::string::npos);
  // cold is flat between the windows, so it must not appear as a mover.
  EXPECT_EQ(diff.find("cold"), std::string::npos);

  const std::string segments = st.render_segments();
  EXPECT_NE(segments.find("active"), std::string::npos);
}

}  // namespace
}  // namespace viprof::store
