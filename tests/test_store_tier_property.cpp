// The store's pre-folded query tier (DESIGN.md §11) must never change an
// answer. Random schedules — several sessions, single- and multi-tick
// intervals, sessions absent from whole segments, seals, serial and pooled
// compaction, a retention budget, close/re-open and a compactor kill —
// are checked after every few steps: render_top, render_diff and
// render_series over random windows (all-session, single-tick, out of
// range, and windows whose edges sit on interval fences) must equal a flat
// fold of the live intervals. Without retention a twin store that never
// seals answers too; with retention the oracle is the shadow list minus
// the oldest seq span the store dropped; after a kill it is the appended
// prefix, which the segments on disk pin down.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "os/vfs.hpp"
#include "store/profile_store.hpp"
#include "support/fault.hpp"
#include "support/format.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"
#include "support/thread_pool.hpp"

namespace viprof::store {
namespace {

constexpr auto kTime = hw::EventKind::kGlobalPowerEvents;
constexpr auto kDmiss = hw::EventKind::kBsqCacheReference;
const std::vector<hw::EventKind> kEvents = {kTime, kDmiss};
const std::vector<std::string> kSessions = {"vm-a", "vm-b", "vm-c", "vm-rare"};
constexpr std::uint64_t kMethods = 9;

core::Resolution res(const std::string& image, const std::string& symbol) {
  core::Resolution r;
  r.image = image;
  r.symbol = symbol;
  r.domain = core::SampleDomain::kJit;
  return r;
}

std::string method(std::uint64_t m) { return "method-" + std::to_string(m); }

bool in_window(const IntervalProfile& iv, const WindowSpec& w) {
  return iv.tick_lo >= w.tick_lo && iv.tick_hi <= w.tick_hi &&
         (w.session.empty() || iv.session == w.session);
}

/// The flat fold: every live interval the window contains, in shadow order.
core::Profile fold(const std::vector<IntervalProfile>& ivs, const WindowSpec& w) {
  core::Profile out;
  for (const IntervalProfile& iv : ivs)
    if (in_window(iv, w)) out.merge(iv.profile);
  return out;
}

/// render_series as a per-tick fold of whole profiles.
std::string series(const std::vector<IntervalProfile>& ivs, const WindowSpec& w,
                   const std::string& image, const std::string& symbol) {
  std::map<std::pair<std::uint64_t, std::uint64_t>, core::Profile> ticks;
  for (const IntervalProfile& iv : ivs)
    if (in_window(iv, w)) ticks[{iv.tick_lo, iv.tick_hi}].merge(iv.profile);
  support::TextTable table({"Tick", "Count", "Total", "%"});
  for (const auto& [span, profile] : ticks) {
    const core::ProfileRow* row = profile.find(image, symbol);
    const std::uint64_t count = row != nullptr ? row->count(kTime) : 0;
    const std::uint64_t total = profile.total(kTime);
    const double pct =
        total == 0 ? 0.0 : 100.0 * static_cast<double>(count) / static_cast<double>(total);
    std::string tick = std::to_string(span.first);
    if (span.first != span.second) tick += "-" + std::to_string(span.second);
    table.cell(tick).cell(count).cell(total).cell_fixed(pct, 4).end_row();
  }
  return table.render();
}

std::uint64_t records(const core::Profile& p) {
  std::uint64_t n = 0;
  for (const hw::EventKind e : hw::kAllEventKinds) n += p.total(e);
  return n;
}

/// A random schedule's interval stream. Ticks advance slowly, so several
/// intervals share a tick and some share a whole merge key (the compactor
/// folds those); a few span several ticks; "vm-rare" is missing from most
/// segments.
class IntervalSource {
 public:
  explicit IntervalSource(std::uint64_t seed) : rng_(seed) {}

  IntervalProfile next() {
    if (rng_.below(3) == 0) tick_ += 1 + rng_.below(2);
    IntervalProfile iv;
    iv.session = rng_.below(12) == 0 ? kSessions[3] : kSessions[rng_.below(3)];
    iv.pid = 40 + rng_.below(2);
    iv.tick_lo = tick_;
    iv.tick_hi = tick_ + (rng_.below(5) == 0 ? 1 + rng_.below(3) : 0);
    iv.epoch_lo = serial_;
    iv.epoch_hi = ++serial_;
    const std::uint64_t rows = 1 + rng_.below(4);
    for (std::uint64_t r = 0; r < rows; ++r) {
      const std::string m = method(rng_.below(kMethods));
      iv.profile.add(kTime, res("RVM.map", m), 1 + rng_.below(50));
      if (rng_.below(2) == 0) iv.profile.add(kDmiss, res("RVM.map", m), 1 + rng_.below(9));
    }
    if (rng_.below(3) == 0)
      iv.profile.add(kTime, res("vmlinux", "do_page_fault"), 1 + rng_.below(5));
    return iv;
  }

 private:
  support::Xoshiro256 rng_;
  std::uint64_t tick_ = 1;
  std::uint64_t serial_ = 0;
};

/// Random windows over the live intervals' tick range: whole-history,
/// out of range, single-tick, and windows whose edges sit on, or one tick
/// beside, some interval's tick_lo or tick_hi (the fence edges).
std::vector<WindowSpec> random_windows(support::Xoshiro256& rng,
                                       const std::vector<IntervalProfile>& live,
                                       std::size_t n) {
  std::uint64_t max_tick = 1;
  for (const IntervalProfile& iv : live) max_tick = std::max(max_tick, iv.tick_hi);
  const auto session = [&]() -> std::string {
    const std::uint64_t pick = rng.below(kSessions.size() + 2);
    return pick < kSessions.size() ? kSessions[pick] : std::string();
  };
  const auto edge = [&]() -> std::uint64_t {
    if (live.empty()) return rng.below(max_tick + 2);
    const IntervalProfile& iv = live[rng.below(live.size())];
    const std::uint64_t at = rng.below(2) == 0 ? iv.tick_lo : iv.tick_hi;
    const std::uint64_t shift = rng.below(3);
    return shift == 0 ? at : shift == 1 ? at + 1 : at - std::min<std::uint64_t>(at, 1);
  };
  std::vector<WindowSpec> out = {WindowSpec{}, WindowSpec{max_tick + 1, max_tick + 9, ""}};
  while (out.size() < n) {
    WindowSpec w;
    w.session = session();
    switch (rng.below(4)) {
      case 0:  // single tick
        w.tick_lo = w.tick_hi = edge();
        break;
      case 1:  // uniformly random, possibly past the end
        w.tick_lo = rng.below(max_tick + 3);
        w.tick_hi = w.tick_lo + rng.below(max_tick + 3);
        break;
      default: {  // both edges on fences
        const std::uint64_t a = edge(), b = edge();
        w.tick_lo = std::min(a, b);
        w.tick_hi = std::max(a, b);
      }
    }
    out.push_back(std::move(w));
  }
  return out;
}

/// Every query surface over `windows` equals the flat fold of `live`, and
/// (when given) the twin store's answer.
void expect_flat(const ProfileStore& st, const ProfileStore* twin,
                 const std::vector<IntervalProfile>& live,
                 const std::vector<WindowSpec>& windows, support::Xoshiro256& rng,
                 const std::string& where) {
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const WindowSpec& w = windows[i];
    const WindowSpec& other = windows[(i * 7 + 3) % windows.size()];
    const std::string ctx = where + " window " + std::to_string(w.tick_lo) + ":" +
                            std::to_string(w.tick_hi) + " session '" + w.session + "'";
    const std::size_t top = 3 + rng.below(20);
    const std::string want_top = fold(live, w).render(kEvents, top);
    const std::string want_diff =
        core::render_diff(fold(live, w), fold(live, other), kTime, top);
    const std::string m = method(rng.below(kMethods + 1));  // one never seen
    const std::string want_series = series(live, w, "RVM.map", m);
    ASSERT_EQ(st.render_top(w, kEvents, top), want_top) << ctx;
    ASSERT_EQ(st.render_diff(w, other, kTime, top), want_diff) << ctx;
    ASSERT_EQ(st.render_series(w, "RVM.map", m, kTime), want_series) << ctx;
    if (twin != nullptr) {
      ASSERT_EQ(twin->render_top(w, kEvents, top), want_top) << ctx << " (twin)";
      ASSERT_EQ(twin->render_diff(w, other, kTime, top), want_diff) << ctx << " (twin)";
      ASSERT_EQ(twin->render_series(w, "RVM.map", m, kTime), want_series)
          << ctx << " (twin)";
    }
  }
}

StoreConfig random_config(support::Xoshiro256& rng, support::Telemetry* telemetry) {
  StoreConfig config;
  config.seal_after_intervals = 2 + rng.below(5);
  config.compact_fanin = 2 + rng.below(3);
  config.compact_min_segments = 2;
  config.telemetry = telemetry;
  return config;
}

/// A store that never seals within a schedule: every answer is a raw scan.
std::unique_ptr<ProfileStore> make_twin(os::Vfs& vfs,
                                        const std::vector<IntervalProfile>& live) {
  StoreConfig config;
  config.seal_after_intervals = 1'000'000;
  auto twin = std::make_unique<ProfileStore>(vfs, config);
  twin->open();
  for (const IntervalProfile& iv : live) twin->ingest(iv);
  return twin;
}

/// The smallest first_seq still live: retention drops the oldest seq span.
std::uint64_t first_live_seq(const os::Vfs& vfs) {
  const auto text = vfs.read("store/MANIFEST");
  EXPECT_TRUE(text.has_value());
  const std::optional<Manifest> m = text ? Manifest::parse(*text) : std::nullopt;
  EXPECT_TRUE(m.has_value());
  std::uint64_t lo = ~0ull;
  if (m)
    for (const ManifestSegment& s : m->segments) lo = std::min(lo, s.seq_lo);
  return lo;
}

/// Total records in the segments the manifest lists, read from disk.
std::uint64_t disk_records(const os::Vfs& vfs) {
  const auto text = vfs.read("store/MANIFEST");
  const std::optional<Manifest> m = text ? Manifest::parse(*text) : std::nullopt;
  EXPECT_TRUE(m.has_value());
  std::uint64_t n = 0;
  if (m)
    for (const ManifestSegment& s : m->segments)
      if (const auto seg = vfs.read("store/" + s.name))
        for (const IntervalProfile& iv : read_segment(*seg, s.id).intervals)
          n += records(iv.profile);
  return n;
}

enum class Mode { kPlain, kRetention, kKill };

/// One random schedule, checked every nine steps and at its end. Counts a
/// compactor kill that fired into `kills`.
void run_schedule(std::uint64_t seed, Mode mode, support::Telemetry& telemetry,
                  int* kills = nullptr) {
  support::Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ull + static_cast<int>(mode));
  IntervalSource source(seed);
  support::FaultInjector faults;
  os::Vfs vfs;
  if (mode == Mode::kKill) {
    faults.schedule_kill(support::FaultComponent::kCompactor, 5 + rng.below(40));
    vfs.set_fault_injector(&faults);
  }
  StoreConfig config = random_config(rng, &telemetry);
  if (mode == Mode::kRetention) config.retention_budget_rows = 40 + rng.below(60);
  support::ThreadPool pool(2);

  auto st = std::make_unique<ProfileStore>(vfs, config);
  ASSERT_EQ(st->open().verdict, core::FsckVerdict::kClean);
  // Every interval the store took, in order, with the first_seq the store
  // gave it (retention schedules, which read it, have no kill).
  std::vector<IntervalProfile> shadow;
  const std::size_t steps = 40 + rng.below(40);
  bool killed_once = false;
  for (std::size_t step = 0; step < steps; ++step) {
    IntervalProfile iv = source.next();
    shadow.push_back(iv);
    shadow.back().first_seq = shadow.size();
    st->ingest(std::move(iv));
    if (!st->killed()) {
      switch (rng.below(10)) {
        case 0: st->seal_active(); break;
        case 1: st->compact(nullptr); break;
        case 2: st->compact(&pool); break;
        case 3:  // close, re-open over the same bytes
          st = std::make_unique<ProfileStore>(vfs, config);
          ASSERT_NE(st->open().verdict, core::FsckVerdict::kUnrecoverable);
          break;
        default: break;
      }
    }
    if (st->killed()) {
      // The dead process is discarded; the appended prefix of the shadow
      // list is what the segments on disk hold after recovery.
      ASSERT_FALSE(killed_once);
      killed_once = true;
      if (kills != nullptr) ++*kills;
      st = std::make_unique<ProfileStore>(vfs, config);
      ASSERT_NE(st->open().verdict, core::FsckVerdict::kUnrecoverable);
      // Every interval carries records, so the prefix is the one whose
      // record total the disk holds.
      std::uint64_t left = disk_records(vfs);
      std::size_t prefix = 0;
      while (prefix < shadow.size() && records(shadow[prefix].profile) <= left)
        left -= records(shadow[prefix++].profile);
      ASSERT_EQ(left, 0u) << "seed " << seed;
      ASSERT_GE(prefix + 1, shadow.size())
          << "seed " << seed << ": a kill-only crash lost more than the last ingest";
      shadow.resize(prefix);
    }
    if (step % 9 != 8 && step + 1 != steps) continue;

    std::vector<IntervalProfile> live = shadow;
    if (mode == Mode::kRetention) {
      const std::uint64_t lo = first_live_seq(vfs);
      std::erase_if(live, [&](const IntervalProfile& x) { return x.first_seq < lo; });
    }
    os::Vfs twin_vfs;
    const std::unique_ptr<ProfileStore> twin =
        mode == Mode::kRetention ? nullptr : make_twin(twin_vfs, live);
    const std::vector<WindowSpec> windows = random_windows(rng, live, 14);
    expect_flat(*st, twin.get(), live, windows, rng,
                "seed " + std::to_string(seed) + " step " + std::to_string(step));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(StoreTierProperty, RandomSchedulesEqualTheFlatFold) {
  support::Telemetry telemetry;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    run_schedule(seed, Mode::kPlain, telemetry);
    if (HasFatalFailure()) return;
  }
  // The schedules exercised both paths of the window fold.
  const support::TelemetrySnapshot snap = telemetry.snapshot();
  EXPECT_GT(snap.counter("store.query.prefolds"), 0u);
  EXPECT_GT(snap.counter("store.query.intervals_scanned"), 0u);
}

TEST(StoreTierProperty, RetentionSchedulesEqualTheLiveShadow) {
  support::Telemetry telemetry;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    run_schedule(seed, Mode::kRetention, telemetry);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(telemetry.snapshot().counter("store.retained.dropped_segments"), 0u);
}

TEST(StoreTierProperty, CompactorKillThenReopenEqualsTheAppendedPrefix) {
  support::Telemetry telemetry;
  int kills = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    run_schedule(seed, Mode::kKill, telemetry, &kills);
    if (HasFatalFailure()) return;
  }
  EXPECT_GE(kills, 12);  // most kill points land inside their schedule
}

/// A fully compacted store with no active segment answers a window that
/// covers every fence from pre-folds alone; a fence-straddling window
/// scans exactly the straddled intervals.
TEST(StoreTier, CoveredFencesFoldWholeAndStraddlesScanTheEdge) {
  support::Telemetry telemetry;
  os::Vfs vfs;
  StoreConfig config;
  config.seal_after_intervals = 4;
  config.compact_fanin = 2;
  config.telemetry = &telemetry;
  ProfileStore st(vfs, config);
  ASSERT_EQ(st.open().verdict, core::FsckVerdict::kClean);
  std::vector<IntervalProfile> ivs;
  for (std::uint64_t j = 0; j < 16; ++j) {
    IntervalProfile iv;
    iv.session = j % 2 == 0 ? "vm-a" : "vm-b";
    iv.tick_lo = iv.tick_hi = 1 + j / 2;  // ticks 1..8, one interval per session
    iv.profile.add(kTime, res("RVM.map", method(j % 3)), 10 + j);
    ivs.push_back(iv);
    ASSERT_TRUE(st.ingest(std::move(iv)));
  }
  ASSERT_TRUE(st.seal_active());
  while (st.compact() > 0) {
  }
  ASSERT_EQ(st.segment_count(), 2u);  // ticks 1-4 and 5-8
  EXPECT_GT(telemetry.snapshot().gauge("store.prefold.rows"), 0.0);

  const auto delta = [&](const WindowSpec& w) {
    const support::TelemetrySnapshot before = telemetry.snapshot();
    EXPECT_EQ(st.render_top(w, kEvents, 10), fold(ivs, w).render(kEvents, 10));
    const support::TelemetrySnapshot after = telemetry.snapshot();
    return std::pair{after.counter("store.query.prefolds") -
                         before.counter("store.query.prefolds"),
                     after.counter("store.query.intervals_scanned") -
                         before.counter("store.query.intervals_scanned")};
  };
  EXPECT_EQ(delta({}), std::pair(std::uint64_t{2}, std::uint64_t{0}));
  EXPECT_EQ(delta({0, 4, ""}), std::pair(std::uint64_t{1}, std::uint64_t{0}));
  EXPECT_EQ(delta({1, 8, "vm-b"}), std::pair(std::uint64_t{2}, std::uint64_t{0}));
  // 3:6 straddles both segments: ticks 3-4 and 5-6 of both sessions scan.
  EXPECT_EQ(delta({3, 6, ""}), std::pair(std::uint64_t{0}, std::uint64_t{8}));
  EXPECT_EQ(delta({3, 8, "vm-a"}), std::pair(std::uint64_t{1}, std::uint64_t{2}));
  EXPECT_EQ(delta({20, 30, ""}), std::pair(std::uint64_t{0}, std::uint64_t{0}));

  // Retention frees the tier with its segment.
  StoreConfig tight = config;
  tight.retention_budget_rows = 1;
  ProfileStore reopened(vfs, tight);
  reopened.open();
  reopened.compact();
  EXPECT_EQ(reopened.segment_count(), 0u);
  EXPECT_EQ(telemetry.snapshot().gauge("store.prefold.rows"), 0.0);
}

}  // namespace
}  // namespace viprof::store
