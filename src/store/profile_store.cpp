#include "store/profile_store.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <map>

#include "support/fault.hpp"
#include "support/format.hpp"
#include "support/str_scan.hpp"
#include "support/telemetry.hpp"
#include "support/thread_pool.hpp"

namespace viprof::store {

namespace {

std::string segment_rel_name(std::uint64_t id) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "segments/seg-%06llu.vseg",
                static_cast<unsigned long long>(id));
  return buf;
}

bool in_window(const IntervalProfile& iv, const WindowSpec& w) {
  if (iv.tick_lo < w.tick_lo || iv.tick_hi > w.tick_hi) return false;
  return w.session.empty() || iv.session == w.session;
}

/// Fence checks: an interval matches a window only when fully contained,
/// so a window that misses a fence matches none of the intervals under it
/// and one that covers the fence matches all of them.
bool overlaps(std::uint64_t lo, std::uint64_t hi, const WindowSpec& w) {
  return lo <= w.tick_hi && w.tick_lo <= hi;
}

bool covers(const WindowSpec& w, std::uint64_t lo, std::uint64_t hi) {
  return w.tick_lo <= lo && hi <= w.tick_hi;
}

void widen(std::uint64_t& lo, std::uint64_t& hi, std::uint64_t with_lo,
           std::uint64_t with_hi) {
  lo = std::min(lo, with_lo);
  hi = std::max(hi, with_hi);
}

/// `folds`' entry for `session` (kept sorted by session), created empty.
template <typename Fold>
Fold& fold_for(std::vector<Fold>& folds, const std::string& session) {
  const auto it = std::lower_bound(
      folds.begin(), folds.end(), session,
      [](const Fold& f, const std::string& s) { return f.session < s; });
  if (it != folds.end() && it->session == session) return *it;
  Fold fresh;
  fresh.session = session;
  return *folds.insert(it, std::move(fresh));
}

}  // namespace

ProfileStore::ProfileStore(os::Vfs& vfs, StoreConfig config)
    : vfs_(vfs), config_(std::move(config)) {
  if (config_.seal_after_intervals == 0) config_.seal_after_intervals = 1;
  if (config_.compact_fanin < 2) config_.compact_fanin = 2;
  if (config_.compact_min_segments < 2) config_.compact_min_segments = 2;
  if (support::Telemetry* t = config_.telemetry) {
    mu_.attach(*t);
    ctr_ingest_intervals_ = &t->counter("store.ingest.intervals");
    ctr_ingest_rows_ = &t->counter("store.ingest.rows");
    ctr_append_errors_ = &t->counter("store.ingest.append_errors");
    ctr_seals_ = &t->counter("store.segments.sealed");
    ctr_compactions_ = &t->counter("store.compactions");
    ctr_compact_in_ = &t->counter("store.compaction.segments_in");
    ctr_compact_out_ = &t->counter("store.compaction.segments_out");
    ctr_dropped_intervals_ = &t->counter("store.retained.dropped_intervals");
    ctr_dropped_rows_ = &t->counter("store.retained.dropped_rows");
    ctr_dropped_segments_ = &t->counter("store.retained.dropped_segments");
    ctr_query_prefolds_ = &t->counter("store.query.prefolds");
    ctr_query_scanned_ = &t->counter("store.query.intervals_scanned");
    gauge_prefold_rows_ = &t->gauge("store.prefold.rows");
  }
}

ProfileStore::Prefold ProfileStore::build_prefold(
    const std::vector<IntervalProfile>& intervals) {
  Prefold t;
  for (std::uint32_t i = 0; i < intervals.size(); ++i) {
    const IntervalProfile& iv = intervals[i];
    SessionFold& f = fold_for(t.sessions, iv.session);
    f.profile.merge(iv.profile);
    widen(f.tick_lo, f.tick_hi, iv.tick_lo, iv.tick_hi);
    f.members.push_back(i);
  }
  for (const SessionFold& f : t.sessions) {
    t.all.merge(f.profile);
    widen(t.tick_lo, t.tick_hi, f.tick_lo, f.tick_hi);
  }
  return t;
}

ProfileStore::Prefold ProfileStore::merge_prefolds(
    const LoadedSegment* first, const LoadedSegment* last,
    const std::vector<IntervalProfile>& intervals) {
  Prefold t;
  for (const LoadedSegment* s = first; s != last; ++s) {
    t.all.merge(s->tier.all);
    widen(t.tick_lo, t.tick_hi, s->tier.tick_lo, s->tier.tick_hi);
    for (const SessionFold& in : s->tier.sessions) {
      SessionFold& f = fold_for(t.sessions, in.session);
      f.profile.merge(in.profile);
      widen(f.tick_lo, f.tick_hi, in.tick_lo, in.tick_hi);
    }
  }
  for (std::uint32_t i = 0; i < intervals.size(); ++i)
    fold_for(t.sessions, intervals[i].session).members.push_back(i);
  return t;
}

void ProfileStore::publish_prefold_rows_locked() {
  if (gauge_prefold_rows_ == nullptr) return;
  std::uint64_t rows = 0;
  for (const LoadedSegment& s : sealed_) {
    rows += s.tier.all.row_count();
    for (const SessionFold& f : s.tier.sessions) rows += f.profile.row_count();
  }
  gauge_prefold_rows_->set(static_cast<double>(rows));
}

std::string ProfileStore::path(const std::string& rel) const {
  return config_.root.empty() ? rel : config_.root + "/" + rel;
}

bool ProfileStore::check_kill() {
  if (killed_) return true;
  support::FaultInjector* f = vfs_.fault_injector();
  if (f != nullptr &&
      f->should_kill(support::FaultComponent::kCompactor, ++kill_ops_))
    killed_ = true;
  return killed_;
}

bool ProfileStore::killed() const {
  std::lock_guard<support::TracedMutex> lock(mu_);
  return killed_;
}

Manifest ProfileStore::build_manifest() const {
  Manifest m;
  m.generation = generation_;
  m.next_seq = next_seq_;
  m.next_segment = next_segment_;
  m.dropped_intervals = dropped_intervals_;
  m.dropped_rows = dropped_rows_;
  m.dropped_segments = dropped_segments_;
  for (const LoadedSegment& s : sealed_) m.segments.push_back(s.meta);
  if (active_) {
    // Counts are authoritative only once sealed; the active entry records
    // existence and its seq anchor, nothing more.
    ManifestSegment a = active_->meta;
    a.sealed = false;
    a.intervals = 0;
    a.rows = 0;
    a.tick_lo = a.tick_hi = 0;
    a.seq_hi = 0;
    m.segments.push_back(std::move(a));
  }
  m.tombstones = tombstones_;
  return m;
}

bool ProfileStore::swap_manifest() {
  ++generation_;
  const Manifest m = build_manifest();
  const std::string tmp = path("MANIFEST.tmp");
  if (vfs_.write(tmp, m.serialize()) != os::IoStatus::kOk) {
    // The previous manifest generation is still intact; nothing committed.
    if (ctr_append_errors_ != nullptr) ctr_append_errors_->inc();
    return false;
  }
  if (check_kill()) return false;  // crash between temp write and rename
  return vfs_.rename(tmp, path("MANIFEST")) == os::IoStatus::kOk;
}

bool ProfileStore::start_active_locked() {
  // Register the segment in the manifest *before* creating the file: a
  // crash in between leaves a listed-but-missing empty segment (zero loss,
  // dropped at recovery), never an unlisted file holding live data.
  const std::uint64_t id = next_segment_++;
  LoadedSegment seg;
  seg.meta.name = segment_rel_name(id);
  seg.meta.id = id;
  seg.meta.sealed = false;
  seg.meta.seq_lo = next_seq_;
  seg.meta.seq_hi = 0;
  active_ = std::move(seg);
  active_writer_ = SegmentWriter(id);
  if (!swap_manifest()) {
    if (killed_) return false;
  }
  if (vfs_.write(path(active_->meta.name), active_writer_.header()) !=
      os::IoStatus::kOk) {
    if (ctr_append_errors_ != nullptr) ctr_append_errors_->inc();
  }
  return !check_kill();
}

bool ProfileStore::ingest(IntervalProfile iv) {
  std::lock_guard<support::TracedMutex> lock(mu_);
  if (!open_ || killed_) return false;
  if (!active_ && !start_active_locked()) return false;

  iv.first_seq = next_seq_++;
  const std::string bytes = active_writer_.encode_interval(iv);
  if (vfs_.append(path(active_->meta.name), bytes) != os::IoStatus::kOk) {
    // Counted, not fatal: the interval stays queryable in memory; if we
    // crash before a later successful write it shows up as loss in fsck.
    if (ctr_append_errors_ != nullptr) ctr_append_errors_->inc();
  }

  ManifestSegment& meta = active_->meta;
  if (active_->intervals.empty()) {
    meta.tick_lo = iv.tick_lo;
    meta.tick_hi = iv.tick_hi;
    meta.seq_lo = iv.first_seq;
  } else {
    meta.tick_lo = std::min(meta.tick_lo, iv.tick_lo);
    meta.tick_hi = std::max(meta.tick_hi, iv.tick_hi);
  }
  meta.seq_hi = iv.first_seq;
  meta.intervals += 1;
  meta.rows += iv.profile.row_count();
  if (ctr_ingest_intervals_ != nullptr) ctr_ingest_intervals_->inc();
  if (ctr_ingest_rows_ != nullptr) ctr_ingest_rows_->inc(iv.profile.row_count());
  active_->intervals.push_back(std::move(iv));

  if (check_kill()) return false;  // crash right after the append landed
  if (active_->intervals.size() >= config_.seal_after_intervals)
    seal_active_locked();
  return !killed_;
}

bool ProfileStore::seal_active() {
  std::lock_guard<support::TracedMutex> lock(mu_);
  if (!open_ || killed_) return false;
  return seal_active_locked();
}

bool ProfileStore::seal_active_locked() {
  if (!active_) return true;
  if (active_->intervals.empty()) {
    // Nothing to keep: retire the empty segment instead of sealing it.
    vfs_.remove(path(active_->meta.name));
    active_.reset();
    return swap_manifest();
  }
  if (vfs_.append(path(active_->meta.name),
                  active_writer_.encode_seal(active_->intervals.size())) !=
      os::IoStatus::kOk) {
    if (ctr_append_errors_ != nullptr) ctr_append_errors_->inc();
  }
  if (check_kill()) return false;  // crash after seal record, before manifest
  active_->meta.sealed = true;
  active_->tier = build_prefold(active_->intervals);
  sealed_.push_back(std::move(*active_));
  active_.reset();
  publish_prefold_rows_locked();
  if (ctr_seals_ != nullptr) ctr_seals_->inc();
  swap_manifest();
  if (killed_) return false;
  enforce_retention_locked();
  return !killed_;
}

void ProfileStore::enforce_retention_locked() {
  if (config_.retention_budget_rows == 0) return;
  std::uint64_t total = active_ ? active_->meta.rows : 0;
  for (const LoadedSegment& s : sealed_) total += s.meta.rows;

  std::size_t drop = 0;
  while (drop < sealed_.size() && total > config_.retention_budget_rows) {
    total -= sealed_[drop].meta.rows;
    ++drop;
  }
  if (drop == 0) return;

  for (std::size_t i = 0; i < drop; ++i) {
    const ManifestSegment& meta = sealed_[i].meta;
    dropped_intervals_ += meta.intervals;
    dropped_rows_ += meta.rows;
    dropped_segments_ += 1;
    if (ctr_dropped_intervals_ != nullptr) ctr_dropped_intervals_->inc(meta.intervals);
    if (ctr_dropped_rows_ != nullptr) ctr_dropped_rows_->inc(meta.rows);
    if (ctr_dropped_segments_ != nullptr) ctr_dropped_segments_->inc();
    tombstones_.push_back(meta.name);
  }
  sealed_.erase(sealed_.begin(), sealed_.begin() + static_cast<std::ptrdiff_t>(drop));
  publish_prefold_rows_locked();
  if (!swap_manifest()) {
    tombstones_.clear();
    return;
  }
  for (const std::string& name : tombstones_) vfs_.remove(path(name));
  tombstones_.clear();
  if (check_kill()) return;
  swap_manifest();
}

std::size_t ProfileStore::compact(support::ThreadPool* pool) {
  std::lock_guard<support::TracedMutex> lock(mu_);
  if (!open_ || killed_) return 0;

  // Plan deterministically, before any parallelism: maximal consecutive
  // runs of small sealed segments (consecutive in ingest order, so the
  // segments' seq spans stay ordered for retention), chunked to the fan-in.
  const std::uint64_t small_limit =
      static_cast<std::uint64_t>(config_.seal_after_intervals) * config_.compact_fanin;
  struct Job {
    std::size_t begin = 0, end = 0;  // input range in sealed_
    LoadedSegment out;
    std::string content;
    bool failed = false;
  };
  std::vector<Job> jobs;
  std::size_t i = 0;
  while (i < sealed_.size()) {
    if (sealed_[i].meta.intervals >= small_limit) {
      ++i;
      continue;
    }
    std::size_t run_end = i;
    while (run_end < sealed_.size() && sealed_[run_end].meta.intervals < small_limit)
      ++run_end;
    for (std::size_t b = i; b < run_end; b += config_.compact_fanin) {
      const std::size_t e = std::min(b + config_.compact_fanin, run_end);
      if (e - b >= config_.compact_min_segments) {
        Job j;
        j.begin = b;
        j.end = e;
        j.out.meta.id = next_segment_++;
        j.out.meta.name = segment_rel_name(j.out.meta.id);
        jobs.push_back(std::move(j));
      }
    }
    i = run_end;
  }
  if (jobs.empty()) {
    enforce_retention_locked();
    return 0;
  }

  const auto build = [&](std::size_t jx) {
    Job& j = jobs[jx];
    std::vector<const IntervalProfile*> ivs;
    for (std::size_t s = j.begin; s < j.end; ++s)
      for (const IntervalProfile& iv : sealed_[s].intervals) ivs.push_back(&iv);
    // Group by merge key and fold each group; the fold commutes, so only
    // the key decides what merges. The stable sort keeps the output bytes
    // a function of the inputs, and a group's first member carries its
    // smallest first_seq, which the merged interval keeps as its age.
    std::stable_sort(ivs.begin(), ivs.end(),
                     [](const IntervalProfile* a, const IntervalProfile* b) {
                       return merge_key(*a) < merge_key(*b);
                     });
    std::vector<IntervalProfile> merged;
    for (const IntervalProfile* iv : ivs) {
      if (!merged.empty() && merge_key(merged.back()) == merge_key(*iv)) {
        merged.back().profile.merge(iv->profile);
        merged.back().epoch_lo = std::min(merged.back().epoch_lo, iv->epoch_lo);
        merged.back().epoch_hi = std::max(merged.back().epoch_hi, iv->epoch_hi);
      } else {
        merged.push_back(*iv);
      }
    }
    SegmentWriter w(j.out.meta.id);
    j.content = w.header();
    ManifestSegment& meta = j.out.meta;
    meta.sealed = true;
    meta.seq_lo = sealed_[j.begin].meta.seq_lo;
    meta.seq_hi = sealed_[j.end - 1].meta.seq_hi;
    bool first = true;
    for (const IntervalProfile& iv : merged) {
      j.content += w.encode_interval(iv);
      meta.intervals += 1;
      meta.rows += iv.profile.row_count();
      meta.tick_lo = first ? iv.tick_lo : std::min(meta.tick_lo, iv.tick_lo);
      meta.tick_hi = first ? iv.tick_hi : std::max(meta.tick_hi, iv.tick_hi);
      first = false;
    }
    j.content += w.encode_seal(merged.size());
    // The output's tier from the inputs' (fewer rows than the intervals);
    // the inputs are read-only here, so jobs stay independent.
    j.out.tier = merge_prefolds(sealed_.data() + j.begin, sealed_.data() + j.end, merged);
    j.out.intervals = std::move(merged);
  };
  if (pool != nullptr) {
    pool->parallel_for(jobs.size(), build);
  } else {
    for (std::size_t jx = 0; jx < jobs.size(); ++jx) build(jx);
  }

  // Commit: outputs first (whole-file writes), then one manifest swap that
  // simultaneously adopts the outputs and tombstones the inputs, then file
  // deletion, then a second swap clearing the tombstones. A crash at any
  // point is recoverable: orphan outputs are discarded, tombstoned inputs
  // are deleted, and the data is always wholly in one generation.
  bool write_failed = false;
  for (Job& j : jobs) {
    if (vfs_.write(path(j.out.meta.name), j.content) != os::IoStatus::kOk) {
      j.failed = true;
      write_failed = true;
      if (ctr_append_errors_ != nullptr) ctr_append_errors_->inc();
    }
  }
  if (write_failed) {
    // Abort whole: inputs stay live, any outputs that did land are removed.
    for (const Job& j : jobs)
      if (!j.failed) vfs_.remove(path(j.out.meta.name));
    enforce_retention_locked();
    return 0;
  }
  if (check_kill()) return 0;  // crash: orphan outputs, previous manifest

  std::vector<LoadedSegment> next;
  next.reserve(sealed_.size());
  std::size_t jx = 0;
  for (std::size_t s = 0; s < sealed_.size();) {
    if (jx < jobs.size() && jobs[jx].begin == s) {
      for (std::size_t k = jobs[jx].begin; k < jobs[jx].end; ++k)
        tombstones_.push_back(sealed_[k].meta.name);
      next.push_back(std::move(jobs[jx].out));
      s = jobs[jx].end;
      ++jx;
    } else {
      next.push_back(std::move(sealed_[s]));
      ++s;
    }
  }
  sealed_ = std::move(next);
  publish_prefold_rows_locked();
  if (!swap_manifest()) {
    tombstones_.clear();
    if (killed_) return 0;
    // Swap rejected by an injected write fault: the old generation still
    // lists the inputs we just dropped from memory. Treat like a crash —
    // the store object is no longer coherent with disk.
    killed_ = true;
    return 0;
  }
  if (ctr_compactions_ != nullptr) ctr_compactions_->inc();
  for (const Job& j : jobs) {
    if (ctr_compact_in_ != nullptr) ctr_compact_in_->inc(j.end - j.begin);
    if (ctr_compact_out_ != nullptr) ctr_compact_out_->inc();
  }
  if (check_kill()) return jobs.size();  // crash: tombstoned files linger
  for (const std::string& name : tombstones_) vfs_.remove(path(name));
  tombstones_.clear();
  swap_manifest();
  enforce_retention_locked();
  return jobs.size();
}

// ---------------------------------------------------------------- queries

core::Profile ProfileStore::window_profile_locked(const WindowSpec& w) const {
  core::Profile out;
  std::uint64_t prefolds = 0, scanned = 0;
  const auto scan = [&](const IntervalProfile& iv) {
    if (!in_window(iv, w)) return;
    out.merge(iv.profile);
    ++scanned;
  };
  const auto take = [&](const LoadedSegment& s, const SessionFold& f) {
    if (!overlaps(f.tick_lo, f.tick_hi, w)) return;
    if (covers(w, f.tick_lo, f.tick_hi)) {
      out.merge(f.profile);
      ++prefolds;
      return;
    }
    for (const std::uint32_t i : f.members) scan(s.intervals[i]);
  };
  for (const LoadedSegment& s : sealed_) {
    const Prefold& t = s.tier;
    if (!overlaps(t.tick_lo, t.tick_hi, w)) continue;
    if (w.session.empty()) {
      if (covers(w, t.tick_lo, t.tick_hi)) {
        out.merge(t.all);
        ++prefolds;
        continue;
      }
      for (const SessionFold& f : t.sessions) take(s, f);
      continue;
    }
    for (const SessionFold& f : t.sessions)
      if (f.session == w.session) take(s, f);
  }
  if (active_)
    for (const IntervalProfile& iv : active_->intervals) scan(iv);
  if (ctr_query_prefolds_ != nullptr) ctr_query_prefolds_->inc(prefolds);
  if (ctr_query_scanned_ != nullptr) ctr_query_scanned_->inc(scanned);
  return out;
}

core::Profile ProfileStore::window_profile(const WindowSpec& w) const {
  std::lock_guard<support::TracedMutex> lock(mu_);
  return window_profile_locked(w);
}

std::optional<WindowSpec> parse_window(std::string_view spec, std::string session) {
  // Digits must come first: the scanner would skip leading whitespace.
  const auto number = [&spec](std::uint64_t& out) {
    return !spec.empty() && spec.front() >= '0' && spec.front() <= '9' &&
           support::scan_u64(spec, out);
  };
  WindowSpec w;
  w.session = std::move(session);
  if (!number(w.tick_lo)) return std::nullopt;
  w.tick_hi = w.tick_lo;
  if (support::scan_lit(spec, ":") && !number(w.tick_hi)) return std::nullopt;
  if (!spec.empty() || w.tick_lo > w.tick_hi) return std::nullopt;
  return w;
}

std::string ProfileStore::render_top(const WindowSpec& w,
                                     const std::vector<hw::EventKind>& events,
                                     std::size_t top_n) const {
  std::lock_guard<support::TracedMutex> lock(mu_);
  return window_profile_locked(w).render(events, top_n);
}

std::string ProfileStore::render_series(const WindowSpec& w, const std::string& image,
                                        const std::string& symbol,
                                        hw::EventKind event) const {
  std::lock_guard<support::TracedMutex> lock(mu_);
  // Per-tick sums of the row's count and of the event total: the fold is a
  // sum, so no per-tick profile is built. The map keeps ascending tick order.
  // Names are looked up once, never interned: a name no row carries counts 0.
  const auto image_name = support::Name::lookup(image);
  const auto symbol_name = support::Name::lookup(symbol);
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::pair<std::uint64_t, std::uint64_t>>
      ticks;
  const auto add = [&](const IntervalProfile& iv) {
    if (!in_window(iv, w)) return;
    auto& [count, total] = ticks[{iv.tick_lo, iv.tick_hi}];
    if (image_name && symbol_name)
      if (const core::ProfileRow* row = iv.profile.find(*image_name, *symbol_name))
        count += row->count(event);
    total += iv.profile.total(event);
  };
  for (const LoadedSegment& s : sealed_)
    if (overlaps(s.tier.tick_lo, s.tier.tick_hi, w))
      for (const IntervalProfile& iv : s.intervals) add(iv);
  if (active_)
    for (const IntervalProfile& iv : active_->intervals) add(iv);

  support::TextTable table({"Tick", "Count", "Total", "%"});
  for (const auto& [span, sums] : ticks) {
    const auto [count, total] = sums;
    const double pct =
        total == 0 ? 0.0
                   : 100.0 * static_cast<double>(count) / static_cast<double>(total);
    // "lo", or "lo-hi" for an interval folded over several ticks.
    char tick[41];
    char* end = std::to_chars(tick, tick + 20, span.first).ptr;
    if (span.first != span.second) {
      *end++ = '-';
      end = std::to_chars(end, end + 20, span.second).ptr;
    }
    table.cell(std::string_view(tick, static_cast<std::size_t>(end - tick)))
        .cell(count)
        .cell(total)
        .cell_fixed(pct, 4)
        .end_row();
  }
  return table.render();
}

std::string ProfileStore::render_diff(const WindowSpec& before, const WindowSpec& after,
                                      hw::EventKind event, std::size_t top_n) const {
  std::lock_guard<support::TracedMutex> lock(mu_);
  const core::Profile a = window_profile_locked(before);
  const core::Profile b = window_profile_locked(after);
  return core::render_diff(a, b, event, top_n);
}

std::string ProfileStore::render_segments() const {
  std::lock_guard<support::TracedMutex> lock(mu_);
  support::TextTable table({"Segment", "State", "Intervals", "Rows", "Ticks", "Seqs"});
  const auto add = [&](const LoadedSegment& s, const char* state) {
    table.add_row({s.meta.name, state, std::to_string(s.meta.intervals),
                   std::to_string(s.meta.rows),
                   std::to_string(s.meta.tick_lo) + "-" + std::to_string(s.meta.tick_hi),
                   std::to_string(s.meta.seq_lo) + "-" + std::to_string(s.meta.seq_hi)});
  };
  for (const LoadedSegment& s : sealed_) add(s, "sealed");
  if (active_) add(*active_, "active");
  return table.render();
}

std::vector<ProfileStore::StoredSession> ProfileStore::sessions() const {
  std::lock_guard<support::TracedMutex> lock(mu_);
  std::map<std::string, StoredSession> by_id;
  const auto fold = [&](const std::string& session, std::uint64_t intervals,
                        const core::Profile& profile) {
    StoredSession& s = by_id[session];
    s.session = session;
    s.intervals += intervals;
    for (const hw::EventKind event : hw::kAllEventKinds) s.records += profile.total(event);
  };
  for (const LoadedSegment& s : sealed_)
    for (const SessionFold& f : s.tier.sessions)
      fold(f.session, f.members.size(), f.profile);
  if (active_)
    for (const IntervalProfile& iv : active_->intervals) fold(iv.session, 1, iv.profile);
  std::vector<StoredSession> out;
  out.reserve(by_id.size());
  for (auto& [id, s] : by_id) out.push_back(std::move(s));
  return out;
}

std::uint64_t ProfileStore::live_intervals() const {
  std::lock_guard<support::TracedMutex> lock(mu_);
  std::uint64_t n = active_ ? active_->meta.intervals : 0;
  for (const LoadedSegment& s : sealed_) n += s.meta.intervals;
  return n;
}

std::uint64_t ProfileStore::live_rows() const {
  std::lock_guard<support::TracedMutex> lock(mu_);
  std::uint64_t n = active_ ? active_->meta.rows : 0;
  for (const LoadedSegment& s : sealed_) n += s.meta.rows;
  return n;
}

std::size_t ProfileStore::segment_count() const {
  std::lock_guard<support::TracedMutex> lock(mu_);
  return sealed_.size() + (active_ ? 1 : 0);
}

}  // namespace viprof::store
