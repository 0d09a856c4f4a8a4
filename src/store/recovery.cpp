// Store recovery: replay the manifest, salvage what the crash left.
//
// scan() is a pure read of the Vfs shared by fsck() (report only) and
// open() (apply: delete orphans and tombstoned files, rewrite damaged
// segments re-framed, publish a fresh manifest). Loss accounting is exact
// where the manifest is authoritative (sealed segments: manifest counts
// minus salvage) and framing-derived where it is not (the active segment:
// declared row counts of dropped intervals). A missing active segment
// leaves neither, so its loss is flagged unknown rather than counted as 0.
#include <algorithm>
#include <set>

#include "store/profile_store.hpp"
#include "support/str_scan.hpp"
#include "support/telemetry.hpp"

namespace viprof::store {

namespace {

std::uint64_t clamped_sub(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : 0;
}

/// The id in a "segments/seg-<id>.vseg" name, or nullopt for any other name.
std::optional<std::uint64_t> id_from_name(const std::string& rel) {
  return support::scan_name_number(rel, "segments/seg-", ".vseg");
}

}  // namespace

struct ProfileStore::ScanState {
  StoreRecovery rec;
  bool manifest_ok = false;
  std::uint64_t generation = 0;
  std::uint64_t next_seq = 1;
  std::uint64_t next_segment = 0;
  std::uint64_t dropped_intervals = 0, dropped_rows = 0, dropped_segments = 0;
  std::vector<LoadedSegment> loaded;
  std::set<std::string> rewrite;       // segment names to re-frame on open
  std::vector<std::string> remove;     // vfs paths to delete on open
};

void ProfileStore::scan(ScanState& st) const {
  StoreRecovery& rec = st.rec;
  const std::string tmppath = path("MANIFEST.tmp");
  const auto mtext = vfs_.read(path("MANIFEST"));
  std::optional<Manifest> man;
  if (mtext) man = Manifest::parse(*mtext);

  bool damage = false;
  if (vfs_.exists(tmppath)) {
    // A crash landed between the temp write and the rename; the temp file
    // is a dead letter (the generation it carried never committed).
    ++rec.orphans_removed;
    st.remove.push_back(tmppath);
    damage = true;
  }

  const std::string seg_prefix = path("segments/");
  const std::vector<std::string> files = vfs_.list(seg_prefix);
  const auto rel_of = [&](const std::string& full) {
    return config_.root.empty() ? full : full.substr(config_.root.size() + 1);
  };
  const auto note = [&](const std::string& name, const std::string& what) {
    rec.details += name + ": " + what + "\n";
  };
  std::uint64_t max_seq = 0, max_id = 0;
  const auto track = [&](const LoadedSegment& ls) {
    max_seq = std::max(max_seq, ls.meta.seq_hi);
    max_id = std::max(max_id, ls.meta.id);
  };
  const auto load_salvaged = [&](SegmentSalvage&& sv, ManifestSegment meta) {
    meta.sealed = true;
    meta.intervals = sv.intervals.size();
    meta.rows = 0;
    bool first = true;
    for (const IntervalProfile& iv : sv.intervals) {
      meta.rows += iv.profile.row_count();
      meta.tick_lo = first ? iv.tick_lo : std::min(meta.tick_lo, iv.tick_lo);
      meta.tick_hi = first ? iv.tick_hi : std::max(meta.tick_hi, iv.tick_hi);
      meta.seq_lo = first ? iv.first_seq : std::min(meta.seq_lo, iv.first_seq);
      meta.seq_hi = first ? iv.first_seq : std::max(meta.seq_hi, iv.first_seq);
      first = false;
    }
    rec.intervals_salvaged += meta.intervals;
    rec.rows_salvaged += meta.rows;
    ++rec.segments_loaded;
    LoadedSegment ls;
    ls.meta = std::move(meta);
    ls.intervals = std::move(sv.intervals);
    track(ls);
    st.loaded.push_back(std::move(ls));
  };

  if (!man) {
    if (!mtext && files.empty()) {
      // Nothing at all: a brand new store (or only a dead MANIFEST.tmp).
      rec.fresh = !damage;
      rec.verdict = damage ? core::FsckVerdict::kSalvaged : core::FsckVerdict::kClean;
    } else {
      // Manifest missing or corrupt but segments exist: rebuild from a full
      // scan. The retention-drop bins cannot be recovered — noted, not
      // silently zeroed.
      rec.manifest_rebuilt = true;
      damage = true;
      if (mtext) note("MANIFEST", "corrupt, rebuilt from segment scan");
      else note("MANIFEST", "missing, rebuilt from segment scan");
      rec.details += "MANIFEST: cumulative retention-drop bins lost in rebuild\n";
      std::vector<std::size_t> unnumbered;  // st.loaded slots still needing an id
      for (const std::string& full : files) {
        const auto text = vfs_.read(full);
        const std::string rel = rel_of(full);
        SegmentSalvage sv = read_segment(*text, id_from_name(rel));
        rec.lines_discarded += sv.lines_discarded;
        rec.intervals_lost += sv.intervals_dropped;
        rec.rows_lost += sv.rows_dropped;
        if (sv.intervals.empty()) {
          ++rec.segments_lost;
          st.remove.push_back(full);
          note(rel, "dead segment (nothing salvageable)");
          continue;
        }
        ManifestSegment meta;
        meta.name = rel;
        const auto id = sv.header_ok ? sv.segment_id : id_from_name(rel);
        if (!id) {
          note(rel, "no segment id in its header or name; numbered after the rest");
          unnumbered.push_back(st.loaded.size());
        }
        meta.id = id.value_or(0);
        if (!sv.clean())
          note(rel, "salvaged " + std::to_string(sv.intervals.size()) +
                        " interval(s), dropped " +
                        std::to_string(sv.intervals_dropped));
        st.rewrite.insert(rel);
        load_salvaged(std::move(sv), std::move(meta));
      }
      for (const std::size_t i : unnumbered) st.loaded[i].meta.id = ++max_id;
      rec.verdict = st.loaded.empty() ? core::FsckVerdict::kUnrecoverable
                                      : core::FsckVerdict::kSalvaged;
    }
  } else {
    st.manifest_ok = true;
    st.generation = man->generation;
    st.next_seq = man->next_seq;
    st.next_segment = man->next_segment;
    st.dropped_intervals = man->dropped_intervals;
    st.dropped_rows = man->dropped_rows;
    st.dropped_segments = man->dropped_segments;

    const std::set<std::string> tomb(man->tombstones.begin(), man->tombstones.end());
    for (const std::string& t : man->tombstones) {
      // Crash between the adopting swap and file deletion: finish the job.
      if (vfs_.exists(path(t))) st.remove.push_back(path(t));
      ++rec.tombstones_cleared;
      damage = true;
      note(t, "tombstone cleared");
    }

    std::set<std::string> live;
    for (const ManifestSegment& ms : man->segments) {
      live.insert(ms.name);
      const auto text = vfs_.read(path(ms.name));
      if (!text) {
        ++rec.segments_lost;
        damage = true;
        if (ms.sealed) {
          rec.intervals_lost += ms.intervals;
          rec.rows_lost += ms.rows;
          note(ms.name, "file missing; manifest counted " +
                            std::to_string(ms.intervals) + " interval(s), " +
                            std::to_string(ms.rows) + " row(s)");
        } else {
          // The manifest never holds an active segment's counts.
          rec.loss_unknown = true;
          note(ms.name, "active segment file missing; loss unknown");
        }
        continue;
      }
      SegmentSalvage sv = read_segment(*text, ms.id);
      rec.lines_discarded += sv.lines_discarded;
      if (ms.sealed) {
        // Manifest counts are authoritative: exact loss.
        const std::uint64_t lost_iv = clamped_sub(ms.intervals, sv.intervals_salvaged);
        const std::uint64_t lost_rows = clamped_sub(ms.rows, sv.rows_salvaged);
        rec.intervals_lost += lost_iv;
        rec.rows_lost += lost_rows;
        if (!sv.clean() || lost_iv != 0) {
          damage = true;
          st.rewrite.insert(ms.name);
          note(ms.name, "sealed segment damaged: lost " + std::to_string(lost_iv) +
                            " of " + std::to_string(ms.intervals) +
                            " interval(s), " + std::to_string(lost_rows) + " row(s)");
        }
        if (sv.intervals.empty() && ms.intervals > 0) {
          ++rec.segments_lost;
          st.remove.push_back(path(ms.name));
          st.rewrite.erase(ms.name);
          note(ms.name, "dead segment (nothing salvageable)");
          continue;
        }
      } else {
        // The active segment at crash time: the manifest never held its
        // counts, so the framing's declared-row accounting is the record.
        rec.intervals_lost += sv.intervals_dropped;
        rec.rows_lost += sv.rows_dropped;
        if (!sv.clean()) {
          damage = true;
          note(ms.name, "active segment salvaged: " +
                            std::to_string(sv.intervals_salvaged) +
                            " interval(s) kept, " +
                            std::to_string(sv.intervals_dropped) + " dropped");
        }
        if (sv.intervals.empty()) {
          st.remove.push_back(path(ms.name));
          continue;  // empty active: retire, no loss beyond counted drops
        }
        st.rewrite.insert(ms.name);  // re-frame + seal on open
      }
      load_salvaged(std::move(sv), ms);
    }

    for (const std::string& full : files) {
      const std::string rel = rel_of(full);
      if (live.count(rel) != 0 || tomb.count(rel) != 0) continue;
      ++rec.orphans_removed;
      st.remove.push_back(full);
      damage = true;
      const auto text = vfs_.read(full);
      SegmentSalvage sv = read_segment(*text, id_from_name(rel));
      if (sv.sealed) {
        // Compaction output that never got adopted; its inputs are still
        // live in this generation, so discarding it loses nothing.
        note(rel, "orphan removed (unadopted compaction output)");
      } else {
        rec.intervals_lost += sv.intervals_salvaged + sv.intervals_dropped;
        rec.rows_lost += sv.rows_salvaged + sv.rows_dropped;
        note(rel, "unsealed orphan removed; " +
                      std::to_string(sv.intervals_salvaged + sv.intervals_dropped) +
                      " interval(s) counted lost");
      }
    }
    rec.verdict =
        damage ? core::FsckVerdict::kSalvaged : core::FsckVerdict::kClean;
  }

  std::sort(st.loaded.begin(), st.loaded.end(),
            [](const LoadedSegment& a, const LoadedSegment& b) {
              if (a.meta.seq_lo != b.meta.seq_lo) return a.meta.seq_lo < b.meta.seq_lo;
              return a.meta.id < b.meta.id;
            });
  st.next_seq = std::max(st.next_seq, max_seq + 1);
  st.next_segment = std::max(st.next_segment, max_id + 1);

  rec.summary = "store fsck: " + std::string(core::to_string(rec.verdict)) + " - " +
                std::to_string(rec.segments_loaded) + " segment(s) loaded, " +
                std::to_string(rec.intervals_salvaged) + " interval(s)/" +
                std::to_string(rec.rows_salvaged) + " row(s) salvaged, " +
                std::to_string(rec.intervals_lost) + " interval(s)/" +
                std::to_string(rec.rows_lost) + " row(s) lost" +
                (rec.loss_unknown ? " + unknown (active segment missing), " : ", ") +
                std::to_string(rec.orphans_removed) + " orphan(s), " +
                std::to_string(rec.segments_lost) + " segment(s) lost";
}

StoreRecovery ProfileStore::fsck() const {
  std::lock_guard<support::TracedMutex> lock(mu_);
  ScanState st;
  scan(st);
  return st.rec;
}

StoreRecovery ProfileStore::open() {
  std::lock_guard<support::TracedMutex> lock(mu_);
  ScanState st;
  scan(st);

  for (const std::string& p : st.remove) vfs_.remove(p);
  sealed_ = std::move(st.loaded);
  // The query tier is derived, never persisted: rebuilt from what salvage
  // kept, so its fences are those of the intervals actually held.
  for (LoadedSegment& s : sealed_) s.tier = build_prefold(s.intervals);
  publish_prefold_rows_locked();
  active_.reset();
  tombstones_.clear();
  generation_ = st.generation;
  next_seq_ = st.next_seq;
  next_segment_ = st.next_segment;
  dropped_intervals_ = st.dropped_intervals;
  dropped_rows_ = st.dropped_rows;
  dropped_segments_ = st.dropped_segments;

  // Re-frame every segment salvage touched (and seal the one that was
  // active), so the next crash starts from intact files.
  for (LoadedSegment& s : sealed_) {
    if (st.rewrite.count(s.meta.name) == 0) continue;
    SegmentWriter w(s.meta.id);
    std::string content = w.header();
    for (const IntervalProfile& iv : s.intervals) content += w.encode_interval(iv);
    content += w.encode_seal(s.intervals.size());
    if (vfs_.write(path(s.meta.name), content) != os::IoStatus::kOk) {
      if (ctr_append_errors_ != nullptr) ctr_append_errors_->inc();
    }
  }

  open_ = true;
  swap_manifest();

  if (support::Telemetry* t = config_.telemetry) {
    t->counter("store.recovery.opens").inc();
    t->counter("store.recovery.intervals_salvaged").inc(st.rec.intervals_salvaged);
    t->counter("store.recovery.intervals_lost").inc(st.rec.intervals_lost);
    t->counter("store.recovery.rows_lost").inc(st.rec.rows_lost);
    t->counter("store.recovery.orphans_removed").inc(st.rec.orphans_removed);
    t->counter("store.recovery.segments_lost").inc(st.rec.segments_lost);
  }
  return st.rec;
}

}  // namespace viprof::store
