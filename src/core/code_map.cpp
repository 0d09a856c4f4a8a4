#include "core/code_map.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "support/check.hpp"
#include "support/format.hpp"

namespace viprof::core {

namespace {

// Parses one "addr size symbol" entry line; false on any malformation
// (including a symbol longer than the 511-char on-disk limit, or trailing
// junk after the symbol).
bool parse_entry_line(std::string_view line, CodeMapEntry& entry) {
  std::uint64_t addr = 0;
  std::uint64_t size = 0;
  std::string_view symbol;
  if (!support::scan_hex64(line, addr) || !support::scan_u64(line, size) ||
      !support::scan_token(line, symbol) || symbol.size() > 511 ||
      !support::at_end(line)) {
    return false;
  }
  entry.address = addr;
  entry.size = size;
  entry.symbol = symbol;
  return true;
}

std::string header_line(std::uint64_t epoch, std::size_t entries) {
  return "epoch " + std::to_string(epoch) + " entries " + std::to_string(entries);
}

// Header "epoch N entries M" with nothing after M.
bool parse_header_line(std::string_view line, std::uint64_t& epoch,
                       std::uint64_t& expected) {
  if (!support::scan_lit(line, "epoch") || !support::scan_u64(line, epoch)) {
    return false;
  }
  support::skip_ws(line);
  return support::scan_lit(line, "entries") && support::scan_u64(line, expected) &&
         support::at_end(line);
}

}  // namespace

support::FrameHash CodeMapFile::frame_hash(hw::Pid pid, std::uint64_t epoch) {
  return support::FrameHash::v2(support::frame_key(support::FrameKind::kCodeMap, pid, epoch));
}

std::string CodeMapFile::serialize(hw::Pid pid) const {
  std::string out = header_line(epoch, entries.size()) + "\n";
  if (truncated) out += "truncated\n";
  for (const CodeMapEntry& e : entries) {
    out += support::hex(e.address);
    out += ' ';
    out += std::to_string(e.size);
    out += ' ';
    out += e.symbol.view();
    out += '\n';
  }
  support::append_crc_trailer(out, frame_hash(pid, epoch));
  return out;
}

std::optional<CodeMapFile> CodeMapFile::parse(const std::string& contents,
                                              support::FrameHash hash) {
  // Strict parse accepts only fully verified files. A `truncated` marker
  // written by fsck is fine: the rewritten file carries its own header
  // count and crc, so it verifies as intact while keeping the flag.
  const Recovery r = salvage(contents, hash, 0);
  if (!r.intact) return std::nullopt;
  return r.file;
}

CodeMapFile::Recovery CodeMapFile::salvage(const std::string& contents,
                                           support::FrameHash hash,
                                           std::uint64_t epoch_hint) {
  Recovery r;
  r.file.epoch = epoch_hint;
  // An unreadable header leaves epoch_hint standing and nothing salvageable.
  const support::FramedWalk w = support::walk_framed_file(
      contents, hash,
      [&r](std::string_view line) {
        std::uint64_t epoch = 0, expected = 0;
        if (!parse_header_line(line, epoch, expected)) return false;
        r.file.epoch = epoch;
        r.entries_expected = expected;
        return true;
      },
      [&r](std::string_view line) {
        // An entry past the declared count is damage too: the header is
        // what loss is counted against.
        CodeMapEntry e;
        if (r.file.entries.size() == r.entries_expected || !parse_entry_line(line, e))
          return false;
        r.file.entries.push_back(std::move(e));
        return true;
      });
  r.header_ok = w.header_ok;
  r.intact = w.intact && r.file.entries.size() == r.entries_expected;
  r.file.truncated = w.truncated || !r.intact;
  r.refused = !support::walked_items_usable(contents, w, hash,
                                            header_line(epoch_hint, r.entries_expected));
  return r;
}

CodeMapFile::Recovery CodeMapFile::salvage_file(const std::string& path,
                                                const std::string& contents) {
  const auto name_epoch = epoch_from_path(path);
  const std::uint64_t epoch = name_epoch.value_or(0);
  Recovery r = salvage(contents, frame_hash(pid_from_map_path(path).value_or(0), epoch), epoch);
  if (!r.intact && name_epoch) r.file.epoch = *name_epoch;
  if (r.refused) r.file.entries.clear();
  return r;
}

std::optional<hw::Pid> pid_from_map_path(std::string_view path) {
  const std::size_t last = path.rfind('/');
  if (last == std::string_view::npos || last == 0) return std::nullopt;
  const std::size_t prev = path.rfind('/', last - 1);
  const std::size_t begin = prev == std::string_view::npos ? 0 : prev + 1;
  const std::string_view digits = path.substr(begin, last - begin);
  // Only the spelling std::to_string gives ("12", never "012" or a value
  // past 32 bits): path_for writes it, and a reload of the pid lists it.
  if (digits.empty() || digits.size() > 10 || (digits[0] == '0' && digits.size() > 1))
    return std::nullopt;
  std::uint64_t pid = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    pid = pid * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (pid > std::numeric_limits<hw::Pid>::max()) return std::nullopt;
  return static_cast<hw::Pid>(pid);
}

std::string CodeMapFile::path_for(const std::string& dir, hw::Pid pid,
                                  std::uint64_t epoch) {
  char buf[64];
  // Zero-padded epoch keeps VFS listing in epoch order.
  std::snprintf(buf, sizeof buf, "/%u/map.%08llu", pid,
                static_cast<unsigned long long>(epoch));
  return dir + buf;
}

std::optional<std::uint64_t> CodeMapFile::epoch_from_path(const std::string& path) {
  return support::scan_basename_number(path, "map.");
}

CodeMapIndex::CodeMapIndex(CodeMapIndex&& other) noexcept {
  *this = std::move(other);
}

CodeMapIndex& CodeMapIndex::operator=(CodeMapIndex&& other) noexcept {
  if (this != &other) {
    // Moves require exclusive access to both sides (no concurrent queries),
    // like any other mutation; no locking needed.
    maps_ = std::move(other.maps_);
    total_entries_ = other.total_entries_;
    truncated_count_ = other.truncated_count_;
    bounds_ = std::move(other.bounds_);
    slot_of_ = std::move(other.slot_of_);
    versions_ = std::move(other.versions_);
    epochs_ = std::move(other.epochs_);
    trunc_epochs_ = std::move(other.trunc_epochs_);
    gap_below_ = std::move(other.gap_below_);
    flat_ready_.store(other.flat_ready_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    other.flat_ready_.store(false, std::memory_order_relaxed);
  }
  return *this;
}

CodeMapIndex::LoadStats CodeMapIndex::load(const os::Vfs& vfs, const std::string& dir,
                                           hw::Pid pid) {
  LoadStats stats;
  const std::string prefix = dir + "/" + std::to_string(pid) + "/map.";
  for (const std::string& path : vfs.list(prefix)) {
    const auto contents = vfs.read(path);
    VIPROF_CHECK(contents.has_value());
    // The file name carries the epoch, so even a fully corrupt file still
    // registers its epoch as truncated — the resolver must know the epoch
    // existed and is unaccounted for.
    const CodeMapFile::Recovery r = CodeMapFile::salvage_file(path, *contents);
    ++stats.maps_loaded;
    if (r.file.truncated) {
      ++stats.maps_truncated;
      stats.entries_salvaged += r.file.entries.size();
    } else {
      ++stats.maps_intact;
    }
    stats.entries_loaded += r.file.entries.size();
    add(r.file);
  }
  prepare();
  return stats;
}

void CodeMapIndex::add(CodeMapFile file) {
  flat_ready_.store(false, std::memory_order_release);
  auto it = maps_.find(file.epoch);
  if (it == maps_.end()) {
    EpochMap map;
    map.entries = std::move(file.entries);
    map.truncated = file.truncated;
    std::sort(map.entries.begin(), map.entries.end(),
              [](const CodeMapEntry& a, const CodeMapEntry& b) {
                return a.address < b.address;
              });
    total_entries_ += map.entries.size();
    if (map.truncated) ++truncated_count_;
    maps_.emplace(file.epoch, std::move(map));
    return;
  }
  // Epoch collision: two files claimed this epoch (typically two damaged
  // files salvaged under the same file-name hint). Merge the entries and
  // mark the epoch truncated — which file's entries are authoritative is
  // unknowable, so absence from the union must not prove anything.
  EpochMap& map = it->second;
  total_entries_ += file.entries.size();
  map.entries.insert(map.entries.end(),
                     std::make_move_iterator(file.entries.begin()),
                     std::make_move_iterator(file.entries.end()));
  std::sort(map.entries.begin(), map.entries.end(),
            [](const CodeMapEntry& a, const CodeMapEntry& b) {
              return a.address < b.address;
            });
  if (!map.truncated) ++truncated_count_;
  map.truncated = true;
}

const CodeMapEntry* CodeMapIndex::find_in(const EpochMap& map, hw::Address pc) const {
  auto e = std::upper_bound(map.entries.begin(), map.entries.end(), pc,
                            [](hw::Address a, const CodeMapEntry& m) {
                              return a < m.address;
                            });
  if (e == map.entries.begin()) return nullptr;
  --e;
  return e->contains(pc) ? &*e : nullptr;
}

void CodeMapIndex::prepare() const {
  if (flat_ready_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(flat_mu_);
  if (flat_ready_.load(std::memory_order_relaxed)) return;
  build_flat();
  flat_ready_.store(true, std::memory_order_release);
}

void CodeMapIndex::build_flat() const {
  bounds_.clear();
  slot_of_.clear();
  versions_.clear();
  epochs_.clear();
  trunc_epochs_.clear();
  gap_below_.clear();

  epochs_.reserve(maps_.size());
  for (const auto& [epoch, map] : maps_) {
    epochs_.push_back(epoch);
    if (map.truncated) trunc_epochs_.push_back(epoch);
  }

  gap_below_.reserve(epochs_.size());
  for (std::size_t i = 0; i < epochs_.size(); ++i) {
    if (i == 0) {
      gap_below_.push_back(epochs_[0] > 0 ? epochs_[0] - 1 : kNoGap);
    } else if (epochs_[i - 1] + 1 == epochs_[i]) {
      gap_below_.push_back(gap_below_[i - 1]);  // contiguous: inherit
    } else {
      gap_below_.push_back(epochs_[i] - 1);
    }
  }

  // The effective coverage of one epoch map mirrors find_in() exactly: the
  // segment of sorted entry i is [addr_i, min(addr_i + size_i, addr_{i+1}))
  // — a predecessor probe never sees past the next entry's start, so an
  // overlapped prefix stays a hole (exposing older epochs), duplicates
  // yield empty segments, and address+size overflow means no coverage.
  const auto each_segment = [](const EpochMap& map, const auto& fn) {
    const auto& es = map.entries;
    for (std::size_t i = 0; i < es.size(); ++i) {
      const hw::Address lo = es[i].address;
      hw::Address hi = lo + es[i].size;
      if (hi <= lo) continue;  // zero size, or wrapped: contains() never true
      if (i + 1 < es.size() && es[i + 1].address < hi) hi = es[i + 1].address;
      if (hi <= lo) continue;
      fn(lo, hi, &es[i]);
    }
  };

  // Borders: each map's segments are disjoint and address-sorted, so each
  // map appends one sorted run; adjacent runs are then merged pairwise,
  // O(n log k) for k maps instead of a full sort.
  bounds_.reserve(2 * total_entries_);
  {
    std::vector<std::size_t> runs;  // start of each run in bounds_, then the end
    runs.reserve(maps_.size() + 1);
    for (const auto& [epoch, map] : maps_) {
      runs.push_back(bounds_.size());
      each_segment(map, [this](hw::Address lo, hw::Address hi, const CodeMapEntry*) {
        bounds_.push_back(lo);
        bounds_.push_back(hi);
      });
    }
    runs.push_back(bounds_.size());
    const auto at = [this](std::size_t i) {
      return bounds_.begin() + static_cast<std::ptrdiff_t>(i);
    };
    while (runs.size() > 2) {
      std::size_t kept = 0;
      std::size_t r = 0;
      for (; r + 2 < runs.size(); r += 2) {
        std::inplace_merge(at(runs[r]), at(runs[r + 1]), at(runs[r + 2]));
        runs[kept++] = runs[r];
      }
      if (r + 2 == runs.size()) runs[kept++] = runs[r];  // odd run: next round
      runs[kept++] = runs.back();
      runs.resize(kept);
    }
  }
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());

  // Versions, in two passes over the same segments in ascending-epoch
  // order: count per elementary slot, then place at each slot's cursor, so
  // every slot's list comes out epoch-ascending with no per-slot container.
  // Within one map the segments ascend, so each border search gallops on
  // from the previous one: O(log gap) rather than O(log n) per segment.
  const auto seek = [this](std::size_t from, hw::Address x) {
    const std::size_t n = bounds_.size();
    if (from >= n || bounds_[from] >= x) return from;
    std::size_t lo = from;  // bounds_[lo] < x
    std::size_t step = 1;
    while (lo + step < n && bounds_[lo + step] < x) {
      lo += step;
      step *= 2;
    }
    const auto first = bounds_.begin() + static_cast<std::ptrdiff_t>(lo + 1);
    const auto last = bounds_.begin() + static_cast<std::ptrdiff_t>(std::min(lo + step, n));
    return static_cast<std::size_t>(std::lower_bound(first, last, x) - bounds_.begin());
  };
  const auto each_cover = [this, &each_segment, &seek](const auto& fn) {
    std::uint32_t ord = 0;
    for (const auto& [epoch, map] : maps_) {
      std::size_t from = 0;
      each_segment(map, [&](hw::Address lo, hw::Address hi, const CodeMapEntry* entry) {
        const std::size_t j0 = seek(from, lo);
        from = seek(j0, hi);
        fn(j0, from, Version{entry, ord});
      });
      ++ord;
    }
  };

  const std::size_t slots = bounds_.empty() ? 0 : bounds_.size() - 1;
  slot_of_.assign(slots + 1, 0);
  each_cover([this](std::size_t j0, std::size_t j1, const Version&) {
    for (std::size_t j = j0; j < j1; ++j) ++slot_of_[j + 1];
  });
  for (std::size_t j = 0; j < slots; ++j) slot_of_[j + 1] += slot_of_[j];
  versions_.resize(slot_of_[slots]);
  // slot_of_[j] is slot j's fill cursor; once filled it holds slot j+1's
  // start, and shifting right by one restores the offsets.
  each_cover([this](std::size_t j0, std::size_t j1, const Version& v) {
    for (std::size_t j = j0; j < j1; ++j) versions_[slot_of_[j]++] = v;
  });
  if (slots > 0) {
    std::copy_backward(slot_of_.begin(), slot_of_.end() - 2, slot_of_.end() - 1);
    slot_of_[0] = 0;
  }
}

const CodeMapIndex::Version* CodeMapIndex::flat_find(hw::Address pc,
                                                     std::uint64_t epoch) const {
  if (bounds_.size() < 2 || pc < bounds_.front() || pc >= bounds_.back()) {
    return nullptr;
  }
  const std::size_t j = static_cast<std::size_t>(
      std::upper_bound(bounds_.begin(), bounds_.end(), pc) - bounds_.begin() - 1);
  const auto begin = versions_.begin() + static_cast<std::ptrdiff_t>(slot_of_[j]);
  const auto end = versions_.begin() + static_cast<std::ptrdiff_t>(slot_of_[j + 1]);
  const auto it = std::upper_bound(
      begin, end, epoch,
      [this](std::uint64_t q, const Version& v) { return q < epochs_[v.ord]; });
  if (it == begin) return nullptr;  // interval unoccupied at or before `epoch`
  return &*(it - 1);
}

std::optional<CodeMapIndex::Hit> CodeMapIndex::resolve(hw::Address pc,
                                                       std::uint64_t epoch) const {
  prepare();
  const Version* v = flat_find(pc, epoch);
  if (v == nullptr) return std::nullopt;
  // The lax walk visits every loaded map from the newest at or below
  // `epoch` down to the hit, so the reported depth is an ord distance.
  const auto top = std::upper_bound(epochs_.begin(), epochs_.end(), epoch);
  const auto top_ord = static_cast<std::uint32_t>(top - epochs_.begin() - 1);
  return Hit{v->entry->symbol, epochs_[v->ord], top_ord - v->ord + 1, v->entry->address,
             v->entry->size};
}

CodeMapIndex::Lookup CodeMapIndex::lookup(hw::Address pc, std::uint64_t epoch) const {
  Lookup out;
  if (maps_.empty()) {
    out.miss = JitLookupMiss::kNoMaps;
    return out;
  }
  prepare();

  // Newest loaded epoch at or below the query epoch, if any.
  const auto top = std::upper_bound(epochs_.begin(), epochs_.end(), epoch);
  // Newest *missing* integer epoch <= query: the query epoch itself when it
  // has no map, else the precomputed gap below the walk's entry point.
  std::uint64_t gap = kNoGap;
  if (top == epochs_.begin()) {
    gap = epoch;  // nothing loaded at or below the query epoch
  } else {
    const std::size_t top_idx = static_cast<std::size_t>(top - epochs_.begin() - 1);
    gap = epochs_[top_idx] == epoch ? gap_below_[top_idx] : epoch;
  }
  // Newest truncated epoch <= query.
  const auto tt = std::upper_bound(trunc_epochs_.begin(), trunc_epochs_.end(), epoch);
  const bool has_trunc = tt != trunc_epochs_.begin();
  const std::uint64_t trunc = has_trunc ? *(tt - 1) : 0;

  const Version* v = flat_find(pc, epoch);
  // The walk stops at whichever poison epoch it meets first (the highest
  // one) on the way down from `epoch` — but only if that is *above* the
  // hit; a hit inside a truncated map is still a hit (verified checksum).
  const std::uint64_t found = v != nullptr ? epochs_[v->ord] : 0;
  const bool gap_aborts = gap != kNoGap && (v == nullptr || gap > found);
  const bool trunc_aborts = has_trunc && (v == nullptr || trunc > found);
  if (!gap_aborts && !trunc_aborts) {
    if (v != nullptr) {
      // All integer epochs in [hit, query] have maps (no gap above the
      // hit), so the walk depth is the plain epoch distance.
      out.hit = Hit{v->entry->symbol, found,
                    static_cast<std::uint32_t>(epoch - found + 1),
                    v->entry->address, v->entry->size};
    } else {
      out.miss = JitLookupMiss::kNotFound;  // reached epoch 0 intact
    }
    return out;
  }
  out.miss = (gap_aborts && (!trunc_aborts || gap > trunc))
                 ? JitLookupMiss::kMissingEpochMap
                 : JitLookupMiss::kTruncatedMap;
  return out;
}

std::optional<CodeMapIndex::Hit> CodeMapIndex::resolve_walkback(
    hw::Address pc, std::uint64_t epoch) const {
  std::uint32_t searched = 0;
  // Iterate epochs <= `epoch` from newest to oldest.
  auto it = maps_.upper_bound(epoch);
  while (it != maps_.begin()) {
    --it;
    ++searched;
    if (const CodeMapEntry* e = find_in(it->second, pc)) {
      return Hit{e->symbol, it->first, searched, e->address, e->size};
    }
  }
  return std::nullopt;
}

CodeMapIndex::Lookup CodeMapIndex::lookup_walkback(hw::Address pc,
                                                   std::uint64_t epoch) const {
  Lookup out;
  if (maps_.empty()) {
    out.miss = JitLookupMiss::kNoMaps;
    return out;
  }
  std::uint32_t searched = 0;
  for (std::uint64_t e = epoch;; --e) {
    auto it = maps_.find(e);
    if (it == maps_.end()) {
      // This epoch's map was lost. Some method may have been compiled or
      // moved here; falling through to an older map could resurrect a
      // stale placement, so the sample is explicitly unresolvable.
      out.miss = JitLookupMiss::kMissingEpochMap;
      return out;
    }
    ++searched;
    if (const CodeMapEntry* entry = find_in(it->second, pc)) {
      // A salvaged entry carries a verified checksum, so a hit is a hit
      // even inside a truncated map.
      out.hit = Hit{entry->symbol, e, searched, entry->address, entry->size};
      return out;
    }
    if (it->second.truncated) {
      // Absence from a truncated map proves nothing — the entry covering
      // `pc` may be among the lost lines.
      out.miss = JitLookupMiss::kTruncatedMap;
      return out;
    }
    if (e == 0) break;
  }
  out.miss = JitLookupMiss::kNotFound;
  return out;
}

std::uint64_t CodeMapIndex::max_epoch() const {
  if (maps_.empty()) return 0;
  return maps_.rbegin()->first;
}

}  // namespace viprof::core
