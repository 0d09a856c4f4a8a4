// Epoch-keyed JIT code maps (paper Sections 3.1-3.3).
//
// The VM agent writes one *partial* map per execution epoch, just before the
// GC that closes it: methods compiled or recompiled during the epoch, plus
// methods the previous collection moved. Post-processing resolves a sample
// against the map of the sample's epoch and walks *backwards* through older
// maps until it finds the first map containing an address range that covers
// the PC — guaranteeing attribution to "the most recently compiled — or
// moved — method to occupy that address space".
//
// Crash consistency: the file format carries an entry count in the header
// and a checksum trailer keyed by (pid, epoch), which the reader takes from
// the map's path (framed-text v2). A map that lost its tail (the VM died
// mid-write, the disk tore the page) is detected, a parsing prefix of its
// entries is salvaged, and the map is marked *truncated*; a whole map whose
// trailer fails under its path's key (copied from another pid or epoch, or
// a v1 map) keeps no entries. The backward search refuses to step past a
// missing or truncated map it cannot decide on — such samples become
// explicit `unresolved.*` outcomes instead of being silently attributed to
// a stale neighbour.
//
// Query cost (DESIGN.md §9): the literal per-sample backward walk is
// O(epochs · log entries). The index therefore flattens the maps once per
// load into a merged interval view — every address range annotated with the
// epochs at which its occupant changed — so resolve()/lookup() are a single
// O(log n) probe. Gap and truncation positions are precomputed alongside,
// keeping kMissingEpochMap/kTruncatedMap outcomes bit-identical to the
// walk; resolve_walkback()/lookup_walkback() keep the original algorithms
// as the property-test oracle.
//
// Build cost: the view is a compressed-sparse-row layout (one flat version
// array plus per-interval offsets) written directly, with no per-interval
// container. Each map's segments form one sorted run of borders; the runs
// merge pairwise (O(n log k) for k maps), then two passes over the segments
// in ascending-epoch order count versions per interval and place them.
// prepare() therefore allocates a constant number of times, whatever the
// entry count, and holds no transient state past its return.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "hw/types.hpp"
#include "os/vfs.hpp"
#include "support/framed_text.hpp"
#include "support/interner.hpp"

namespace viprof::core {

struct CodeMapEntry {
  hw::Address address = 0;
  std::uint64_t size = 0;
  support::Name symbol;  // fully qualified method name, interned at load

  bool contains(hw::Address pc) const { return pc >= address && pc < address + size; }
};

/// One epoch's map: serialisation to/from the VFS file format.
struct CodeMapFile {
  std::uint64_t epoch = 0;
  /// Known-incomplete map: a salvaged prefix of a damaged file (set by
  /// salvage(), preserved across re-serialisation so a recovered tree
  /// stays honest about what it lost).
  bool truncated = false;
  std::vector<CodeMapEntry> entries;

  /// The frame hash of the map at path_for(dir, pid, epoch).
  static support::FrameHash frame_hash(hw::Pid pid, std::uint64_t epoch);

  /// The file bytes of this map as `pid`'s (framed under frame_hash(pid, epoch)).
  std::string serialize(hw::Pid pid) const;

  /// Strict parse: header, declared entry count and checksum trailer (under
  /// `hash`) must all verify. nullopt on any damage (use salvage() to
  /// recover).
  static std::optional<CodeMapFile> parse(const std::string& contents,
                                          support::FrameHash hash);

  /// Tolerant parse for damaged files: recovers the longest parsing prefix
  /// of entries, and says whether anything vouches for them (`refused`).
  /// `epoch_hint` (from the file name) is used when the header itself is
  /// unreadable. (Defined after the class: it embeds one.)
  struct Recovery;
  static Recovery salvage(const std::string& contents, support::FrameHash hash,
                          std::uint64_t epoch_hint);

  /// salvage() of the file at `path`, under the key its pid and epoch give,
  /// keeping no entry of a refused file: another pid's or epoch's map, a v1
  /// map, or one flipped where no line parse sees it, is damage that must
  /// never be attributed. A file that does not verify is filed under that
  /// file-name epoch even when its header reads otherwise: a flipped header
  /// digit must not move the salvaged entries to another epoch.
  static Recovery salvage_file(const std::string& path, const std::string& contents);

  /// Conventional path for the map of `epoch` under `dir`.
  static std::string path_for(const std::string& dir, hw::Pid pid, std::uint64_t epoch);

  /// Epoch encoded in a path_for-style file name ("map.<E>", never an
  /// object map's "omap.<E>"), or nullopt.
  static std::optional<std::uint64_t> epoch_from_path(const std::string& path);
};

/// "<dir>/<pid>/<name>" → pid, from the second-to-last path component (code
/// and object maps alike), or nullopt. The component must be the pid as
/// path_for spells it: no leading zero, no value past 32 bits.
std::optional<hw::Pid> pid_from_map_path(std::string_view path);

struct CodeMapFile::Recovery {
  bool intact = false;     // full parse with matching count and checksum
  bool header_ok = false;  // the epoch header line was readable
  /// A whole file (its trailer line reached) whose trailer fails under the
  /// key, even with the header the file name vouches for: its entries
  /// parse, but nothing says they are this map's (support::walked_items_usable).
  bool refused = false;
  std::uint64_t entries_expected = 0;  // from the header; 0 if unreadable
  CodeMapFile file;                    // truncated flag set when !intact
};

/// Why a strict JIT lookup produced no symbol.
enum class JitLookupMiss : std::uint8_t {
  kNone,            // hit
  kNoMaps,          // no maps loaded at all
  kNotFound,        // every map down to epoch 0 intact, pc in none of them
  kMissingEpochMap, // an epoch on the search path has no map (lost write)
  kTruncatedMap,    // an epoch on the search path has only a salvaged prefix
};

inline const char* to_string(JitLookupMiss m) {
  switch (m) {
    case JitLookupMiss::kNone:            return "hit";
    case JitLookupMiss::kNoMaps:          return "no-maps";
    case JitLookupMiss::kNotFound:        return "not-found";
    case JitLookupMiss::kMissingEpochMap: return "missing-map";
    case JitLookupMiss::kTruncatedMap:    return "truncated-map";
  }
  return "?";
}

/// The post-processing index over all epoch maps of one VM.
///
/// Thread-safety contract: after the flattened view is built (prepare(), or
/// lazily on first query), any number of threads may call the const query
/// methods concurrently. add() and load() are exclusive — they must not
/// race with queries or each other.
class CodeMapIndex {
 public:
  CodeMapIndex() = default;
  CodeMapIndex(CodeMapIndex&& other) noexcept;
  CodeMapIndex& operator=(CodeMapIndex&& other) noexcept;
  CodeMapIndex(const CodeMapIndex&) = delete;
  CodeMapIndex& operator=(const CodeMapIndex&) = delete;

  struct LoadStats {
    std::uint64_t maps_loaded = 0;     // files found (intact or salvaged)
    std::uint64_t maps_intact = 0;
    std::uint64_t maps_truncated = 0;  // damaged: prefix salvaged
    std::uint64_t entries_loaded = 0;
    std::uint64_t entries_salvaged = 0;  // entries recovered from damaged maps
  };

  /// Loads every map file under `dir` for `pid` from the VFS, salvaging
  /// damaged files instead of aborting on them. Builds the flattened view.
  LoadStats load(const os::Vfs& vfs, const std::string& dir, hw::Pid pid);

  /// Adds one parsed map (tests construct indices directly). Two files
  /// claiming the same epoch — e.g. two unreadable-header files salvaged
  /// under the same file-name hint — are *merged* and the epoch marked
  /// truncated: with provenance ambiguous, absence from the merged map must
  /// not prove anything.
  void add(CodeMapFile file);

  struct Hit {
    support::Name symbol;
    std::uint64_t found_in_epoch = 0;
    std::uint32_t maps_searched = 0;  // 1 = found in the sample's own epoch
    hw::Address address = 0;          // body start (as of that epoch)
    std::uint64_t size = 0;
  };

  /// Backward search from `epoch` down to 0 over whatever maps exist;
  /// ignores gaps and truncation. This is the paper's original algorithm —
  /// post-processing uses lookup() below, which refuses to guess.
  std::optional<Hit> resolve(hw::Address pc, std::uint64_t epoch) const;

  /// Crash-aware backward search: walks epochs `epoch`, `epoch`-1, ... 0
  /// contiguously. A missing or truncated map that does not contain `pc`
  /// stops the walk with an explicit miss reason, because an older map
  /// could attribute the sample to a method that had since been recompiled
  /// or moved — the one lie VIProf must never tell.
  struct Lookup {
    std::optional<Hit> hit;
    JitLookupMiss miss = JitLookupMiss::kNone;
  };
  Lookup lookup(hw::Address pc, std::uint64_t epoch) const;

  /// Literal epoch-by-epoch implementations of resolve()/lookup(), kept as
  /// the equivalence oracle for the flattened view (and for benchmarking
  /// the flattening win). Same results, O(epochs · log n) per call.
  std::optional<Hit> resolve_walkback(hw::Address pc, std::uint64_t epoch) const;
  Lookup lookup_walkback(hw::Address pc, std::uint64_t epoch) const;

  /// Builds the flattened view now (idempotent, thread-safe). Queries call
  /// it lazily; load() calls it eagerly so post-processing threads never
  /// contend on the build.
  void prepare() const;

  /// True if `epoch` has a loaded map that is marked truncated.
  bool epoch_truncated(std::uint64_t epoch) const {
    auto it = maps_.find(epoch);
    return it != maps_.end() && it->second.truncated;
  }

  std::size_t map_count() const { return maps_.size(); }
  std::uint64_t total_entries() const { return total_entries_; }
  std::uint64_t truncated_count() const { return truncated_count_; }

  /// Highest epoch with a loaded map.
  std::uint64_t max_epoch() const;

 private:
  struct EpochMap {
    std::vector<CodeMapEntry> entries;  // address-sorted
    bool truncated = false;
  };

  /// One occupant change of an elementary address interval: from map
  /// `ord` on (until a newer version of the same interval), samples in the
  /// interval attribute to `entry`.
  struct Version {
    const CodeMapEntry* entry = nullptr;
    std::uint32_t ord = 0;  // index of the map's epoch in epochs_
  };

  const CodeMapEntry* find_in(const EpochMap& map, hw::Address pc) const;
  void build_flat() const;
  /// Newest occupant of `pc` among maps with epoch <= `epoch`, or nullptr.
  const Version* flat_find(hw::Address pc, std::uint64_t epoch) const;

  std::map<std::uint64_t, EpochMap> maps_;
  std::uint64_t total_entries_ = 0;
  std::uint64_t truncated_count_ = 0;

  // ---- Flattened view (derived; rebuilt after add(), shared by readers).
  // Entry pointers reference maps_ node storage, which is stable under
  // std::map moves, so a prepared index can be moved without rebuilding.
  static constexpr std::uint64_t kNoGap = ~0ull;  // epochs are < 2^64-1 here

  mutable std::atomic<bool> flat_ready_{false};
  mutable std::mutex flat_mu_;
  mutable std::vector<hw::Address> bounds_;   // elementary interval borders
  mutable std::vector<std::size_t> slot_of_;  // CSR offsets into versions_
  mutable std::vector<Version> versions_;     // per interval, epoch-ascending
  mutable std::vector<std::uint64_t> epochs_;        // sorted map epochs
  mutable std::vector<std::uint64_t> trunc_epochs_;  // sorted truncated epochs
  /// Per loaded epoch: newest integer epoch <= it with *no* map (kNoGap if
  /// the maps run contiguously down to 0).
  mutable std::vector<std::uint64_t> gap_below_;
};

}  // namespace viprof::core
