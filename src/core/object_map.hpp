// Epoch-keyed heap *object* maps — the memory-profiling twin of the JIT
// code maps (core/code_map.hpp).
//
// The memprof agent writes one partial object map per execution epoch, just
// before the GC that closes it: objects allocated during the epoch, plus
// objects the previous collection moved, plus a record of objects that died
// at that collection. Resolution of a data-address sample walks backwards
// through older maps exactly like code-map resolution — a mature object
// stops appearing in new maps once it stops moving, and the first (newest)
// map whose entry covers the address is authoritative.
//
// Crash consistency mirrors CodeMapFile byte-for-byte in spirit: declared
// entry counts in the header, a checksum trailer keyed by (pid, epoch),
// salvage of the longest parsing prefix, and a `truncated` marker that resolution
// refuses to step past. Rather than re-implementing the flattened epoch
// index, to_code_map() projects an object map onto a CodeMapFile (symbol =
// "site#<idx>") so a plain CodeMapIndex — with its walkback oracle
// and property tests — serves object resolution unchanged.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/code_map.hpp"
#include "hw/types.hpp"
#include "os/vfs.hpp"

namespace viprof::core {

/// One live tracked object as of the map's epoch.
struct ObjectMapEntry {
  hw::Address address = 0;
  std::uint64_t size = 0;
  std::uint64_t obj_id = 0;
  std::uint32_t site = 0;

  bool contains(hw::Address a) const { return a >= address && a < address + size; }
};

/// An object that died at the collection closing the *previous* epoch.
/// Carries size and site so allocation accounting survives even when every
/// other map mentioning the object is lost.
struct ObjectDeath {
  std::uint64_t obj_id = 0;
  std::uint64_t size = 0;
  std::uint32_t site = 0;
};

/// Allocation-site dictionary line; every map carries the full dictionary
/// (sites are few) so each map is self-contained for reporting.
struct SiteName {
  std::uint32_t site = 0;
  support::Name name;  // interned at load
};

/// One epoch's object map: serialisation to/from the VFS file format.
///
///   omap <epoch> objects <N> dead <D>\n
///   [truncated\n]
///   site <idx> <name>\n           (dictionary; any number of lines)
///   <hex-addr> <size> <obj_id> <site>\n    (N object lines)
///   dead <obj_id> <size> <site>\n          (D dead lines)
///   crc <%08x>\n                  (of all preceding bytes, keyed by (pid, epoch))
struct ObjectMapFile {
  std::uint64_t epoch = 0;
  bool truncated = false;  // salvaged prefix of a damaged file
  std::vector<SiteName> sites;
  std::vector<ObjectMapEntry> objects;
  std::vector<ObjectDeath> dead;

  /// The frame hash of the map at path_for(dir, pid, epoch).
  static support::FrameHash frame_hash(hw::Pid pid, std::uint64_t epoch);

  /// The file bytes of this map as `pid`'s (framed under frame_hash(pid, epoch)).
  std::string serialize(hw::Pid pid) const;

  /// Strict parse: header, declared counts and checksum (under `hash`)
  /// must all verify.
  static std::optional<ObjectMapFile> parse(const std::string& contents,
                                            support::FrameHash hash);

  /// Tolerant parse: recovers the longest parsing prefix, stopping at the
  /// first malformed line (everything after is suspect), and says whether
  /// anything vouches for it, as CodeMapFile::salvage. (Defined after the
  /// class: it embeds one.)
  struct Recovery;
  static Recovery salvage(const std::string& contents, support::FrameHash hash,
                          std::uint64_t epoch_hint);

  /// salvage() of the file at `path`, under the key its pid and epoch give;
  /// as CodeMapFile::salvage_file, a refused file keeps nothing and a file
  /// that does not verify is filed under its file-name epoch.
  static Recovery salvage_file(const std::string& path, const std::string& contents);

  /// Conventional path for the map of `epoch` under `dir`.
  static std::string path_for(const std::string& dir, hw::Pid pid, std::uint64_t epoch);

  /// Epoch encoded in a path_for-style file name ("omap.<E>"), or nullopt.
  static std::optional<std::uint64_t> epoch_from_path(const std::string& path);

  /// Projection onto the code-map model: each object becomes an address
  /// range whose symbol is the canonical "site#<idx>" token (stable even
  /// when a map's dictionary lines were lost), feeding an unmodified
  /// CodeMapIndex for epoch-walk resolution.
  CodeMapFile to_code_map() const;
};

struct ObjectMapFile::Recovery {
  bool intact = false;     // full parse with matching counts and checksum
  bool header_ok = false;  // declared counts readable (exact-loss accounting)
  bool refused = false;    // as CodeMapFile::Recovery::refused
  std::uint64_t objects_expected = 0;
  std::uint64_t dead_expected = 0;
  ObjectMapFile file;  // truncated flag set when !intact
};

/// The canonical symbol for allocation site `site` inside the object index.
std::string site_symbol(std::uint32_t site);

/// Parses a "site#<idx>" symbol back to the site index; nullopt otherwise.
std::optional<std::uint32_t> site_from_symbol(std::string_view symbol);

struct ObjectIndexLoad {
  CodeMapIndex index;
  std::vector<ObjectMapFile> files;  // salvaged maps, listing order
  std::uint64_t maps_loaded = 0;
  std::uint64_t maps_truncated = 0;
  std::uint64_t objects_loaded = 0;
};

/// Loads every object map under `dir` for `pid`, salvaging damage, and
/// builds the epoch index over the projected entries. The file-name epoch
/// is the salvage hint, exactly as for code maps.
ObjectIndexLoad load_object_index(const os::Vfs& vfs, const std::string& dir,
                                  hw::Pid pid);

}  // namespace viprof::core
