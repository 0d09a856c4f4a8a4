// Seeded mutation suite for every crc-framed text format (DESIGN.md §7):
// code maps, object maps, the store and fleet manifests, the service
// snapshot (whole-file trailer) and store segments (per-line frame).
//
// Each format's writer output is mutated by support::Xoshiro256 — a flipped
// byte, a truncation, a run of lines spliced elsewhere, a run of lines
// duplicated — and every mutant is checked for four things:
//
//   * nothing crashes (run it under VIPROF_SANITIZE=address);
//   * a strict parse never accepts input whose crc does not verify, judged
//     by an independent snprintf("%08x") oracle;
//   * serialize(parse(x)) == x for every accepted x. The accept set takes
//     crc digits of either case and writers emit lower case, so the
//     comparison is against x with its crc digits lower-cased;
//   * salvage counts close: salvaged + lost == declared, never more
//     salvaged than the file declared, and for store segments (whose
//     declared counts live in the manifest) every salvaged interval is one
//     the writer wrote.
//
// Cross-file splices (FramedSplice.*): lines of one store segment put into
// another, sample lines of one event put into another event's log and into
// a server batch whose header names another event, and a code or object map
// copied to another pid's or epoch's path. Every v2 frame is keyed by the
// file it belongs to, so each splice is counted damage, never resolved.
//
// The two JSON readers — TelemetrySnapshot::from_json (metrics.json) and
// parse_chrome_trace (trace.json) — read names that carry quotes,
// backslashes, control bytes, NUL and multi-byte UTF-8, and take flips,
// truncations, line and byte splices, and number swaps that put negative,
// fractional, exponent-form and out-of-range numbers where counts and ids
// belong. Neither may crash
// (run it under VIPROF_SANITIZE=address), an accepted snapshot's bucket
// counts must sum to each histogram's count, and writing what was read is
// a fixed point: to_json(from_json(y)) == y for y = to_json(from_json(x)),
// and likewise for a trace re-written by merge_chrome_traces; y holds no
// raw control byte but the writer's own line breaks, and y with a raw
// control byte put inside one of its strings is refused.
//
// The boot-image method map (core::parse_rvm_map) has no frame to verify:
// it takes bit flips, truncations, NULs, overflowing and 0x-spelled
// numbers, names past the 511-character cap and a missing final newline.
// Every symbol it yields must be one a line's three whitespace-separated
// fields scan to (judged by an independent tokenizer), no name exceeds
// 511 characters, the table's no-overlap check never fires, and parse ->
// serialise -> parse is a fixed point.
//
// The archive manifest (core::ArchiveResolver) has no frame either, and a
// server builds it from bytes a client streamed. It takes the flips,
// truncations and splices above, and may neither throw nor abort while it
// loads and resolves every recorded sample. Lines made malformed on
// purpose — junk glued to a number, a sign, a bare 0x, an overflow, a
// missing field, an image id no image line defines — and spliced in
// anywhere are each skipped and counted, and change no resolution.
//
// The service's binary wire framing (service::FrameDecoder) gets the same
// treatment at the byte level — bit flips, truncations, spliced byte runs
// and duplicated frames, fed in random chunks — and must never hand out a
// frame that is not a verified frame of its input, must decode every frame
// before the first damaged byte, and must account for every input byte as
// decoded, skipped (torn) or still buffered.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <optional>
#include <iterator>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "core/archive.hpp"
#include "core/code_map.hpp"
#include "core/fsck.hpp"
#include "core/object_map.hpp"
#include "core/rvm_map.hpp"
#include "core/sample_log.hpp"
#include "service/query.hpp"
#include "service/client.hpp"
#include "service/scenario.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "store/manifest.hpp"
#include "store/profile_store.hpp"
#include "store/segment.hpp"
#include "support/framed_text.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"

namespace viprof {
namespace {

constexpr std::uint64_t kSeeds = 8;
constexpr int kMutantsPerSeed = 1000;

// --- Mutations -------------------------------------------------------------

/// Lines of `text`, each keeping its '\n' (the last may lack one).
std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t end = text.find('\n', pos);
    end = end == std::string::npos ? text.size() : end + 1;
    out.push_back(text.substr(pos, end - pos));
    pos = end;
  }
  return out;
}

/// The first line with its '\n', or "" when there is no complete line.
std::string first_line(const std::string& text) {
  return text.substr(0, text.find('\n') + 1);
}

std::string joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) out += l;
  return out;
}

/// One seeded mutation: flip a byte, truncate, splice a run of lines to
/// another place, or duplicate a run of lines.
std::string mutate_once(const std::string& text, support::Xoshiro256& rng) {
  if (text.empty()) return text;
  std::string out = text;
  switch (rng.below(4)) {
    case 0:  // flip: XOR one byte with a non-zero mask
      out[rng.below(out.size())] ^= static_cast<char>(1 + rng.below(255));
      return out;
    case 1:  // truncate
      return out.substr(0, rng.below(out.size()));
    default: {
      std::vector<std::string> lines = lines_of(text);
      const std::size_t from = rng.below(lines.size());
      const std::size_t len = 1 + rng.below(std::min<std::size_t>(4, lines.size() - from));
      const std::vector<std::string> run(lines.begin() + from, lines.begin() + from + len);
      if (rng.below(2) == 0) lines.erase(lines.begin() + from, lines.begin() + from + len);
      const std::size_t to = rng.below(lines.size() + 1);
      lines.insert(lines.begin() + to, run.begin(), run.end());
      return joined(lines);
    }
  }
}

std::string mutate(const std::string& text, support::Xoshiro256& rng) {
  std::string out = text;
  for (std::uint64_t n = 1 + rng.below(3); n > 0; --n) out = mutate_once(out, rng);
  return out;
}

// --- Oracles ---------------------------------------------------------------

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

constexpr std::size_t kTrailerBytes = 13;  // "crc " + 8 digits + '\n'

/// The last line is "crc " plus the snprintf("%08x") of the v2 checksum
/// (XXH32 under `seed`) over every byte before it (digits of either case),
/// and it ends the text.
bool trailer_verifies(const std::string& x, std::uint32_t seed) {
  if (x.size() < kTrailerBytes) return false;
  const std::size_t at = x.size() - kTrailerBytes;
  if (at != 0 && x[at - 1] != '\n') return false;
  char want[kTrailerBytes + 1];
  std::snprintf(want, sizeof want, "crc %08x\n", support::xxh32(x.data(), at, seed));
  return x.compare(at, 4, "crc ") == 0 && lower(x.substr(at)) == want;
}

/// `x` with its trailer's crc digits lower-cased.
std::string canonical_trailer(const std::string& x) {
  const std::size_t at = x.size() - kTrailerBytes;
  return x.substr(0, at) + lower(x.substr(at));
}

/// One segment line (terminator stripped) is "body SP" plus the
/// snprintf("%08x") of the v2 checksum (XXH32 under `seed`) over body
/// (digits of either case).
bool line_frame_verifies(const std::string& line, std::uint32_t seed) {
  if (line.size() < 10 || line[line.size() - 9] != ' ') return false;
  char want[9];
  std::snprintf(want, sizeof want, "%08x",
                support::xxh32(line.data(), line.size() - 9, seed));
  return lower(line.substr(line.size() - 8)) == want;
}

/// The pid every map here is framed for (its path's pid).
constexpr hw::Pid kMapPid = 7;

/// How the fuzz writes and strictly reads one whole-file format, and the
/// v2 key the oracle checks its trailer under. `file` is the one written:
/// a map's key comes from its path, which names the written epoch.
template <typename File>
struct Framing;

template <>
struct Framing<core::CodeMapFile> {
  static std::string write(const core::CodeMapFile& f) { return f.serialize(kMapPid); }
  static auto read(const std::string& x, const core::CodeMapFile& file) {
    return core::CodeMapFile::parse(x, core::CodeMapFile::frame_hash(kMapPid, file.epoch));
  }
  static std::uint32_t seed(const core::CodeMapFile& file) {
    return support::frame_key(support::FrameKind::kCodeMap, kMapPid, file.epoch);
  }
};

template <>
struct Framing<core::ObjectMapFile> {
  static std::string write(const core::ObjectMapFile& f) { return f.serialize(kMapPid); }
  static auto read(const std::string& x, const core::ObjectMapFile& file) {
    return core::ObjectMapFile::parse(x,
                                      core::ObjectMapFile::frame_hash(kMapPid, file.epoch));
  }
  static std::uint32_t seed(const core::ObjectMapFile& file) {
    return support::frame_key(support::FrameKind::kObjectMap, kMapPid, file.epoch);
  }
};

/// The formats with one fixed key per kind.
template <typename File, support::FrameKind kKind>
struct FixedKeyFraming {
  static std::string write(const File& f) { return f.serialize(); }
  static auto read(const std::string& x, const File&) { return File::parse(x); }
  static std::uint32_t seed(const File&) { return support::frame_key(kKind); }
};

template <>
struct Framing<store::Manifest>
    : FixedKeyFraming<store::Manifest, support::FrameKind::kStoreManifest> {};
template <>
struct Framing<store::FleetManifest>
    : FixedKeyFraming<store::FleetManifest, support::FrameKind::kFleetManifest> {};
template <>
struct Framing<service::ServiceSnapshot>
    : FixedKeyFraming<service::ServiceSnapshot, support::FrameKind::kSnapshot> {};

/// Whole-file formats: a strict parse accepts only what the oracle
/// verifies, and re-serialises what it accepts byte for byte.
template <typename File>
void check_strict(const std::string& x, const File& written, const std::string& where) {
  const auto parsed = Framing<File>::read(x, written);
  if (!parsed) return;
  ASSERT_TRUE(trailer_verifies(x, Framing<File>::seed(written))) << where << " accepted:\n"
                                                                 << x;
  EXPECT_EQ(Framing<File>::write(*parsed), canonical_trailer(x)) << where;
}

template <typename File, typename Make>
void fuzz_strict(const char* format, Make&& make) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    support::Xoshiro256 rng(seed * 0x9e37 + 1);
    const File written = make(rng);
    const std::string base = Framing<File>::write(written);
    ASSERT_TRUE(Framing<File>::read(base, written).has_value())
        << format << " seed " << seed;
    check_strict<File>(base, written, format);
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      const std::string where =
          std::string(format) + " seed " + std::to_string(seed) + " mutant " +
          std::to_string(i);
      check_strict<File>(mutate(base, rng), written, where);
    }
  }
}

// --- Generators ------------------------------------------------------------

std::string token(support::Xoshiro256& rng, const char* stem) {
  return std::string(stem) + std::to_string(rng.below(1000));
}

core::CodeMapFile random_code_map(support::Xoshiro256& rng) {
  core::CodeMapFile file;
  file.epoch = rng.below(50);
  file.truncated = rng.below(8) == 0;
  for (std::uint64_t n = rng.below(10); n > 0; --n)
    file.entries.push_back({rng.below(1ull << 40), 1 + rng.below(4096),
                            support::Name(token(rng, "app.K.m"))});
  return file;
}

core::ObjectMapFile random_object_map(support::Xoshiro256& rng) {
  core::ObjectMapFile file;
  file.epoch = rng.below(50);
  file.truncated = rng.below(8) == 0;
  for (std::uint32_t s = 0, n = static_cast<std::uint32_t>(rng.below(4)); s < n; ++s)
    file.sites.push_back({s, support::Name(token(rng, "Alloc.site"))});
  for (std::uint64_t n = rng.below(10); n > 0; --n)
    file.objects.push_back({rng.below(1ull << 40), 16 + rng.below(512), rng.below(1u << 20),
                            static_cast<std::uint32_t>(rng.below(4))});
  for (std::uint64_t n = rng.below(5); n > 0; --n)
    file.dead.push_back({rng.below(1u << 20), 16 + rng.below(512),
                         static_cast<std::uint32_t>(rng.below(4))});
  return file;
}

store::Manifest random_manifest(support::Xoshiro256& rng) {
  store::Manifest m;
  m.generation = rng.below(100);
  m.next_seq = rng.below(10000);
  m.next_segment = rng.below(100);
  m.dropped_intervals = rng.below(10);
  m.dropped_rows = rng.below(100);
  m.dropped_segments = rng.below(3);
  for (std::uint64_t id = 0, n = rng.below(4); id < n; ++id) {
    store::ManifestSegment s;
    s.id = id;
    s.name = "segments/seg-00000" + std::to_string(id) + ".vseg";
    s.sealed = rng.below(2) == 0;
    s.intervals = rng.below(20);
    s.rows = rng.below(200);
    s.tick_lo = rng.below(100);
    s.tick_hi = s.tick_lo + rng.below(100);
    s.seq_lo = rng.below(100);
    s.seq_hi = s.seq_lo + rng.below(100);
    m.segments.push_back(s);
  }
  for (std::uint64_t n = rng.below(3); n > 0; --n)
    m.tombstones.push_back(token(rng, "segments/seg-old"));
  return m;
}

store::FleetManifest random_fleet_manifest(support::Xoshiro256& rng) {
  store::FleetManifest m;
  m.generation = rng.below(100);
  store::FleetLedger& l = m.ledger;
  for (std::uint64_t* field :
       {&l.acked_sessions, &l.acked_records, &l.stored_records, &l.lost_wire,
        &l.lost_queue, &l.lost_dead_records, &l.lost_dead_sessions, &l.failover_sessions,
        &l.failover_records, &l.refused_sessions, &l.retried_sends, &l.retried_giveups,
        &l.circuit_opens, &l.rebalances})
    *field = rng.below(1000);
  for (std::uint64_t i = 0, n = rng.below(4); i < n; ++i) {
    store::FleetShard s;
    s.name = "shard-" + std::to_string(i);
    s.root = store::partition_root(s.name);
    s.alive = rng.below(4) != 0;
    s.sessions = rng.below(10);
    s.records = rng.below(10000);
    m.shards.push_back(s);
  }
  return m;
}

constexpr core::SampleDomain kDomains[] = {core::SampleDomain::kKernel,
                                           core::SampleDomain::kImage,
                                           core::SampleDomain::kJit,
                                           core::SampleDomain::kObject};

/// Row `key` of a generated profile: distinct keys, distinct rows.
core::Resolution row_resolution(std::uint64_t key) {
  core::Resolution r;
  r.image = "img" + std::to_string(key % 3);
  r.symbol = "sym" + std::to_string(key);
  r.domain = kDomains[key % 4];
  return r;
}

core::Profile random_profile(support::Xoshiro256& rng, std::uint64_t rows) {
  core::Profile p;
  for (std::uint64_t k = 0; k < rows; ++k)
    p.add(hw::kAllEventKinds[rng.below(hw::kEventKindCount)], row_resolution(k),
          1 + rng.below(500));
  return p;
}

service::ServiceSnapshot random_snapshot(support::Xoshiro256& rng) {
  service::ServiceSnapshot snap;
  for (std::uint64_t i = 0, n = 1 + rng.below(3); i < n; ++i) {
    service::SessionSnapshot s;
    s.id = "sess-" + std::to_string(i);
    s.profile = random_profile(rng, rng.below(5));
    for (std::uint64_t e = rng.below(3); e > 0; --e)
      s.epochs[rng.below(10)] = random_profile(rng, 1 + rng.below(3));
    snap.sessions.push_back(std::move(s));
  }
  return snap;
}

// --- Whole-file trailer formats -------------------------------------------

TEST(FramedFuzz, StrictParsesAcceptOnlyVerifiedCanonicalFiles) {
  fuzz_strict<core::CodeMapFile>("code map", random_code_map);
  fuzz_strict<core::ObjectMapFile>("object map", random_object_map);
  fuzz_strict<store::Manifest>("store manifest", random_manifest);
  fuzz_strict<store::FleetManifest>("fleet manifest", random_fleet_manifest);
  fuzz_strict<service::ServiceSnapshot>("service snapshot", random_snapshot);
}

TEST(FramedFuzz, CodeMapSalvageNeverExceedsWhatTheHeaderDeclared) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    support::Xoshiro256 rng(seed + 11);
    const core::CodeMapFile original = random_code_map(rng);
    const std::string base = original.serialize(kMapPid);
    const support::FrameHash hash = core::CodeMapFile::frame_hash(kMapPid, original.epoch);
    const std::string header = first_line(base);
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      const std::string x = mutate(base, rng);
      const std::string where = "seed " + std::to_string(seed) + " mutant " +
                                std::to_string(i) + ":\n" + x;
      const core::CodeMapFile::Recovery r =
          core::CodeMapFile::salvage(x, hash, original.epoch);
      EXPECT_EQ(r.intact, core::CodeMapFile::parse(x, hash).has_value()) << where;
      EXPECT_TRUE(r.intact || r.file.truncated) << where;
      if (!r.header_ok) {
        EXPECT_TRUE(r.file.entries.empty()) << where;
        continue;
      }
      // salvaged + lost == declared, with nothing lost below zero.
      EXPECT_LE(r.file.entries.size(), r.entries_expected) << where;
      if (first_line(x) == header) {
        EXPECT_EQ(r.entries_expected, original.entries.size()) << where;
      }
    }
  }
}

TEST(FramedFuzz, ObjectMapFsckLossClosesAgainstTheDeclaredCounts) {
  const std::string path = core::ObjectMapFile::path_for("obj_maps", kMapPid, 3);
  const support::FrameHash hash = core::ObjectMapFile::frame_hash(kMapPid, 3);
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    support::Xoshiro256 rng(seed + 23);
    core::ObjectMapFile original = random_object_map(rng);
    original.epoch = 3;
    const std::string base = original.serialize(kMapPid);
    const std::string header = first_line(base);
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      const std::string x = mutate(base, rng);
      const std::string where = "seed " + std::to_string(seed) + " mutant " +
                                std::to_string(i) + ":\n" + x;
      const core::ObjectMapFile::Recovery r = core::ObjectMapFile::salvage(x, hash, 3);
      EXPECT_EQ(r.intact, core::ObjectMapFile::parse(x, hash).has_value()) << where;
      if (r.header_ok) {
        EXPECT_LE(r.file.objects.size(), r.objects_expected) << where;
        EXPECT_LE(r.file.dead.size(), r.dead_expected) << where;
      } else {
        EXPECT_TRUE(r.file.objects.empty() && r.file.dead.empty()) << where;
      }

      // The tree-level books: with the header intact, a damaged map's
      // salvaged + lost equals what the writer declared.
      os::Vfs tree;
      tree.write(path, x);
      support::Telemetry telemetry;
      const core::FsckReport report = core::fsck_tree(tree, nullptr, telemetry);
      EXPECT_EQ(report.omaps_intact + report.omaps_truncated, 1u) << where;
      EXPECT_EQ(report.omaps_intact == 1, r.intact) << where;
      if (!r.intact && first_line(x) == header) {
        EXPECT_EQ(report.objects_salvaged + report.objects_lost, original.objects.size())
            << where;
        EXPECT_EQ(report.deaths_salvaged + report.deaths_lost, original.dead.size())
            << where;
      }
    }
  }
}

// --- Store segments: per-line frame ----------------------------------------

store::IntervalProfile random_interval(support::Xoshiro256& rng, std::uint64_t tick) {
  store::IntervalProfile iv;
  iv.session = "vm-" + std::to_string(rng.below(2));
  iv.pid = 40 + rng.below(2);
  iv.tick_lo = iv.tick_hi = tick;
  iv.epoch_lo = rng.below(5);
  iv.epoch_hi = iv.epoch_lo + rng.below(3);
  iv.profile = random_profile(rng, 1 + rng.below(4));
  return iv;
}

/// A fresh writer's encoding of one interval: equal for equal intervals.
std::string fingerprint(const store::IntervalProfile& iv) {
  return store::SegmentWriter(0).encode_interval(iv);
}

/// The id a segment's file name carries: the key its lines are framed under.
std::uint64_t segment_id(const std::string& path) {
  return *support::scan_name_number(path, "segments/seg-", ".vseg");
}

/// The bytes a writer emits for what a clean read found.
std::string reencode(const store::SegmentSalvage& sv) {
  store::SegmentWriter w(sv.segment_id);
  std::string out = w.header();
  for (const store::IntervalProfile& iv : sv.intervals) out += w.encode_interval(iv);
  if (sv.sealed) out += w.encode_seal(sv.intervals.size());
  return out;
}

TEST(FramedFuzz, SegmentSalvageVerifiesEveryLineAndClosesAgainstTheManifest) {
  store::StoreConfig config;
  config.seal_after_intervals = 3;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    support::Xoshiro256 rng(seed + 37);
    os::Vfs vfs;
    {
      store::ProfileStore st(vfs, config);
      st.open();
      for (std::uint64_t t = 0; t < 7; ++t) ASSERT_TRUE(st.ingest(random_interval(rng, t)));
      ASSERT_TRUE(st.seal_active());
    }
    const auto manifest = store::Manifest::parse(*vfs.read(config.root + "/MANIFEST"));
    ASSERT_TRUE(manifest.has_value());
    std::uint64_t declared_intervals = 0, declared_rows = 0;
    for (const store::ManifestSegment& s : manifest->segments) {
      ASSERT_TRUE(s.sealed);
      declared_intervals += s.intervals;
      declared_rows += s.rows;
    }
    const std::vector<std::string> segments = vfs.list(config.root + "/segments/");
    ASSERT_GE(segments.size(), 2u);
    std::set<std::string> written;
    for (const std::string& path : segments)
      for (const store::IntervalProfile& iv :
           store::read_segment(*vfs.read(path), segment_id(path)).intervals)
        written.insert(fingerprint(iv));

    for (int i = 0; i < kMutantsPerSeed; ++i) {
      const std::string& path = segments[rng.below(segments.size())];
      const std::string x = mutate(*vfs.read(path), rng);
      const std::string where = "seed " + std::to_string(seed) + " mutant " +
                                std::to_string(i) + " of " + path + ":\n" + x;
      const std::uint64_t id = segment_id(path);
      const store::SegmentSalvage sv = store::read_segment(x, id);
      for (const store::IntervalProfile& iv : sv.intervals)
        EXPECT_EQ(written.count(fingerprint(iv)), 1u) << where;
      if (sv.clean() && sv.sealed) {
        // A clean sealed segment is accepted whole: every line verified (no
        // torn tail, no bad frame) and it re-encodes to the same bytes. An
        // unsealed one may end in dictionary lines of an interval whose
        // record never landed, which no writer output reproduces.
        ASSERT_TRUE(x.empty() || x.back() == '\n') << where;
        std::string canonical;
        for (std::string line : lines_of(x)) {
          line.pop_back();
          ASSERT_TRUE(line_frame_verifies(
              line, support::frame_key(support::FrameKind::kSegment, id)))
              << where << "\nline: " << line;
          const std::size_t crc_at = line.size() - 8;
          canonical += line.substr(0, crc_at) + lower(line.substr(crc_at)) + "\n";
        }
        EXPECT_EQ(reencode(sv), canonical) << where;
      }

      os::Vfs damaged = vfs;
      damaged.write(path, x);
      const store::StoreRecovery rec = store::ProfileStore(damaged, config).fsck();
      EXPECT_EQ(rec.intervals_salvaged + rec.intervals_lost, declared_intervals) << where;
      EXPECT_EQ(rec.rows_salvaged + rec.rows_lost, declared_rows) << where;
    }
  }
}

// --- Cross-file splices: every v2 key names its file ------------------------
//
// A line or a whole file copied from another file of the same kind is
// well-formed and carried a valid crc where it was written. Under v2 its
// crc is keyed by the file it came from (segment id; event; pid and epoch),
// so in its new place it is damage: counted, and never resolved.

/// `text` with `run` inserted at line boundary `at` (0 = before the first).
std::string insert_lines(const std::string& text, const std::vector<std::string>& run,
                         std::size_t at) {
  std::vector<std::string> lines = lines_of(text);
  lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(std::min(at, lines.size())),
               run.begin(), run.end());
  return joined(lines);
}

/// 1-4 consecutive lines of `lines`, from a seeded start.
std::vector<std::string> line_run(const std::vector<std::string>& lines,
                                  support::Xoshiro256& rng) {
  const std::size_t from = rng.below(lines.size());
  const std::size_t len = 1 + rng.below(std::min<std::size_t>(4, lines.size() - from));
  return {lines.begin() + static_cast<std::ptrdiff_t>(from),
          lines.begin() + static_cast<std::ptrdiff_t>(from + len)};
}

TEST(FramedSplice, SegmentLinesFromAnotherSegmentAreDiscardedNeverResolved) {
  store::StoreConfig config;
  config.seal_after_intervals = 3;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    support::Xoshiro256 rng(seed + 41);
    os::Vfs vfs;
    {
      store::ProfileStore st(vfs, config);
      st.open();
      for (std::uint64_t t = 0; t < 7; ++t) ASSERT_TRUE(st.ingest(random_interval(rng, t)));
      ASSERT_TRUE(st.seal_active());
    }
    const std::vector<std::string> segments = vfs.list(config.root + "/segments/");
    ASSERT_GE(segments.size(), 2u);
    const std::string& from = segments[0];
    const std::string& into = segments[1];
    const std::vector<std::string> donor = lines_of(*vfs.read(from));
    const std::string clean_text = *vfs.read(into);
    const store::SegmentSalvage clean = store::read_segment(clean_text, segment_id(into));
    ASSERT_TRUE(clean.clean());

    for (int i = 0; i < 100; ++i) {
      const std::vector<std::string> run = line_run(donor, rng);
      const std::string x =
          insert_lines(clean_text, run, rng.below(lines_of(clean_text).size() + 1));
      const std::string where = "seed " + std::to_string(seed) + " splice " +
                                std::to_string(i) + " into " + into + ":\n" + x;
      // Every spliced line is a bad frame; the segment's own lines read as
      // if the splice were not there.
      const store::SegmentSalvage sv = store::read_segment(x, segment_id(into));
      EXPECT_EQ(sv.lines_discarded, run.size()) << where;
      EXPECT_EQ(sv.lines_valid, clean.lines_valid) << where;
      EXPECT_EQ(sv.duplicate_lines + sv.gap_lines + sv.intervals_dropped, 0u) << where;
      ASSERT_EQ(sv.intervals.size(), clean.intervals.size()) << where;
      for (std::size_t k = 0; k < sv.intervals.size(); ++k)
        EXPECT_EQ(fingerprint(sv.intervals[k]), fingerprint(clean.intervals[k])) << where;

      os::Vfs damaged = vfs;
      damaged.write(into, x);
      const store::StoreRecovery rec = store::ProfileStore(damaged, config).fsck();
      EXPECT_EQ(rec.verdict, core::FsckVerdict::kSalvaged) << where;
      EXPECT_EQ(rec.lines_discarded, run.size()) << where;
      EXPECT_EQ(rec.intervals_lost + rec.rows_lost, 0u) << where;
    }
  }
}

TEST(FramedSplice, SampleLinesOfOneEventNeverCountForAnother) {
  service::ScenarioConfig config;
  config.vms = 1;
  config.samples_per_event = 300;
  config.epochs = 4;
  config.methods = 32;
  const auto scenario = service::record_scenario(config);
  const os::Vfs& vfs = scenario->vfs();
  constexpr hw::EventKind kFrom = hw::EventKind::kGlobalPowerEvents;
  constexpr hw::EventKind kInto = hw::EventKind::kBsqCacheReference;
  const std::string into_path = core::SampleLogWriter::path_for("samples", kInto);
  const std::vector<std::string> donor =
      lines_of(*vfs.read(core::SampleLogWriter::path_for("samples", kFrom)));
  const std::string clean_text = *vfs.read(into_path);
  core::SampleLogReadStatus clean;
  const std::vector<core::LoggedSample> want =
      core::SampleLogReader::read_checked(vfs, "samples", kInto, clean);
  ASSERT_TRUE(clean.clean());
  ASSERT_FALSE(want.empty());

  // Into the other event's log.
  support::Xoshiro256 rng(0x5b11ce);
  for (int i = 0; i < 200; ++i) {
    const std::vector<std::string> run = line_run(donor, rng);
    const std::string x =
        insert_lines(clean_text, run, rng.below(lines_of(clean_text).size() + 1));
    os::Vfs damaged = vfs;
    damaged.write(into_path, x);
    core::SampleLogReadStatus st;
    const std::vector<core::LoggedSample> got =
        core::SampleLogReader::read_checked(damaged, "samples", kInto, st);
    const std::string where = "splice " + std::to_string(i);
    EXPECT_EQ(st.discarded_lines, run.size()) << where;
    EXPECT_EQ(st.valid, clean.valid) << where;
    EXPECT_EQ(st.duplicate_records + st.missing_records, 0u) << where;
    ASSERT_EQ(got.size(), want.size()) << where;
    for (std::size_t k = 0; k < got.size(); ++k)
      EXPECT_TRUE(got[k].pc == want[k].pc && got[k].cycle == want[k].cycle) << where;
  }

  // Into a server batch whose header names the other event: the worker
  // verifies the lines under the event the header names.
  service::ProfileServer server;
  {
    auto conn = server.connect("recorder");
    service::ReplayClient client(vfs, "s", *conn, service::ReplayOptions{64, nullptr, {}});
    ASSERT_TRUE(client.run());
    server.drain();
  }
  const core::SampleLogReadStatus before = server.session("s")->read_status(kInto);
  const std::uint64_t ingested = server.session("s")->stats().records_ingested;
  const std::string top = server.query("top 20 --session s");
  const std::vector<std::string> run(donor.begin(), donor.begin() + 10);
  {
    auto conn = server.connect("splicer");
    ASSERT_TRUE(conn->send(service::encode_frame(service::FrameType::kHello, "s")));
    ASSERT_TRUE(conn->send(service::encode_frame(service::FrameType::kOpenSession, "s")));
    ASSERT_TRUE(conn->send(service::encode_frame(
        service::FrameType::kSampleBatch,
        "batch " + std::string(hw::to_string(kInto)) + " 10\n" + joined(run))));
    ASSERT_TRUE(conn->send(service::encode_frame(service::FrameType::kEndStream, "")));
    server.drain();
  }
  const core::SampleLogReadStatus after = server.session("s")->read_status(kInto);
  EXPECT_EQ(after.discarded_lines, before.discarded_lines + run.size());
  EXPECT_EQ(after.valid, before.valid);
  EXPECT_EQ(after.duplicate_records, before.duplicate_records);
  EXPECT_EQ(server.session("s")->stats().records_ingested, ingested);
  EXPECT_EQ(server.query("top 20 --session s"), top);
}

// Two VMs' epoch code maps: one of A's copied over B's map of the same
// epoch, and one of B's copied over B's map of another epoch.
TEST(FramedSplice, CodeMapCopiedToAnotherPidOrEpochIsTruncatedNeverResolved) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    service::ScenarioConfig config;
    config.vms = 2;
    config.samples_per_event = 50;
    config.epochs = 6;
    config.methods = 48;
    config.seed = seed;
    const auto scenario = service::record_scenario(config);
    const os::Vfs& vfs = scenario->vfs();
    const hw::Pid a = scenario->pids.at(0), b = scenario->pids.at(1);
    const std::uint64_t e = 1 + seed % 4, other = e + 1;
    const std::string where = "seed " + std::to_string(seed);

    struct Splice {
      const char* what;
      std::string from, into;
    };
    for (const Splice& splice :
         {Splice{"pid", core::CodeMapFile::path_for("jit_maps", a, e),
                 core::CodeMapFile::path_for("jit_maps", b, e)},
          Splice{"epoch", core::CodeMapFile::path_for("jit_maps", b, other),
                 core::CodeMapFile::path_for("jit_maps", b, e)}}) {
      const std::string bytes = *vfs.read(splice.from);
      const core::CodeMapFile::Recovery source =
          core::CodeMapFile::salvage_file(splice.from, bytes);
      ASSERT_TRUE(source.intact) << where;
      ASSERT_FALSE(source.file.entries.empty()) << where;
      os::Vfs damaged = vfs;
      damaged.write(splice.into, bytes);

      const core::CodeMapFile::Recovery r = core::CodeMapFile::salvage_file(splice.into, bytes);
      EXPECT_FALSE(r.intact) << where << " " << splice.what;
      EXPECT_TRUE(r.refused) << where << " " << splice.what;
      EXPECT_EQ(r.file.epoch, e) << where << " " << splice.what;
      EXPECT_TRUE(r.file.entries.empty()) << where << " " << splice.what;

      core::CodeMapIndex index;
      const core::CodeMapIndex::LoadStats stats = index.load(damaged, "jit_maps", b);
      EXPECT_EQ(stats.maps_truncated, 1u) << where << " " << splice.what;
      EXPECT_TRUE(index.epoch_truncated(e)) << where << " " << splice.what;
      EXPECT_EQ(index.map_count(), config.epochs) << where << " " << splice.what;
      for (const core::CodeMapEntry& entry : source.file.entries)
        EXPECT_EQ(index.lookup(entry.address, e).miss, core::JitLookupMiss::kTruncatedMap)
            << where << " " << splice.what << " " << entry.symbol.view();

      support::Telemetry telemetry;
      const core::FsckReport report = core::fsck_tree(damaged, nullptr, telemetry);
      EXPECT_EQ(report.maps_truncated, 1u) << where << " " << splice.what;
      EXPECT_EQ(report.map_entries_salvaged, 0u) << where << " " << splice.what;
      EXPECT_EQ(report.verdict, core::FsckVerdict::kUnrecoverable) << where << " " << splice.what;
    }
  }
}

TEST(FramedSplice, ObjectMapCopiedToAnotherPidIsTruncatedNeverResolved) {
  constexpr hw::Pid kA = 11, kB = 12;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    support::Xoshiro256 rng(seed + 53);
    os::Vfs vfs;
    std::vector<core::ObjectMapFile> a_maps;
    for (std::uint64_t e = 0; e < 4; ++e) {
      for (const hw::Pid pid : {kA, kB}) {
        core::ObjectMapFile map = random_object_map(rng);
        map.epoch = e;
        map.truncated = false;
        // Disjoint heaps, so a hit on one of A's objects is A's map speaking.
        for (core::ObjectMapEntry& o : map.objects) o.address += pid == kA ? 1ull << 44 : 0;
        vfs.write(core::ObjectMapFile::path_for("obj_maps", pid, e), map.serialize(pid));
        if (pid == kA) a_maps.push_back(map);
      }
    }
    const std::uint64_t e = rng.below(4);
    const std::string where = "seed " + std::to_string(seed) + " epoch " + std::to_string(e);
    os::Vfs damaged = vfs;
    damaged.write(core::ObjectMapFile::path_for("obj_maps", kB, e),
                  *vfs.read(core::ObjectMapFile::path_for("obj_maps", kA, e)));

    const core::ObjectIndexLoad load = core::load_object_index(damaged, "obj_maps", kB);
    EXPECT_EQ(load.maps_truncated, 1u) << where;
    EXPECT_TRUE(load.index.epoch_truncated(e)) << where;
    EXPECT_TRUE(load.files.at(e).objects.empty() && load.files.at(e).sites.empty()) << where;
    for (const core::ObjectMapEntry& o : a_maps[e].objects)
      EXPECT_EQ(load.index.lookup(o.address, e).miss, core::JitLookupMiss::kTruncatedMap)
          << where;

    support::Telemetry telemetry;
    const core::FsckReport report = core::fsck_tree(damaged, nullptr, telemetry);
    EXPECT_EQ(report.omaps_truncated, 1u) << where;
    EXPECT_EQ(report.objects_salvaged, 0u) << where;
    EXPECT_EQ(report.objects_lost, a_maps[e].objects.size()) << where;
    EXPECT_NE(report.verdict, core::FsckVerdict::kClean) << where;
  }
}

// --- The JSON readers: metrics.json and trace.json -------------------------

/// Numbers a count or an id must not take, and some it may.
constexpr const char* kNumberSwaps[] = {
    "-1", "-0", "0", "3", "0.5", "1e3", "1e-3", "2147483648", "4294967296",
    "18446744073709551615", "18446744073709551616", "1e308", "-1e308", "00",
};

/// One seeded mutation of a JSON text: a flip, truncation or line splice
/// (mutate_once), a run of up to 32 bytes moved elsewhere, or one number
/// token swapped for a kNumberSwaps literal.
std::string mutate_json_once(const std::string& text, support::Xoshiro256& rng) {
  if (text.empty()) return text;
  std::string out = text;
  switch (rng.below(4)) {
    case 0:
      return mutate_once(text, rng);
    case 1: {
      const std::size_t from = rng.below(out.size());
      const std::size_t len = 1 + rng.below(std::min<std::size_t>(32, out.size() - from));
      const std::string run = out.substr(from, len);
      out.erase(from, len);
      out.insert(rng.below(out.size() + 1), run);
      return out;
    }
    default: {
      std::vector<std::size_t> starts;  // number tokens follow ':', ',', '[' or ' '
      for (std::size_t i = 1; i < out.size(); ++i) {
        const char p = out[i - 1];
        if ((std::isdigit(static_cast<unsigned char>(out[i])) || out[i] == '-') &&
            (p == ':' || p == ',' || p == '[' || p == ' '))
          starts.push_back(i);
      }
      if (starts.empty()) return out;
      const std::size_t at = starts[rng.below(starts.size())];
      std::size_t end = at;
      while (end < out.size() && std::strchr("0123456789.eE+-", out[end]) != nullptr) ++end;
      out.replace(at, end - at, kNumberSwaps[rng.below(std::size(kNumberSwaps))]);
      return out;
    }
  }
}

/// token(), one time in four with a byte or two that JSON must escape or
/// carry as UTF-8 appended: quotes, backslashes, short-escape and other
/// control bytes, NUL, and two-, three- and four-byte UTF-8.
std::string odd_token(support::Xoshiro256& rng, const char* stem) {
  static const std::string kOdd[] = {"\"",       "\\",         "/",           "\n",
                                     "\t",       "\r",          "\b",         "\f",
                                     "\x01",     "\x1f",        std::string(1, '\0'),
                                     "caf\xc3\xa9", "\xe2\x82\xac", "\xf0\x9f\x98\x80"};
  std::string out = token(rng, stem);
  if (rng.below(4) == 0)
    for (std::uint64_t n = 1 + rng.below(2); n > 0; --n)
      out += kOdd[rng.below(std::size(kOdd))];
  return out;
}

support::TelemetrySnapshot random_telemetry(support::Xoshiro256& rng) {
  support::TelemetrySnapshot snap;
  for (std::uint64_t n = rng.below(6); n > 0; --n)
    snap.counters[odd_token(rng, "ctr.")] =
        rng.below(4) == 0 ? ~0ull - rng.below(9) : rng.below(1 << 20);
  for (std::uint64_t n = rng.below(4); n > 0; --n)
    snap.gauges[odd_token(rng, "gauge.")] = rng.normal(0.0, 1e6) / (1 + rng.below(1000));
  for (std::uint64_t n = 1 + rng.below(4); n > 0; --n) {
    support::LatencyHistogram h;
    for (std::uint64_t k = rng.below(40); k > 0; --k) {
      const std::uint64_t kind = rng.below(12);
      const double v = kind == 0   ? 0.0
                       : kind == 1 ? 1e19
                                   : std::pow(10.0, -6.0 + 18.0 * rng.uniform());
      h.add(v, 1 + rng.below(3));
    }
    snap.histograms[odd_token(rng, "hist.")] = h.summary();
  }
  return snap;
}

/// Writers escape every control byte but their own line breaks.
bool no_raw_control_bytes(const std::string& json) {
  for (const char c : json)
    if (static_cast<unsigned char>(c) < 0x20 && c != '\n') return false;
  return true;
}

/// `json` with one raw byte below 0x20 put just inside one of its strings
/// (after the opening quote). Strict JSON wants such bytes escaped, so a
/// reader must refuse the result.
std::string with_raw_control_byte(const std::string& json, support::Xoshiro256& rng) {
  std::vector<std::size_t> opening_quotes;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    if (in_string && json[i] == '\\') {
      ++i;  // the escaped byte
    } else if (json[i] == '"') {
      if (!in_string) opening_quotes.push_back(i);
      in_string = !in_string;
    }
  }
  std::string out = json;
  if (!opening_quotes.empty())
    out.insert(opening_quotes[rng.below(opening_quotes.size())] + 1, 1,
               static_cast<char>(rng.below(0x20)));
  return out;
}

std::string random_trace(support::Xoshiro256& rng) {
  std::vector<std::pair<std::string, support::ChromeTrace>> shards;
  for (std::uint64_t s = 1 + rng.below(3); s > 0; --s) {
    support::SpanTracer tracer(64);
    for (std::uint64_t n = rng.below(12); n > 0; --n) {
      const std::uint64_t at = rng.below(1'000'000);
      const std::uint64_t arg = rng.below(3) == 0 ? support::SpanTracer::kNoArg : rng.below(100);
      const std::uint64_t trace = rng.below(2) == 0 ? 0 : 1 + rng.below(1ull << 40);
      if (rng.below(4) == 0) tracer.instant("daemon.crash", "daemon", at, arg, trace);
      else tracer.record("service.batch.apply", "service", at, at + rng.below(5000), arg, trace);
    }
    const auto parsed =
        support::parse_chrome_trace(tracer.to_chrome_json(1000.0 + rng.below(3000)));
    shards.emplace_back(odd_token(rng, "shard-"), *parsed);
  }
  // Events read from another tool's trace: names and categories with
  // escapes, control bytes and UTF-8.
  support::ChromeTrace odd;
  for (std::uint64_t n = 1 + rng.below(4); n > 0; --n) {
    support::ChromeTraceEvent e;
    e.name = odd_token(rng, "ev.");
    e.cat = odd_token(rng, "cat.");
    e.ph = rng.below(3) == 0 ? "i" : "X";
    e.ts = static_cast<double>(rng.below(1000));
    e.dur = e.ph == "X" ? static_cast<double>(rng.below(50)) : 0.0;
    odd.events.push_back(std::move(e));
  }
  shards.emplace_back(odd_token(rng, "tool-"), std::move(odd));
  return support::merge_chrome_traces(shards);
}

TEST(FramedFuzz, TelemetryJsonRejectsBadCountsAndRereadsAsAFixedPoint) {
  std::size_t accepted = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    support::Xoshiro256 rng(seed * 0x51ed + 3);
    const std::string base = random_telemetry(rng).to_json();
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      std::string x = base;
      for (std::uint64_t n = 1 + rng.below(3); n > 0; --n) x = mutate_json_once(x, rng);
      const std::string where = "seed " + std::to_string(seed) + " mutant " + std::to_string(i);
      const auto snap = support::TelemetrySnapshot::from_json(x);
      if (!snap) continue;
      ++accepted;
      for (const auto& [name, h] : snap->histograms) {
        std::uint64_t in_buckets = 0;
        for (const support::HistogramBucket& b : h.buckets) {
          ASSERT_LT(b.index, support::HistogramLayout::kBuckets) << where;
          in_buckets += b.count;
        }
        ASSERT_EQ(in_buckets, h.count) << where << " " << name << ":\n" << x;
        if (h.count > 0) {
          EXPECT_GE(h.p50(), h.min) << where;
          EXPECT_LE(h.p99(), h.max) << where;
        }
      }
      const std::string y = snap->to_json();
      ASSERT_TRUE(no_raw_control_bytes(y)) << where << ":\n" << y;
      const auto again = support::TelemetrySnapshot::from_json(y);
      ASSERT_TRUE(again.has_value()) << where << ":\n" << y;
      EXPECT_EQ(again->to_json(), y) << where;
      support::Xoshiro256 inject(seed * 0x1000 + static_cast<std::uint64_t>(i));
      const std::string raw = with_raw_control_byte(y, inject);
      EXPECT_FALSE(support::TelemetrySnapshot::from_json(raw).has_value()) << where << ":\n" << raw;
    }
  }
  // Number swaps into gauges, sums and extremes keep most files readable.
  EXPECT_GT(accepted, kSeeds * kMutantsPerSeed / 20);
}

TEST(FramedFuzz, ChromeTraceRejectsBadIdsAndRewritesAsAFixedPoint) {
  std::size_t accepted = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    support::Xoshiro256 rng(seed * 0x7ace + 5);
    const std::string base = random_trace(rng);
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      std::string x = base;
      for (std::uint64_t n = 1 + rng.below(3); n > 0; --n) x = mutate_json_once(x, rng);
      const std::string where = "seed " + std::to_string(seed) + " mutant " + std::to_string(i);
      const auto trace = support::parse_chrome_trace(x);
      if (!trace) continue;
      ++accepted;
      const std::string y = support::merge_chrome_traces({{"shard", *trace}});
      ASSERT_TRUE(no_raw_control_bytes(y)) << where << ":\n" << y;
      const auto again = support::parse_chrome_trace(y);
      ASSERT_TRUE(again.has_value()) << where << ":\n" << y;
      EXPECT_EQ(support::merge_chrome_traces({{"shard", *again}}), y) << where;
      support::Xoshiro256 inject(seed * 0x1000 + static_cast<std::uint64_t>(i));
      const std::string raw = with_raw_control_byte(y, inject);
      EXPECT_FALSE(support::parse_chrome_trace(raw).has_value()) << where << ":\n" << raw;
    }
  }
  EXPECT_GT(accepted, kSeeds * kMutantsPerSeed / 20);
}

// --- The boot-image method map: parse_rvm_map ------------------------------

/// An RVM.map: "offset size name" lines at distinct, non-overlapping
/// offsets, in shuffled order,
/// with 0x/0X spellings, upper-case digits, extra trailing fields,
/// comments and blank lines, names of up to 600 characters, and sometimes
/// no final newline.
std::string random_rvm_map(support::Xoshiro256& rng) {
  std::vector<std::string> lines;
  std::uint64_t at = rng.below(1 << 12);
  for (std::uint64_t n = 1 + rng.below(24); n > 0; --n) {
    const std::uint64_t size = rng.below(6) == 0 ? 0 : 1 + rng.below(512);
    char hex[24];
    std::snprintf(hex, sizeof hex, rng.below(2) == 0 ? "%llx" : "%llX",
                  static_cast<unsigned long long>(at));
    const std::uint64_t spelling = rng.below(4);
    std::string line = (spelling == 0 ? "0x" : spelling == 1 ? "0X" : "") + std::string(hex);
    line += rng.below(4) == 0 ? "\t" : " ";
    line += std::to_string(size) + " ";
    const std::uint64_t len_kind = rng.below(10);
    const std::size_t len = len_kind == 0 ? 511 : len_kind == 1 ? 512 : len_kind == 2 ? 600
                                                                      : 1 + rng.below(40);
    std::string name = "Lcom/example/K" + std::to_string(n) + ";.m";
    while (name.size() < len) name += static_cast<char>('a' + rng.below(26));
    line += name.substr(0, len);
    if (rng.below(8) == 0) line += " trailing-field";
    lines.push_back(line + "\n");
    at += size + 1 + rng.below(64);
  }
  for (std::uint64_t n = rng.below(3); n > 0; --n) lines.push_back("# boot image map\n");
  if (rng.below(3) == 0) lines.push_back("\n");
  for (std::size_t i = lines.size(); i > 1; --i) std::swap(lines[i - 1], lines[rng.below(i)]);
  std::string out = joined(lines);
  if (rng.below(4) == 0) out.pop_back();  // no final newline
  return out;
}

/// One RVM.map-specific mutation on top of mutate_once: a number field
/// replaced by an overflowing, 0x-spelled, signed or junk-suffixed one, a
/// NUL put anywhere, a name grown past the 511-character cap, or the
/// final newline removed.
std::string mutate_rvm_once(const std::string& text, support::Xoshiro256& rng) {
  static const char* const kFields[] = {
      "ffffffffffffffff", "10000000000000000", "18446744073709551615",
      "18446744073709551616", "0x", "0X0x12", "0x0", "-5", "+5", "5x", "0000000000000000012",
      "x12", ""};
  if (text.empty()) return text;
  std::string out = text;
  switch (rng.below(6)) {
    case 0: {  // a field swapped for an odd number spelling
      std::vector<std::string> lines = lines_of(out);
      std::string& line = lines[rng.below(lines.size())];
      const std::size_t sp = line.find(' ');
      const bool first = rng.below(2) == 0 || sp == std::string::npos;
      const std::string field = kFields[rng.below(std::size(kFields))];
      if (first) {
        line.replace(0, sp == std::string::npos ? 0 : sp, field);
      } else {
        const std::size_t end = line.find(' ', sp + 1);
        line.replace(sp + 1, end == std::string::npos ? 0 : end - sp - 1, field);
      }
      return joined(lines);
    }
    case 1:  // a NUL anywhere
      out.insert(rng.below(out.size() + 1), 1, '\0');
      return out;
    case 2: {  // a name grown past the cap
      std::vector<std::string> lines = lines_of(out);
      std::string& line = lines[rng.below(lines.size())];
      const bool nl = !line.empty() && line.back() == '\n';
      if (nl) line.pop_back();
      line += std::string(rng.below(3) == 0 ? 1 : 200 + rng.below(400), 'q');
      if (nl) line += '\n';
      return joined(lines);
    }
    case 3:  // no final newline
      if (out.back() == '\n') out.pop_back();
      return out;
    default:
      return mutate_once(out, rng);
  }
}

/// The symbols a map line can stand for, read independently of str_scan:
/// split on the whitespace bytes, a hex field (one optional 0x/0X, then
/// hex digits, value below 2^64), a decimal field below 2^64, and a name
/// token cut to 511 characters.
struct RvmSymbol {
  std::uint64_t offset, size;
  std::string name;
  auto operator<=>(const RvmSymbol&) const = default;
};

std::optional<RvmSymbol> oracle_rvm_line(const std::string& line) {
  const auto space = [](char c) {
    return c == ' ' || c == '\t' || c == '\v' || c == '\f' || c == '\r';
  };
  std::vector<std::string> fields;
  for (std::size_t i = 0; i < line.size();) {
    if (space(line[i])) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < line.size() && !space(line[j])) ++j;
    fields.push_back(line.substr(i, j - i));
    i = j;
  }
  if (fields.size() < 3) return std::nullopt;
  const auto number = [](std::string digits, unsigned base) -> std::optional<std::uint64_t> {
    if (base == 16 && digits.size() > 2 && digits[0] == '0' && (digits[1] | 0x20) == 'x')
      digits = digits.substr(2);
    if (digits.empty()) return std::nullopt;
    unsigned __int128 v = 0;
    for (const char c : digits) {
      const int d = std::isdigit(static_cast<unsigned char>(c)) ? c - '0'
                    : base == 16 && std::isxdigit(static_cast<unsigned char>(c))
                        ? 10 + (std::tolower(static_cast<unsigned char>(c)) - 'a')
                        : -1;
      if (d < 0) return std::nullopt;
      v = v * base + static_cast<unsigned>(d);
      if (v > ~std::uint64_t{0}) return std::nullopt;
    }
    return static_cast<std::uint64_t>(v);
  };
  const auto offset = number(fields[0], 16);
  const auto size = number(fields[1], 10);
  if (!offset || !size) return std::nullopt;
  return RvmSymbol{*offset, *size, fields[2].substr(0, 511)};
}

std::set<RvmSymbol> oracle_rvm_symbols(const std::string& text) {
  std::set<RvmSymbol> out;
  for (std::string line : lines_of(text)) {
    if (!line.empty() && line.back() == '\n') line.pop_back();
    if (const auto sym = oracle_rvm_line(line)) out.insert(*sym);
  }
  return out;
}

std::vector<RvmSymbol> parsed_rvm(const std::string& text) {
  const os::SymbolTable table = core::parse_rvm_map(text);
  std::vector<RvmSymbol> out;
  for (const os::Symbol& s : table.ordered())
    out.push_back({s.offset, s.size, s.name.str()});
  return out;
}

std::string serialize_rvm(const std::vector<RvmSymbol>& symbols) {
  std::string out;
  for (const RvmSymbol& s : symbols) {
    char hex[24];
    std::snprintf(hex, sizeof hex, "%llx", static_cast<unsigned long long>(s.offset));
    out += std::string(hex) + " " + std::to_string(s.size) + " " + s.name + "\n";
  }
  return out;
}

TEST(FramedFuzz, RvmMapYieldsOnlyScannedLinesAndReparsesAsAFixedPoint) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    support::Xoshiro256 rng(seed * 0x4b1d + 11);
    const std::string base = random_rvm_map(rng);
    // The undamaged map yields exactly its lines.
    const std::vector<RvmSymbol> clean = parsed_rvm(base);
    EXPECT_EQ(std::set<RvmSymbol>(clean.begin(), clean.end()), oracle_rvm_symbols(base))
        << "seed " << seed;
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      std::string x = base;
      for (std::uint64_t n = 1 + rng.below(3); n > 0; --n) x = mutate_rvm_once(x, rng);
      const std::string where = "seed " + std::to_string(seed) + " mutant " + std::to_string(i);
      // ordered() runs the table's no-overlap check: it must not abort.
      const std::vector<RvmSymbol> got = parsed_rvm(x);
      const std::set<RvmSymbol> lines = oracle_rvm_symbols(x);
      for (std::size_t k = 0; k < got.size(); ++k) {
        ASSERT_LE(got[k].name.size(), 511u) << where;
        ASSERT_TRUE(lines.count(got[k])) << where << ": no line scans to " << got[k].name;
        if (k > 0) {
          ASSERT_LT(got[k - 1].offset, got[k].offset) << where;
          ASSERT_LE(got[k - 1].offset + got[k - 1].size, got[k].offset) << where;
        }
      }
      const std::string y = serialize_rvm(got);
      EXPECT_EQ(parsed_rvm(y), got) << where;
      EXPECT_EQ(serialize_rvm(parsed_rvm(y)), y) << where;
    }
  }
}

// --- The archive manifest: ArchiveResolver ----------------------------------

std::vector<std::string> words(const std::string& line) {
  std::vector<std::string> out;
  std::string word;
  for (const char c : line + " ") {
    if (c != ' ') {
      word += c;
    } else if (!word.empty()) {
      out.push_back(word);
      word.clear();
    }
  }
  return out;
}

/// A malformed copy of manifest line `line` (no newline), or "" when the
/// line has no field this can break. `images` is the image-table size.
std::string malformed_line(const std::string& line, std::size_t images,
                           support::Xoshiro256& rng) {
  std::vector<std::string> w = words(line);
  if (w.empty()) return "";
  const std::string& tag = w[0];
  // Numeric fields per tag; the image-id field, if any; whether every
  // field is numeric (so dropping one leaves the line short).
  std::vector<std::size_t> numeric;
  std::size_t image_field = 0;
  bool all_numeric = false;
  if (tag == "image") {
    numeric = {1, 3};
  } else if (tag == "sym") {
    numeric = {1, 2, 3};
    image_field = 1;
  } else if (tag == "proc") {
    numeric = {1};
  } else if (tag == "vma") {
    numeric = {1, 2, 3, 4, 5};
    image_field = 4;
    all_numeric = true;
  } else if (tag == "kernel" || tag == "hyp") {
    numeric = {1, 2, 3};
    image_field = 1;
    all_numeric = true;
  } else if (tag == "reg") {
    numeric = {1, 2, 3, 4, 5};
  }
  numeric.erase(std::remove_if(numeric.begin(), numeric.end(),
                               [&w](std::size_t f) { return f >= w.size(); }),
                numeric.end());
  if (numeric.empty()) return "";
  const std::size_t f = numeric[rng.below(numeric.size())];
  switch (rng.below(image_field != 0 ? 7 : 6)) {
    case 0: w[f] += "x"; break;
    case 1: w[f] = "-" + w[f]; break;
    case 2: w[f] = "0x"; break;
    case 3: w[f] = "99999999999999999999"; break;
    case 4: w[f] = "zz"; break;
    case 5:
      if (!all_numeric) return malformed_line(line, images, rng);
      w.erase(w.begin() + static_cast<std::ptrdiff_t>(f));
      break;
    default: w[image_field] = std::to_string(images + rng.below(1000)); break;
  }
  std::string out;
  for (std::size_t i = 0; i < w.size(); ++i) out += (i ? " " : "") + w[i];
  return out;
}

bool same_resolution(const core::Resolution& a, const core::Resolution& b) {
  return a.image == b.image && a.symbol == b.symbol && a.domain == b.domain &&
         a.symbol_base == b.symbol_base && a.symbol_size == b.symbol_size;
}

TEST(FramedFuzz, ArchiveManifestSkipsAndCountsMalformedLinesAndNeverThrows) {
  service::ScenarioConfig config;
  config.vms = 2;
  config.samples_per_event = 300;
  config.epochs = 4;
  config.methods = 32;
  const auto scenario = service::record_scenario(config);
  os::Vfs world = scenario->vfs();
  const std::string base = *world.read("archive/manifest");
  std::vector<core::LoggedSample> samples;
  for (const hw::EventKind event : core::kReportEvents) {
    const auto logged = core::SampleLogReader::read(world, "samples", event);
    samples.insert(samples.end(), logged.begin(), logged.end());
  }
  ASSERT_FALSE(samples.empty());
  const core::ArchiveResolver clean(world, "archive", true, false);
  ASSERT_EQ(clean.malformed_lines(), 0u);
  std::vector<core::Resolution> want;
  for (const core::LoggedSample& s : samples) want.push_back(clean.resolve(s));
  const std::vector<std::string> base_lines = lines_of(base);

  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    support::Xoshiro256 rng(seed * 0xa7c + 17);
    for (int i = 0; i < kMutantsPerSeed / 10; ++i) {
      const std::string where = "seed " + std::to_string(seed) + " mutant " + std::to_string(i);
      // Damage of every kind: loads and resolves without throwing.
      world.write("archive/manifest", mutate(base, rng));
      {
        const core::ArchiveResolver damaged(world, "archive", true, false);
        for (const core::LoggedSample& s : samples) (void)damaged.resolve(s);
      }

      // Malformed lines spliced in: skipped, counted, and invisible.
      std::vector<std::string> lines = base_lines;
      std::size_t junk = 0;
      for (std::uint64_t n = 1 + rng.below(6); n > 0; --n) {
        std::string from = base_lines[rng.below(base_lines.size())];
        from.pop_back();  // its newline
        const std::string bad = malformed_line(from, clean.image_count(), rng);
        if (bad.empty()) continue;
        lines.insert(lines.begin() + rng.below(lines.size() + 1), bad + "\n");
        ++junk;
      }
      world.write("archive/manifest", joined(lines));
      const core::ArchiveResolver skipped(world, "archive", true, false);
      ASSERT_EQ(skipped.malformed_lines(), junk) << where << ":\n" << joined(lines);
      for (std::size_t k = 0; k < samples.size(); ++k)
        ASSERT_TRUE(same_resolution(skipped.resolve(samples[k]), want[k]))
            << where << " sample " << k << ":\n" << joined(lines);
    }
  }
}

// --- The service wire: FrameDecoder ----------------------------------------

/// A stream of encoded frames, some traced, with payload bytes drawn from
/// an alphabet heavy in the magic bytes so resynchronisation is exercised.
struct FrameStream {
  std::string bytes;
  std::vector<std::size_t> ends;  // end offset of each frame in `bytes`
};

FrameStream random_frame_stream(support::Xoshiro256& rng) {
  static constexpr char kAlphabet[] = {'V', 'F', '\0', '\n', 'a', 'z', ' ', '\x7f'};
  FrameStream out;
  for (std::uint64_t n = 1 + rng.below(12); n > 0; --n) {
    const auto type = static_cast<service::FrameType>(
        1 + rng.below(static_cast<std::uint64_t>(service::FrameType::kError)));
    std::string payload(rng.below(96), ' ');
    for (char& c : payload) c = kAlphabet[rng.below(sizeof kAlphabet)];
    const support::TraceContext trace =
        rng.below(3) == 0 ? support::TraceContext{1 + rng.below(1000), rng.below(50)}
                          : support::TraceContext{};
    out.bytes += service::encode_frame(type, payload, trace);
    out.ends.push_back(out.bytes.size());
  }
  return out;
}

/// One seeded byte-level mutation: flip bits of one byte, truncate, move a
/// run of bytes elsewhere, or duplicate one whole frame at a frame border.
std::string mutate_wire_once(const std::string& bytes, const FrameStream& stream,
                             support::Xoshiro256& rng) {
  if (bytes.empty()) return bytes;
  std::string out = bytes;
  switch (rng.below(4)) {
    case 0:
      out[rng.below(out.size())] ^= static_cast<char>(1u << rng.below(8));
      return out;
    case 1:
      return out.substr(0, rng.below(out.size()));
    case 2: {
      const std::size_t from = rng.below(out.size());
      const std::size_t len = 1 + rng.below(std::min<std::size_t>(64, out.size() - from));
      const std::string run = out.substr(from, len);
      out.erase(from, len);
      out.insert(rng.below(out.size() + 1), run);
      return out;
    }
    default: {
      const std::size_t k = rng.below(stream.ends.size());
      const std::size_t begin = k == 0 ? 0 : stream.ends[k - 1];
      const std::string frame = stream.bytes.substr(begin, stream.ends[k] - begin);
      const std::size_t at = rng.below(stream.ends.size() + 1);
      out.insert(std::min(out.size(), at == 0 ? 0 : stream.ends[at - 1]), frame);
      return out;
    }
  }
}

/// The encoded size of a decoded frame.
std::size_t wire_size(const service::FrameView& f) {
  return service::kFrameHeaderBytes +
         (f.trace.valid() ? service::kFrameTraceExtBytes : 0) + f.payload.size() +
         service::kFrameTrailerBytes;
}

TEST(FramedFuzz, FrameDecoderYieldsOnlyVerifiedFramesAndCountsEveryByte) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    support::Xoshiro256 rng(seed + 41);
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      const FrameStream stream = random_frame_stream(rng);
      std::string x = stream.bytes;
      for (std::uint64_t n = 1 + rng.below(3); n > 0; --n)
        x = mutate_wire_once(x, stream, rng);
      const std::string where = "seed " + std::to_string(seed) + " mutant " +
                                std::to_string(i);
      // Frames wholly before the first damaged byte must all come out.
      std::size_t damage = 0;
      while (damage < x.size() && damage < stream.bytes.size() &&
             x[damage] == stream.bytes[damage])
        ++damage;
      std::size_t intact = 0;
      while (intact < stream.ends.size() && stream.ends[intact] <= damage) ++intact;

      service::FrameDecoder views;
      service::FrameDecoder copies;
      std::size_t decoded_bytes = 0;
      std::size_t frames = 0;
      for (std::size_t fed = 0; fed < x.size();) {
        const std::size_t chunk =
            std::min<std::size_t>(1 + rng.below(48), x.size() - fed);
        views.feed(x.data() + fed, chunk);
        copies.feed(x.data() + fed, chunk);
        fed += chunk;
        service::FrameView v;
        while (views.next_view(v)) {
          // The frame starts after every byte decoded or skipped so far,
          // and its bytes there must re-encode exactly: a verified frame
          // of the input, crc included.
          const std::size_t at = decoded_bytes + views.skipped_bytes();
          const std::string enc =
              service::encode_frame(v.type, std::string(v.payload), v.trace);
          ASSERT_EQ(enc.size(), wire_size(v)) << where;
          ASSERT_EQ(x.compare(at, enc.size(), enc), 0) << where << " frame " << frames;
          if (frames < intact) {
            const std::size_t begin = frames == 0 ? 0 : stream.ends[frames - 1];
            EXPECT_EQ(at, begin) << where << " frame " << frames;
          }
          service::Frame f;
          ASSERT_TRUE(copies.next(f)) << where;
          EXPECT_EQ(f.type, v.type) << where;
          EXPECT_EQ(f.payload, v.payload) << where;
          EXPECT_EQ(f.trace.trace_id, v.trace.trace_id) << where;
          decoded_bytes += enc.size();
          ++frames;
        }
        service::Frame extra;
        EXPECT_FALSE(copies.next(extra)) << where;
      }
      EXPECT_GE(frames, intact) << where;
      // Every byte is decoded, skipped as damage, or still in flight.
      EXPECT_EQ(decoded_bytes + views.skipped_bytes() + views.buffered_bytes(), x.size())
          << where;
      EXPECT_EQ(views.skipped_bytes() == 0, views.torn_frames() == 0) << where;
      EXPECT_EQ(copies.skipped_bytes(), views.skipped_bytes()) << where;
      EXPECT_EQ(copies.torn_frames(), views.torn_frames()) << where;
      if (x == stream.bytes) {
        EXPECT_EQ(frames, stream.ends.size()) << where;
        EXPECT_EQ(views.skipped_bytes(), 0u) << where;
      }
    }
  }
}

}  // namespace
}  // namespace viprof
