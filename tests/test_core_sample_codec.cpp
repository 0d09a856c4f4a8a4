// The sample-line codec against the sscanf/snprintf code it replaced.
//
// The old parser (its line checks verbatim, its dedup the seen-sequence
// rule) and writer survive here as oracles. The differential property
// suite feeds both parsers seeded writer output and seeded mutations of
// it (truncation at every byte, bit flips, duplicated and swapped lines,
// torn tails, whitespace padding, signs, 0x prefixes, overlong fields,
// crc junk) and requires the same samples and the same
// SampleLogReadStatus, whole-file and batch by batch. The one permitted
// difference is the stricter accept set: a line the oracle takes only
// because sscanf accepts a sign, saturates an overflowing field, reads a
// bare "0x" as 0, stops at an embedded NUL or reads a crc field with junk
// around its digits. The codec must discard and count such a line.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "core/sample_log.hpp"
#include "support/arena.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace viprof::core {
namespace {

// --- Oracles: the code the codec replaced ---------------------------------

/// Every line here is in kEvent's log unless a test says otherwise.
constexpr hw::EventKind kEvent = hw::EventKind::kGlobalPowerEvents;

/// The v2 line crc: XXH32 seeded with the event's key.
std::uint32_t oracle_crc(const char* data, std::size_t size, hw::EventKind event = kEvent) {
  return support::xxh32(
      data, size, support::frame_key(support::FrameKind::kSampleLog, hw::event_index(event)));
}

std::uint32_t oracle_crc(const std::string& s) { return oracle_crc(s.data(), s.size()); }

/// SampleLogWriter::append's line before the codec: two snprintf calls.
std::string snprintf_line(std::uint64_t seq, const LoggedSample& s,
                          hw::EventKind event = kEvent) {
  char buf[192];
  const int body = std::snprintf(
      buf, sizeof buf, "%llu %llx %llx %c %u %llu %llu",
      static_cast<unsigned long long>(seq),
      static_cast<unsigned long long>(s.pc),
      static_cast<unsigned long long>(s.caller_pc),
      s.mode == hw::CpuMode::kKernel
          ? 'k'
          : (s.mode == hw::CpuMode::kHypervisor ? 'h' : 'u'),
      s.pid,
      static_cast<unsigned long long>(s.epoch),
      static_cast<unsigned long long>(s.cycle));
  const std::uint32_t crc = oracle_crc(buf, static_cast<std::size_t>(body), event);
  std::snprintf(buf + body, sizeof buf - static_cast<std::size_t>(body), " %08x\n",
                crc);
  return buf;
}

/// SampleStreamParser::parse_into before the codec: its line checks
/// verbatim, its dedup the seen-sequence rule (a record counts iff its seq
/// is new) modelled by a std::set.
class SscanfParser {
 public:
  void parse(std::string_view text, std::vector<LoggedSample>& out) {
    std::size_t pos = 0;
    while (pos < text.size()) {
      std::size_t nl = text.find('\n', pos);
      const bool unterminated = nl == std::string_view::npos;
      if (unterminated) nl = text.size();
      const std::size_t len = nl - pos;

      bool ok = !unterminated && len >= 10;
      unsigned long long seq = 0, pc = 0, caller = 0, epoch = 0, cycle = 0;
      unsigned pid = 0, crc_read = 0;
      char mode = 'u';
      if (ok) {
        const std::size_t last_space = text.rfind(' ', nl - 1);
        ok = last_space != std::string_view::npos && last_space > pos &&
             nl - last_space - 1 == 8;
        if (ok) {
          const std::string body(text.substr(pos, last_space - pos));
          const std::string crc_text(text.substr(last_space + 1, 8));
          char extra = 0;
          ok = std::sscanf(body.c_str(), "%llu %llx %llx %c %u %llu %llu %c", &seq,
                           &pc, &caller, &mode, &pid, &epoch, &cycle, &extra) == 7 &&
               std::sscanf(crc_text.c_str(), "%8x", &crc_read) == 1 &&
               oracle_crc(body) == crc_read;
        }
      }

      if (!ok) {
        status_.corrupt = true;
        ++status_.discarded_lines;
        status_.discarded_bytes += len + (unterminated ? 0 : 1);
        pos = nl + (unterminated ? 0 : 1);
        if (unterminated) break;
        continue;
      }

      if (!seen_.insert(seq).second) {
        ++status_.duplicate_records;
        pos = nl + 1;
        continue;
      }
      status_.max_seq = *seen_.rbegin();
      status_.missing_records = status_.max_seq + 1 - seen_.size();

      LoggedSample s;
      s.pc = pc;
      s.caller_pc = caller;
      s.mode = mode == 'k' ? hw::CpuMode::kKernel
               : mode == 'h' ? hw::CpuMode::kHypervisor
                             : hw::CpuMode::kUser;
      s.pid = pid;
      s.epoch = epoch;
      s.cycle = cycle;
      out.push_back(s);
      ++status_.valid;
      pos = nl + 1;
    }

    if (status_.corrupt) status_.salvaged = status_.valid;
  }

  const SampleLogReadStatus& status() const { return status_; }

 private:
  SampleLogReadStatus status_;
  std::set<std::uint64_t> seen_;
};

// --- Helpers ---------------------------------------------------------------

constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
constexpr hw::CpuMode kModes[] = {hw::CpuMode::kUser, hw::CpuMode::kKernel,
                                  hw::CpuMode::kHypervisor};

bool same_sample(const LoggedSample& a, const LoggedSample& b) {
  return a.pc == b.pc && a.caller_pc == b.caller_pc && a.mode == b.mode &&
         a.pid == b.pid && a.epoch == b.epoch && a.cycle == b.cycle;
}

void expect_same_status(const SampleLogReadStatus& got, const SampleLogReadStatus& want,
                        const std::string& where) {
  EXPECT_EQ(got.missing, want.missing) << where;
  EXPECT_EQ(got.corrupt, want.corrupt) << where;
  EXPECT_EQ(got.valid, want.valid) << where;
  EXPECT_EQ(got.salvaged, want.salvaged) << where;
  EXPECT_EQ(got.discarded_lines, want.discarded_lines) << where;
  EXPECT_EQ(got.discarded_bytes, want.discarded_bytes) << where;
  EXPECT_EQ(got.duplicate_records, want.duplicate_records) << where;
  EXPECT_EQ(got.missing_records, want.missing_records) << where;
  EXPECT_EQ(got.max_seq, want.max_seq) << where;
}

void expect_same_samples(const std::vector<LoggedSample>& got,
                         const std::vector<LoggedSample>& want, const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_TRUE(same_sample(got[i], want[i])) << where << " sample " << i;
}

std::uint64_t edge_or_random(support::Xoshiro256& rng, std::uint64_t random) {
  switch (rng.below(4)) {
    case 0: return 0;
    case 1: return kU32Max;
    case 2: return kU64Max;
    default: return random;
  }
}

LoggedSample random_sample(support::Xoshiro256& rng) {
  LoggedSample s;
  s.pc = edge_or_random(rng, rng());
  s.caller_pc = edge_or_random(rng, rng() >> rng.below(64));
  s.mode = kModes[rng.below(3)];
  const std::uint64_t pid = edge_or_random(rng, rng.below(70000));
  s.pid = static_cast<hw::Pid>(pid == kU64Max ? kU32Max : pid);
  s.epoch = edge_or_random(rng, rng.below(1000));
  s.cycle = edge_or_random(rng, rng() >> rng.below(64));
  return s;
}

/// Seeded SampleLogWriter output, one string per line ('\n' included).
std::vector<std::string> writer_corpus(std::uint64_t seed, std::size_t lines) {
  support::Xoshiro256 rng(seed);
  os::Vfs vfs;
  SampleLogWriter writer(vfs, "s");
  for (std::size_t i = 0; i < lines; ++i)
    writer.append(hw::EventKind::kGlobalPowerEvents, random_sample(rng));
  writer.flush();
  const std::string text =
      *vfs.read(SampleLogWriter::path_for("s", hw::EventKind::kGlobalPowerEvents));
  std::vector<std::string> out;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t nl = text.find('\n', pos);
    out.push_back(text.substr(pos, nl + 1 - pos));
    pos = nl + 1;
  }
  return out;
}

/// Frames `body` with its own crc: what a writer would emit for that text.
std::string signed_line(const std::string& body) {
  char crc[16];
  std::snprintf(crc, sizeof crc, " %08x\n", oracle_crc(body));
  return body + crc;
}

/// The seven space-separated fields of a canonical line.
std::vector<std::string> fields_of(const std::string& line) {
  std::vector<std::string> fields;
  const std::string body = line.substr(0, line.size() - 10);
  for (std::size_t pos = 0; pos <= body.size();) {
    std::size_t sp = body.find(' ', pos);
    if (sp == std::string::npos) sp = body.size();
    fields.push_back(body.substr(pos, sp - pos));
    pos = sp + 1;
  }
  return fields;
}

std::string join(const std::vector<std::string>& fields, const std::string& sep = " ") {
  std::string out;
  for (std::size_t i = 0; i < fields.size(); ++i) out += (i ? sep : "") + fields[i];
  return out;
}

std::string concat(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) out += l;
  return out;
}

std::vector<LoggedSample> parse_new(std::string_view text, SampleLogReadStatus& status) {
  SampleStreamParser parser;
  std::vector<LoggedSample> out;
  parser.parse_into(text, sample_line_hash(kEvent), out);
  status = parser.status();
  return out;
}

std::vector<LoggedSample> parse_oracle(std::string_view text,
                                       SampleLogReadStatus& status) {
  SscanfParser parser;
  std::vector<LoggedSample> out;
  parser.parse(text, out);
  status = parser.status();
  return out;
}

/// True when the crc field (the line's last 8 bytes) holds anything but hex
/// digits: sscanf's %8x read past such junk, the codec refuses it.
bool crc_has_junk(const std::string& line) {
  if (line.size() < 8) return false;
  for (std::size_t i = line.size() - 8; i < line.size(); ++i)
    if (!std::isxdigit(static_cast<unsigned char>(line[i]))) return true;
  return false;
}

/// The differential check. `strict` holds the lines (without '\n') the
/// mutator built in the stricter class; only those, and lines with crc junk,
/// may be accepted by the oracle and refused by the codec, and the codec
/// must refuse them.
void check_equivalent(const std::string& text, const std::set<std::string>& strict,
                      std::uint64_t seed, const std::string& what) {
  const std::string where = what + " (seed " + std::to_string(seed) + ")";
  // Line by line: same verdict and same values, or a stricter-class refusal.
  // The oracle's input is `text` with each such line made unparseable at
  // the same length, so the two parsers' accounting must then agree exactly.
  std::string normalised = text;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) break;
    const std::string line = text.substr(pos, nl - pos);
    SampleLogReadStatus ns, os;
    const std::vector<LoggedSample> got = parse_new(line + "\n", ns);
    const std::vector<LoggedSample> want = parse_oracle(line + "\n", os);
    if (strict.count(line) != 0 || crc_has_junk(line)) {
      EXPECT_TRUE(got.empty()) << where << ": codec accepted stricter-class line ["
                               << line << "]";
      if (!want.empty()) normalised[nl - 8] = 'z';
    } else {
      ASSERT_EQ(got.size(), want.size()) << where << ": verdicts differ on [" << line
                                         << "]";
      if (!got.empty()) {
        EXPECT_TRUE(same_sample(got[0], want[0])) << where << ": values differ on ["
                                                  << line << "]";
      }
    }
    pos = nl + 1;
  }

  SampleLogReadStatus got_status, want_status;
  const auto got = parse_new(text, got_status);
  const auto want = parse_oracle(normalised, want_status);
  expect_same_samples(got, want, where + " whole-file");
  expect_same_status(got_status, want_status, where + " whole-file");

  // Batch by batch at seeded line boundaries, the way the service receives
  // a stream; the codec side decodes each batch into an arena.
  support::Xoshiro256 rng(seed ^ 0xba7c4);
  SampleStreamParser codec;
  SscanfParser oracle;
  std::vector<LoggedSample> codec_out, oracle_out;
  support::Arena arena;
  std::size_t from = 0;
  while (from < text.size()) {
    std::size_t to = from;
    for (std::uint64_t n = 1 + rng.below(8); n > 0 && to < text.size(); --n) {
      const std::size_t nl = text.find('\n', to);
      to = nl == std::string::npos ? text.size() : nl + 1;
    }
    support::ArenaVector<LoggedSample> batch(arena);
    codec.parse_into(std::string_view(text).substr(from, to - from), sample_line_hash(kEvent),
                     batch);
    codec_out.insert(codec_out.end(), batch.begin(), batch.end());
    oracle.parse(std::string_view(normalised).substr(from, to - from), oracle_out);
    const std::string at = where + " batch ending at byte " + std::to_string(to);
    expect_same_samples(codec_out, oracle_out, at);
    expect_same_status(codec.status(), oracle.status(), at);
    arena.reset();
    from = to;
  }
}

// --- Mutations -------------------------------------------------------------

class Mutator {
 public:
  Mutator(std::uint64_t seed, std::vector<std::string> lines)
      : rng_(seed), lines_(std::move(lines)) {}

  std::string text() const { return concat(lines_); }
  const std::set<std::string>& strict() const { return strict_; }

  /// Applies one seeded mutation; returns its name.
  std::string mutate_once() {
    const std::size_t i = rng_.below(lines_.size());
    std::vector<std::string> f = fields_of(lines_[i]);
    std::uint64_t kind = rng_.below(12);
    if (kind >= 5 && !canonical(lines_[i])) kind = 2;  // field edits need 7 fields
    switch (kind) {
      case 0: {  // torn in place: the line keeps its newline
        lines_[i] = lines_[i].substr(0, rng_.below(lines_[i].size())) + "\n";
        return "cut";
      }
      case 1: {
        std::string t = text();
        t[rng_.below(t.size())] ^= static_cast<char>(1u << rng_.below(8));
        reset_from(t);
        return "bitflip";
      }
      case 2:
        lines_.insert(lines_.begin() + static_cast<std::ptrdiff_t>(i), lines_[i]);
        return "duplicate";
      case 3:
        std::swap(lines_[i], lines_[rng_.below(lines_.size())]);
        return "swap";
      case 4: {
        std::string t = text();
        t.resize(t.size() - 1 - rng_.below(lines_.back().size()));
        reset_from(t);
        return "torn-tail";
      }
      case 5: {  // whitespace padding, re-signed: both must read the same values
        static const char* const kSeps[] = {"  ", "\t", " \t", "\t\t ", " \v "};
        std::string body;
        for (std::size_t k = 0; k < f.size(); ++k)
          body += (k ? std::string(kSeps[rng_.below(5)]) : std::string()) + f[k];
        if (rng_.below(2)) body = "\t " + body;
        if (rng_.below(2)) body += "\t";
        resign(i, body);
        return "whitespace";
      }
      case 6: {  // sign on a numeric field (stricter class)
        static const std::size_t kNumeric[] = {0, 1, 2, 4, 5, 6};
        f[kNumeric[rng_.below(6)]].insert(0, rng_.below(2) ? "+" : "-");
        set_strict(i, join(f));
        return "sign";
      }
      case 7: {  // 0x prefix: valid on hex fields, breaks decimal ones
        static const std::size_t kAny[] = {0, 1, 2, 4, 5, 6};
        f[kAny[rng_.below(6)]].insert(0, rng_.below(2) ? "0x" : "0X");
        resign(i, join(f));
        return "0x";
      }
      case 8: {  // bare 0x as a hex field (stricter class)
        f[1 + rng_.below(2)] = "0x";
        set_strict(i, join(f));
        return "bare-0x";
      }
      case 9: {  // overlong: leading zeros (valid) or overflow (stricter class)
        static const std::size_t kNumeric[] = {0, 1, 2, 4, 5, 6};
        const std::size_t k = kNumeric[rng_.below(6)];
        if (rng_.below(2)) {
          f[k].insert(0, std::string(20 + rng_.below(10), '0'));
          resign(i, join(f));
          return "leading-zeros";
        }
        if (k == 4)
          f[k] = std::to_string(kU32Max + 1 + rng_.below(kU32Max));
        else if (k == 1 || k == 2)
          f[k] = "1" + std::string(16 + rng_.below(4), '0');
        else
          f[k] = "18446744073709551616" + std::string(rng_.below(3), '7');
        set_strict(i, join(f));
        return "overflow";
      }
      case 10: {  // crc junk sscanf's %8x reads past (stricter class)
        // Re-pick the cycle until the crc has the leading zero nibbles the
        // junk replaces.
        const bool six = rng_.below(4) == 0;  // room for a 0x prefix
        const std::uint32_t limit = six ? 0x1000000u : 0x10000000u;
        std::string body = join(f);
        for (std::uint64_t c = 0; oracle_crc(body) >= limit; ++c) {
          f[6] = std::to_string(c);
          body = join(f);
        }
        const std::uint32_t crc = oracle_crc(body);
        char digits[16];
        std::string trailer;
        if (six) {
          std::snprintf(digits, sizeof digits, "%06x", crc);
          trailer = std::string("0x") + digits;
        } else {
          std::snprintf(digits, sizeof digits, "%07x", crc);
          switch (rng_.below(4)) {
            case 0: trailer = std::string("+") + digits; break;
            case 1: trailer = std::string("\t") + digits; break;
            case 2: trailer = std::string(digits) + "Z"; break;
            default: trailer = std::string(digits) + '\0'; break;
          }
        }
        lines_[i] = body + " " + trailer + "\n";
        return "crc-junk";
      }
      default: {  // mode byte: any character reads as user; NUL ends sscanf
        const int pick = static_cast<int>(rng_.below(4));
        if (pick == 0) {  // NUL after the fields (stricter class)
          set_strict(i, join(f) + std::string(1, '\0') + "junk");
          return "nul-tail";
        }
        f[3] = pick == 1 ? std::string(1, '\0') : std::string(1, "xK7-"[rng_.below(4)]);
        resign(i, join(f));
        return "mode";
      }
    }
  }

 private:
  /// A writer-shaped line: seven non-empty fields, single spaces, a crc.
  static bool canonical(const std::string& line) {
    if (line.size() < 10 || line.back() != '\n') return false;
    const std::vector<std::string> f = fields_of(line);
    if (f.size() != 7) return false;
    for (const std::string& field : f) {
      if (field.empty()) return false;
      for (const char c : field)
        if (std::isspace(static_cast<unsigned char>(c)) || c == '\0') return false;
    }
    return true;
  }

  void set_strict(std::size_t i, const std::string& body) {
    lines_[i] = signed_line(body);
    strict_.insert(lines_[i].substr(0, lines_[i].size() - 1));
  }

  /// Re-frames line `i` around a new body. A stricter-class line stays in
  /// the class: no edit here removes a sign, an overflow or a bare 0x.
  void resign(std::size_t i, const std::string& body) {
    if (strict_.count(lines_[i].substr(0, lines_[i].size() - 1)) != 0)
      set_strict(i, body);
    else
      lines_[i] = signed_line(body);
  }

  /// Re-splits after a text-level mutation (a flipped newline merges lines).
  void reset_from(const std::string& t) {
    lines_.clear();
    for (std::size_t pos = 0; pos < t.size();) {
      std::size_t nl = t.find('\n', pos);
      nl = nl == std::string::npos ? t.size() : nl + 1;
      lines_.push_back(t.substr(pos, nl - pos));
      pos = nl;
    }
    if (lines_.empty()) lines_.push_back("\n");
  }

  support::Xoshiro256 rng_;
  std::vector<std::string> lines_;
  std::set<std::string> strict_;
};

// --- Tests -----------------------------------------------------------------

TEST(SampleCodec, FormatIsByteIdenticalToSnprintf) {
  const std::uint64_t values[] = {0, 1, 9, 10, 0xff, kU32Max, kU32Max + 1,
                                  0x8000000000000000ull, kU64Max - 1, kU64Max};
  const std::uint64_t pids[] = {0, 1, 4242, kU32Max - 1, kU32Max};
  std::size_t checked = 0;
  for (const hw::CpuMode mode : kModes) {
    for (const std::uint64_t v : values) {
      for (const std::uint64_t pid : pids) {
        LoggedSample s;
        s.pc = v;
        s.caller_pc = ~v;
        s.mode = mode;
        s.pid = static_cast<hw::Pid>(pid);
        s.epoch = v ^ pid;
        s.cycle = v;
        for (const std::uint64_t seq : {std::uint64_t{0}, v, kU64Max}) {
          char buf[kMaxSampleLine];
          ASSERT_EQ(format_sample_line(seq, s, sample_line_hash(kEvent), buf),
                    snprintf_line(seq, s));
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 3u * 10u * 5u * 3u);
}

TEST(SampleCodec, WriterOutputIsByteIdenticalToSnprintf) {
  support::Xoshiro256 rng(0x5a3e);
  os::Vfs vfs;
  SampleLogWriter writer(vfs, "s");
  std::string expected;
  for (std::uint64_t seq = 0; seq < 500; ++seq) {
    const LoggedSample s = random_sample(rng);
    writer.append(hw::EventKind::kBsqCacheReference, s);
    expected += snprintf_line(seq, s, hw::EventKind::kBsqCacheReference);
  }
  writer.flush();
  EXPECT_EQ(*vfs.read(SampleLogWriter::path_for("s", hw::EventKind::kBsqCacheReference)),
            expected);
}

TEST(SampleCodec, LongestLineFits) {
  LoggedSample s;
  s.pc = s.caller_pc = s.epoch = s.cycle = kU64Max;
  s.pid = static_cast<hw::Pid>(kU32Max);
  s.mode = hw::CpuMode::kHypervisor;
  char buf[kMaxSampleLine];
  const std::string_view line = format_sample_line(kU64Max, s, sample_line_hash(kEvent), buf);
  EXPECT_LT(line.size(), kMaxSampleLine);
  EXPECT_EQ(line, snprintf_line(kU64Max, s));
}

TEST(SampleCodec, ScanFieldsIgnoresTrailingTokens) {
  // The replay client peeks at whole lines, crc included.
  LoggedSample s;
  s.pid = 77;
  s.epoch = 9;
  char buf[kMaxSampleLine];
  std::string_view line = format_sample_line(5, s, sample_line_hash(kEvent), buf);
  std::uint64_t seq = 0;
  LoggedSample out;
  ASSERT_TRUE(scan_sample_fields(line, seq, out));
  EXPECT_EQ(seq, 5u);
  EXPECT_EQ(out.pid, 77u);
  EXPECT_EQ(out.epoch, 9u);
  EXPECT_EQ(line.size(), 10u);  // " <crc>\n" left for the caller
}

TEST(SampleCodec, StricterAcceptSetIsDiscardedAndCounted) {
  // Each body is framed with its own valid crc, so only the field grammar
  // decides. sscanf took all of these; the codec takes none.
  const std::string bodies[] = {
      "0 +1a 2b u 1 2 3",                         // sign
      "-1 1a 2b u 1 2 3",                         // sign wraps to 2^64-1
      "0 1a 2b u 4294967296 2 3",                 // pid beyond 32 bits
      "0 1a 2b u 1 18446744073709551616 3",       // epoch beyond 64 bits
      "0 10000000000000000 2b u 1 2 3",           // pc beyond 64 bits
      "0 0x 2b u 1 2 3",                          // bare 0x read as 0
      std::string("0 1a 2b u 1 2 3\0junk", 20),   // NUL hides the junk
  };
  for (const std::string& body : bodies) {
    const std::string line = signed_line(body);
    SampleLogReadStatus ns, os;
    EXPECT_EQ(parse_oracle(line, os).size(), 1u) << body;
    EXPECT_TRUE(parse_new(line, ns).empty()) << body;
    EXPECT_TRUE(ns.corrupt) << body;
    EXPECT_EQ(ns.discarded_lines, 1u) << body;
    EXPECT_EQ(ns.discarded_bytes, line.size()) << body;
  }
}

TEST(SampleCodec, NeverAcceptsWhatTheOracleRefuses) {
  // Framed bodies the oracle refuses; a scanner that read a bare "0x" as 0
  // and left the 'x' would take the first as mode 'x' and shift the rest.
  const std::string bodies[] = {
      "0 1a 0x 1 2 3",                        // six fields, bare 0x caller
      std::string("0 1a 2b \0 1 2 3", 15),    // NUL where the mode goes
      "0 1a 2b u 1 2 3 4",                    // eight fields
      "0 1a 2b u 1 2",                        // six fields
  };
  for (const std::string& body : bodies) {
    const std::string line = signed_line(body);
    SampleLogReadStatus ns, os;
    EXPECT_TRUE(parse_oracle(line, os).empty()) << body;
    EXPECT_TRUE(parse_new(line, ns).empty()) << body;
    EXPECT_EQ(ns.discarded_lines, 1u) << body;
  }
}

TEST(SampleCodecProperty, TruncationAtEveryByteMatchesOracle) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::vector<std::string> lines = writer_corpus(seed, 12);
    const std::size_t victim = seed % lines.size();
    std::string prefix;
    for (std::size_t k = 0; k < victim; ++k) prefix += lines[k];
    std::string suffix;
    for (std::size_t k = victim + 1; k < lines.size(); ++k) suffix += lines[k];
    for (std::size_t cut = 0; cut <= lines[victim].size(); ++cut) {
      const std::string part = lines[victim].substr(0, cut);
      // The file ends mid-line (torn final write) ...
      check_equivalent(prefix + part, {}, seed, "eof cut " + std::to_string(cut));
      // ... or the line lost bytes in place and the stream resumes.
      if (cut < lines[victim].size())
        check_equivalent(prefix + part + "\n" + suffix, {}, seed,
                         "in-place cut " + std::to_string(cut));
    }
  }
}

TEST(SampleCodecProperty, SeededMutationsMatchOracle) {
  std::size_t strict_lines = 0;
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    Mutator mutator(seed * 0x9e37, writer_corpus(seed, 40));
    std::string what = "clean";
    check_equivalent(mutator.text(), mutator.strict(), seed, what);
    for (int round = 0; round < 12; ++round) {
      what += "+" + mutator.mutate_once();
      check_equivalent(mutator.text(), mutator.strict(), seed, what);
    }
    strict_lines += mutator.strict().size();
  }
  EXPECT_GT(strict_lines, 100u);  // the stricter class was really exercised
}

}  // namespace
}  // namespace viprof::core
