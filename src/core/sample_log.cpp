#include "core/sample_log.hpp"

#include <algorithm>
#include <array>
#include <charconv>

#include "support/arena.hpp"

namespace viprof::core {

namespace {

/// A hex field; a bare "0x" is malformed, not a 0 followed by an 'x'.
bool scan_hex_field(std::string_view& text, std::uint64_t& out) {
  support::skip_ws(text);
  if (text.size() >= 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X') &&
      (text.size() == 2 || support::hex_value(text[2]) < 0))
    return false;
  return support::scan_hex64(text, out);
}

/// Verifies and decodes one line (terminator stripped): the line frame must
/// verify before any field is trusted, and the body must hold exactly seven
/// fields.
bool decode_sample_line(std::string_view line, support::FrameHash hash, std::uint64_t& seq,
                        LoggedSample& out) {
  std::string_view body;
  return support::unframe_line(line, hash, body) && scan_sample_fields(body, seq, out) &&
         support::at_end(body);
}

}  // namespace

support::FrameHash sample_line_hash(hw::EventKind event) {
  static const std::array<support::FrameHash, hw::kEventKindCount> kHashes = [] {
    std::array<support::FrameHash, hw::kEventKindCount> hashes;
    for (std::size_t i = 0; i < hw::kEventKindCount; ++i)
      hashes[i] = support::FrameHash::v2(support::frame_key(support::FrameKind::kSampleLog, i));
    return hashes;
  }();
  return kHashes[hw::event_index(event)];
}

std::string_view format_sample_line(std::uint64_t seq, const LoggedSample& s,
                                    support::FrameHash hash, char (&buf)[kMaxSampleLine]) {
  char* p = buf;
  const auto field = [&p, &buf](std::uint64_t value, int base) {
    p = std::to_chars(p, buf + kMaxSampleLine, value, base).ptr;
    *p++ = ' ';
  };
  field(seq, 10);
  field(s.pc, 16);
  field(s.caller_pc, 16);
  *p++ = "ukh"[static_cast<std::size_t>(s.mode)];  // CpuMode: user, kernel, hypervisor
  *p++ = ' ';
  field(s.pid, 10);
  field(s.epoch, 10);
  field(s.cycle, 10);
  p = support::put_crc(p, hash(buf, static_cast<std::size_t>(p - buf - 1)));
  *p++ = '\n';
  return {buf, static_cast<std::size_t>(p - buf)};
}

bool scan_sample_fields(std::string_view& text, std::uint64_t& seq, LoggedSample& out) {
  std::uint64_t pid = 0;
  if (!support::scan_u64(text, seq) || !scan_hex_field(text, out.pc) ||
      !scan_hex_field(text, out.caller_pc))
    return false;
  support::skip_ws(text);
  if (text.empty() || text.front() == '\0') return false;
  out.mode = text.front() == 'k'   ? hw::CpuMode::kKernel
             : text.front() == 'h' ? hw::CpuMode::kHypervisor
                                   : hw::CpuMode::kUser;
  text.remove_prefix(1);
  if (!support::scan_u64(text, pid) || pid > 0xffffffffu) return false;
  out.pid = static_cast<hw::Pid>(pid);
  return support::scan_u64(text, out.epoch) && support::scan_u64(text, out.cycle);
}

std::string SampleLogWriter::path_for(const std::string& dir, hw::EventKind event) {
  return dir + "/" + hw::to_string(event) + ".samples";
}

void SampleLogWriter::append(hw::EventKind event, const LoggedSample& s) {
  const std::size_t i = hw::event_index(event);
  char buf[kMaxSampleLine];
  pending_[i] += format_sample_line(next_seq_[i]++, s, sample_line_hash(event), buf);
  ++pending_records_[i];
  ++written_[i];
}

LogFlushResult SampleLogWriter::flush() {
  LogFlushResult result;
  for (std::size_t i = 0; i < hw::kEventKindCount; ++i) {
    if (pending_[i].empty()) continue;
    const os::IoStatus status =
        vfs_->append(path_for(dir_, static_cast<hw::EventKind>(i)), pending_[i]);
    switch (status) {
      case os::IoStatus::kOk:
        pending_[i].clear();
        pending_records_[i] = 0;
        break;
      case os::IoStatus::kTorn:
        // A prefix landed; the writer (like a real daemon after a crashed
        // write) believes the batch is out. The reader's framing detects
        // and salvages around the tear.
        ++result.torn_writes;
        pending_[i].clear();
        pending_records_[i] = 0;
        break;
      case os::IoStatus::kIoError:
      case os::IoStatus::kNoSpace: {
        // Spill: keep the batch for a later retry, bounded. Drop whole
        // oldest records (never partial lines) beyond the bound so the
        // spill itself can never produce a torn record.
        ++result.write_errors;
        result.fully_flushed = false;
        while (pending_[i].size() > spill_capacity_ && pending_records_[i] > 0) {
          const std::size_t nl = pending_[i].find('\n');
          const std::size_t cut = nl == std::string::npos ? pending_[i].size() : nl + 1;
          result.bytes_dropped += cut;
          pending_[i].erase(0, cut);
          --pending_records_[i];
          ++result.records_dropped;
          ++spill_dropped_;
        }
        break;
      }
    }
  }
  return result;
}

std::uint64_t SampleLogWriter::discard_pending() {
  std::uint64_t lost = 0;
  for (std::size_t i = 0; i < hw::kEventKindCount; ++i) {
    lost += pending_records_[i];
    pending_[i].clear();
    pending_records_[i] = 0;
  }
  return lost;
}

std::size_t SampleLogWriter::pending_bytes() const {
  std::size_t total = 0;
  for (const std::string& p : pending_) total += p.size();
  return total;
}

std::vector<LoggedSample> SampleLogReader::read(const os::Vfs& vfs,
                                                const std::string& dir,
                                                hw::EventKind event) {
  SampleLogReadStatus status;
  return read_checked(vfs, dir, event, status);
}

bool SeqSet::insert_run_slow(std::uint64_t first, std::uint64_t last) {
  Run* r = runs();
  // i: the first run starting after `first`; r[i - 1] is the one before it.
  const std::size_t i = static_cast<std::size_t>(
      std::upper_bound(r, r + n_, first,
                       [](std::uint64_t seq, const Run& run) { return seq < run.first; }) -
      r);
  if (i > 0 && first <= r[i - 1].last) return false;
  if (i < n_ && r[i].first <= last) return false;
  const bool joins_prev = i > 0 && r[i - 1].last + 1 == first;
  const bool joins_next = i < n_ && r[i].first - 1 == last;
  distinct_ += last - first + 1;
  if (joins_prev && joins_next) {
    r[i - 1].last = r[i].last;
    std::copy(r + i + 1, r + n_, r + i);
    --n_;
  } else if (joins_prev) {
    r[i - 1].last = last;
  } else if (joins_next) {
    r[i].first = first;
  } else {
    if (heap_.empty() && n_ == kInline) heap_.assign(inline_, inline_ + kInline);
    if (!heap_.empty()) {
      heap_.insert(heap_.begin() + static_cast<std::ptrdiff_t>(i), Run{first, last});
    } else {
      std::copy_backward(r + i, r + n_, r + n_ + 1);
      r[i] = Run{first, last};
    }
    ++n_;
  }
  if (!heap_.empty()) heap_.resize(n_);
  return true;
}

namespace {

/// The one verification loop: torn or overwritten bytes resynchronise at
/// the next newline. The checksum makes accepting a *wrong* record
/// vanishingly unlikely, so skipping is safe — the damage is counted, never
/// mis-parsed. An unterminated tail is damage too.
template <typename OnRecord>
void for_each_sample_line(std::string_view text, support::FrameHash hash,
                          SampleLineDamage& damage, OnRecord&& on_record) {
  support::LineCursor lines(text);
  std::string_view line;
  while (lines.next(line)) {
    std::uint64_t seq = 0;
    LoggedSample s;
    if (decode_sample_line(line, hash, seq, s)) {
      on_record(seq, s);
    } else {
      ++damage.lines;
      damage.bytes += line.size() + 1;
    }
  }
  if (!lines.tail().empty()) {
    ++damage.lines;
    damage.bytes += lines.tail().size();
  }
}

}  // namespace

template <typename Sink, typename SeqSink>
void decode_sample_lines(std::string_view text, support::FrameHash hash, Sink& out,
                         SeqSink& seqs, SampleLineDamage& damage) {
  for_each_sample_line(text, hash, damage, [&](std::uint64_t seq, const LoggedSample& s) {
    out.push_back(s);
    seqs.push_back(seq);
  });
}

template void decode_sample_lines(std::string_view, support::FrameHash,
                                  support::ArenaVector<LoggedSample>&,
                                  support::ArenaVector<std::uint64_t>&, SampleLineDamage&);

template <typename Sink>
void SampleStreamParser::parse_into(std::string_view text, support::FrameHash hash,
                                    Sink& out) {
  for_each_sample_line(text, hash, damage_, [&](std::uint64_t seq, const LoggedSample& s) {
    if (seen_.insert(seq))
      out.push_back(s);
    else
      ++duplicates_;  // a replayed record that had landed before
  });
}

template void SampleStreamParser::parse_into(std::string_view, support::FrameHash,
                                             std::vector<LoggedSample>&);
template void SampleStreamParser::parse_into(std::string_view, support::FrameHash,
                                             support::ArenaVector<LoggedSample>&);

std::size_t SampleStreamParser::admit(std::span<LoggedSample> samples,
                                      std::span<const std::uint64_t> seqs,
                                      const SampleLineDamage& damage) {
  damage_.lines += damage.lines;
  damage_.bytes += damage.bytes;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < seqs.size();) {
    std::size_t j = i + 1;  // seqs[i, j) run consecutively
    while (j < seqs.size() && seqs[j] > seqs[j - 1] && seqs[j] - seqs[j - 1] == 1) ++j;
    if (seen_.insert_run(seqs[i], seqs[j - 1])) {
      if (kept != i)
        std::copy(samples.begin() + static_cast<std::ptrdiff_t>(i),
                  samples.begin() + static_cast<std::ptrdiff_t>(j),
                  samples.begin() + static_cast<std::ptrdiff_t>(kept));
      kept += j - i;
    } else {
      for (std::size_t k = i; k < j; ++k) {
        if (seen_.insert(seqs[k]))
          samples[kept++] = samples[k];
        else
          ++duplicates_;
      }
    }
    i = j;
  }
  return kept;
}

SampleLogReadStatus SampleStreamParser::status() const {
  SampleLogReadStatus st;
  st.corrupt = damage_.lines != 0;
  st.valid = seen_.distinct();
  st.salvaged = st.corrupt ? st.valid : 0;
  st.discarded_lines = damage_.lines;
  st.discarded_bytes = damage_.bytes;
  st.duplicate_records = duplicates_;
  st.max_seq = seen_.max();
  // Every seq up to the highest one seen that never arrived.
  st.missing_records = st.valid == 0 ? 0 : st.max_seq + 1 - st.valid;
  return st;
}

std::vector<LoggedSample> SampleLogReader::read_checked(const os::Vfs& vfs,
                                                        const std::string& dir,
                                                        hw::EventKind event,
                                                        SampleLogReadStatus& status) {
  status = SampleLogReadStatus{};
  std::vector<LoggedSample> out;
  const auto contents = vfs.read(SampleLogWriter::path_for(dir, event));
  if (!contents) {
    status.missing = true;
    return out;
  }
  SampleStreamParser parser;
  parser.parse_into(*contents, sample_line_hash(event), out);
  status = parser.status();
  return out;
}

}  // namespace viprof::core
