#include "core/sample_log.hpp"

#include <charconv>

#include "support/arena.hpp"
#include "support/framed_text.hpp"

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
bool decode_sample_line(std::string_view line, std::uint64_t& seq, LoggedSample& out) {
  std::string_view body;
  return support::unframe_line(line, body) && scan_sample_fields(body, seq, out) &&
         support::at_end(body);
}

}  // namespace

std::string_view format_sample_line(std::uint64_t seq, const LoggedSample& s,
                                    char (&buf)[kMaxSampleLine]) {
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
  p = support::put_crc(p, support::fnv1a(buf, static_cast<std::size_t>(p - buf - 1)));
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
  pending_[i] += format_sample_line(next_seq_[i]++, s, buf);
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

template <typename Sink>
void SampleStreamParser::parse_into(std::string_view text, Sink& out) {
  // Torn or overwritten bytes: resynchronise at the next newline. The
  // checksum makes accepting a *wrong* record vanishingly unlikely, so
  // skipping is safe — the damage is counted, never mis-parsed. An
  // unterminated tail is damage too.
  const auto discard = [this](std::size_t bytes) {
    status_.corrupt = true;
    ++status_.discarded_lines;
    status_.discarded_bytes += bytes;
  };
  support::LineCursor lines(text);
  std::string_view line;
  while (lines.next(line)) {
    std::uint64_t seq = 0;
    LoggedSample s;
    if (!decode_sample_line(line, seq, s)) {
      discard(line.size() + 1);
    } else if (seq < next_expected_) {
      // A replayed batch that had partially landed: drop the duplicate.
      ++status_.duplicate_records;
    } else {
      if (seq > next_expected_) status_.missing_records += seq - next_expected_;
      next_expected_ = seq + 1;
      status_.max_seq = seq;
      out.push_back(s);
      ++status_.valid;
    }
  }
  if (!lines.tail().empty()) discard(lines.tail().size());

  if (status_.corrupt) status_.salvaged = status_.valid;
}

template void SampleStreamParser::parse_into(std::string_view,
                                             std::vector<LoggedSample>&);
template void SampleStreamParser::parse_into(std::string_view,
                                             support::ArenaVector<LoggedSample>&);

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
  parser.parse_into(*contents, out);
  status = parser.status();
  return out;
}

}  // namespace viprof::core
