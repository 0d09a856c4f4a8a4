#include "store/segment.hpp"

namespace viprof::store {

namespace {

constexpr std::string_view kMagic = "viprof-segment v";

}  // namespace

support::FrameHash segment_frame_hash(std::uint64_t id) {
  return support::FrameHash::v2(support::frame_key(support::FrameKind::kSegment, id));
}

SegmentWriter::SegmentWriter(std::uint64_t segment_id)
    : segment_id_(segment_id), hash_(segment_frame_hash(segment_id)) {}

std::string SegmentWriter::frame(const std::string& body) {
  std::string out;
  support::append_framed_line(out, body, hash_);
  return out;
}

std::string SegmentWriter::header() {
  return frame(std::to_string(next_seq_++) + " H " + std::string(kMagic) + "2 " +
               std::to_string(segment_id_));
}

std::uint64_t SegmentWriter::intern(support::Name name, std::string& out) {
  const auto [it, inserted] = dict_.try_emplace(name, next_dict_id_);
  if (inserted) {
    ++next_dict_id_;
    std::string body = std::to_string(next_seq_++) + " D " + std::to_string(it->second);
    body += '\t';
    body += name.view();
    out += frame(body);
  }
  return it->second;
}

std::string SegmentWriter::encode_interval(const IntervalProfile& iv) {
  std::string out;
  // Dictionary entries must precede the rows that reference them, so a
  // truncated file never leaves a committed row pointing at nothing.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ids;
  ids.reserve(iv.profile.row_count());
  for (const core::ProfileRow& row : iv.profile.rows())
    ids.emplace_back(intern(row.image, out), intern(row.symbol, out));

  out += frame(std::to_string(next_seq_++) + " I " + std::to_string(iv.tick_lo) +
               " " + std::to_string(iv.tick_hi) + " " + std::to_string(iv.epoch_lo) +
               " " + std::to_string(iv.epoch_hi) + " " + std::to_string(iv.pid) +
               " " + std::to_string(iv.first_seq) + " " +
               std::to_string(iv.profile.row_count()) + "\t" + iv.session);

  std::size_t i = 0;
  for (const core::ProfileRow& row : iv.profile.rows()) {
    std::string body = std::to_string(next_seq_++) + " R " +
                       core::to_string(row.domain);
    for (const std::uint64_t field : row.counts) {
      body += ' ';
      body += std::to_string(field);
    }
    for (const std::uint64_t field : {ids[i].first, ids[i].second}) {
      body += ' ';
      body += std::to_string(field);
    }
    out += frame(body);
    ++i;
  }
  return out;
}

std::string SegmentWriter::encode_seal(std::uint64_t interval_count) {
  return frame(std::to_string(next_seq_++) + " S " + std::to_string(interval_count));
}

namespace {

/// Decode state for the interval currently being assembled.
struct PendingInterval {
  bool open = false;
  bool broken = false;       // unresolvable dictionary id
  bool orphan = false;       // rows with no surviving interval record
  std::uint64_t declared_rows = 0;
  std::uint64_t rows_seen = 0;
  IntervalProfile iv;
};

void finalize(PendingInterval& p, SegmentSalvage& out) {
  if (!p.open) return;
  if (p.orphan) {
    // The interval record itself was lost; its observed rows are all we can
    // count (the segment- or manifest-level totals give the exact figure).
    ++out.intervals_dropped;
    out.rows_dropped += p.rows_seen;
  } else if (!p.broken && p.rows_seen == p.declared_rows) {
    ++out.intervals_salvaged;
    out.rows_salvaged += p.declared_rows;
    out.intervals.push_back(std::move(p.iv));
  } else {
    ++out.intervals_dropped;
    out.rows_dropped += p.declared_rows;
  }
  p = PendingInterval{};
}

/// The hash every line of `contents` is read under: v2 keyed by `id`, or
/// v1, whichever the first line that verifies under either was framed
/// with (the header, unless it is damaged). With no id known, the id the
/// first line names is used unverified: only lines that verify under it
/// count.
support::FrameHash choose_hash(const std::string& contents,
                               std::optional<std::uint64_t> id) {
  support::LineCursor cursor(contents);
  std::string_view line, body;
  if (!id) {
    std::string_view head = std::string_view(contents).substr(0, contents.find('\n'));
    const std::size_t at = head.find(kMagic);
    std::uint64_t version = 0, named = 0;
    head.remove_prefix(at == std::string_view::npos ? head.size() : at + kMagic.size());
    if (support::scan_u64(head, version) && support::scan_u64(head, named)) id = named;
  }
  const support::FrameHash v2 = segment_frame_hash(id.value_or(0));
  while (cursor.next(line)) {
    if (support::unframe_line(line, v2, body)) return v2;
    if (support::unframe_line(line, support::FrameHash::v1(), body))
      return support::FrameHash::v1();
  }
  return v2;
}

}  // namespace

SegmentSalvage read_segment(const std::string& contents,
                            std::optional<std::uint64_t> segment_id) {
  SegmentSalvage out;
  const support::FrameHash hash = choose_hash(contents, segment_id);
  const std::string_view version = hash.version == support::FrameHash::Version::kV1 ? "1" : "2";
  std::unordered_map<std::uint64_t, support::Name> dict;
  PendingInterval pending;
  std::uint64_t last_seq = 0;
  bool any_seq = false;

  // A line whose frame and sequence number verified but whose payload does
  // not parse: counted as discarded, its sequence number still taken.
  const auto reject = [&out] {
    ++out.lines_discarded;
    --out.lines_valid;
  };

  support::LineCursor cursor(contents);
  std::string_view line;
  while (cursor.next(line)) {
    if (line.empty()) continue;
    std::string_view body;
    std::uint64_t seq = 0;
    if (!support::unframe_line(line, hash, body) || !support::scan_u64(body, seq) ||
        body.empty() || body.front() != ' ') {
      ++out.lines_discarded;
      continue;
    }
    if (any_seq) {
      if (seq <= last_seq) {
        ++out.duplicate_lines;
        continue;
      }
      if (seq > last_seq + 1) {
        out.gap_lines += seq - last_seq - 1;
        // Lines went missing before the open interval saw all its rows (they
        // follow its record in sequence): rows from here on may belong to a
        // later interval, so it must not commit.
        if (pending.rows_seen < pending.declared_rows) pending.broken = true;
      }
    }
    last_seq = seq;
    any_seq = true;
    ++out.lines_valid;

    if (body.size() < 2) {
      reject();
      continue;
    }
    const char type = body[1];
    std::string_view rest = body.substr(2);  // " <payload>" or nothing
    if (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);

    if (type == 'H') {
      std::uint64_t header_id = 0;
      if (support::scan_lit(rest, kMagic) && support::scan_lit(rest, version) &&
          support::scan_u64(rest, header_id) && support::at_end(rest)) {
        out.header_ok = true;
        out.segment_id = header_id;
      } else {
        reject();
      }
    } else if (type == 'D') {
      std::uint64_t id = 0;
      if (!support::scan_u64(rest, id) || rest.empty() || rest.front() != '\t') {
        reject();
        continue;
      }
      dict[id] = rest.substr(1);
    } else if (type == 'I') {
      finalize(pending, out);
      const std::size_t tab = rest.find('\t');
      std::string_view head = rest.substr(0, tab);
      std::uint64_t tlo, thi, elo, ehi, pid, fseq, rows;
      if (tab == std::string_view::npos || !support::scan_u64(head, tlo) ||
          !support::scan_u64(head, thi) || !support::scan_u64(head, elo) ||
          !support::scan_u64(head, ehi) || !support::scan_u64(head, pid) ||
          !support::scan_u64(head, fseq) || !support::scan_u64(head, rows) ||
          !support::at_end(head)) {
        reject();
        continue;
      }
      pending.open = true;
      pending.declared_rows = rows;
      pending.iv.session = std::string(rest.substr(tab + 1));
      pending.iv.tick_lo = tlo;
      pending.iv.tick_hi = thi;
      pending.iv.epoch_lo = elo;
      pending.iv.epoch_hi = ehi;
      pending.iv.pid = pid;
      pending.iv.first_seq = fseq;
    } else if (type == 'R') {
      if (!pending.open) {
        // Interval record lost but its rows survived: orphans, counted.
        pending.open = true;
        pending.orphan = true;
      }
      std::optional<core::SampleDomain> domain;
      std::uint64_t c[hw::kEventKindCount] = {};
      std::uint64_t img = 0, sym = 0;
      if (!core::scan_domain_counts(rest, domain, c) || !support::scan_u64(rest, img) ||
          !support::scan_u64(rest, sym) || !support::at_end(rest)) {
        reject();
        continue;
      }
      ++pending.rows_seen;
      if (pending.orphan || pending.broken) continue;
      const auto img_it = dict.find(img);
      const auto sym_it = dict.find(sym);
      if (!domain || img_it == dict.end() || sym_it == dict.end()) {
        pending.broken = true;
        continue;
      }
      core::Resolution res;
      res.image = img_it->second;
      res.symbol = sym_it->second;
      res.domain = *domain;
      for (std::size_t e = 0; e < hw::kEventKindCount; ++e) {
        if (c[e] != 0)
          pending.iv.profile.add(static_cast<hw::EventKind>(e), res, c[e]);
      }
    } else if (type == 'S') {
      finalize(pending, out);
      std::uint64_t n = 0;
      if (support::scan_u64(rest, n) && support::at_end(rest)) {
        out.sealed = true;
        out.seal_declared = n;
      } else {
        reject();
      }
    } else {
      reject();
    }
  }
  // An unterminated tail is a torn write: never trusted, always counted.
  if (!cursor.tail().empty()) ++out.lines_discarded;
  finalize(pending, out);
  return out;
}

}  // namespace viprof::store
