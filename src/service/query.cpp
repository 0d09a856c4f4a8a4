#include "service/query.hpp"

#include <algorithm>
#include <tuple>

#include "support/format.hpp"
#include "support/framed_text.hpp"
#include "support/str_scan.hpp"

namespace viprof::service {

namespace {

// ------------------------------------------------------------ query grammar

// DESIGN.md §10's grammar table, as data. One letter per argument slot:
// N rows (Query::top), K a count (Query::n), I a session id (diff's
// before, then after), E an event, S a session (--session), J --json.
struct VerbSpec {
  std::string_view name;
  QueryVerb verb;
  std::string_view positionals;
  std::string_view options;
};

constexpr VerbSpec kVerbs[] = {
    {"sessions", QueryVerb::kSessions, "", ""},
    {"top", QueryVerb::kTop, "N", "SEN"},
    {"since-epoch", QueryVerb::kSinceEpoch, "K", "SN"},
    {"arcs", QueryVerb::kArcs, "N", "SN"},
    {"memprof", QueryVerb::kMemprof, "N", "SN"},
    {"diff", QueryVerb::kDiff, "II", "EN"},
    {"snapshot", QueryVerb::kSnapshot, "", ""},
    {"stats", QueryVerb::kStats, "", "J"},
    {"trace", QueryVerb::kTrace, "", ""},
    {"batch", QueryVerb::kBatch, "EK", ""},
};

char option_slot(std::string_view word) {
  if (word == "--session") return 'S';
  if (word == "--event") return 'E';
  if (word == "--top") return 'N';
  if (word == "--json") return 'J';
  return 0;
}

/// Next word; newlines separate words like any other whitespace.
bool next_word(std::string_view& s, std::string_view& word) {
  const auto space = [](char c) { return c == '\n' || support::is_space(c); };
  while (!s.empty() && space(s.front())) s.remove_prefix(1);
  std::size_t i = 0;
  while (i < s.size() && !space(s[i])) ++i;
  word = s.substr(0, i);
  s.remove_prefix(i);
  return i != 0;
}

/// Stores `word` in `slot` of `q`; the error when it does not fit there.
std::optional<QueryError> fill(Query& q, char slot, std::string_view word) {
  using Kind = QueryError::Kind;
  switch (slot) {
    case 'N':
    case 'K': {
      std::string_view rest = word;  // the whole word, plain decimal
      if (support::scan_u64(rest, slot == 'N' ? q.top : q.n) && rest.empty()) break;
      return QueryError{Kind::kBadNumber, std::string(word)};
    }
    case 'E':
      q.event = hw::event_from_name(word);
      if (!q.event) return QueryError{Kind::kUnknownEvent, std::string(word)};
      break;
    case 'S': q.session = word; break;
    default: (q.before.empty() ? q.before : q.after) = word; break;
  }
  return std::nullopt;
}

constexpr const char* kHeader = "viprof-snapshot v2";

support::FrameHash snapshot_hash() {
  return support::FrameHash::v2(support::frame_key(support::FrameKind::kSnapshot));
}

void append_counts_and_names(std::string& out, const core::ProfileRow& row) {
  for (std::size_t e = 0; e < hw::kEventKindCount; ++e)
    out += " " + std::to_string(row.counts[e]);
  out += '\t';
  out += row.image.view();
  out += '\t';
  out += row.symbol.view();
  out += '\n';
}

/// "<domain> c0 .. cN\t<image>\t<symbol>" (one count per event kind) → one
/// add() per event with count.
bool parse_row_into(std::string_view fields, core::Profile& profile) {
  const std::size_t tab1 = fields.find('\t');
  if (tab1 == std::string_view::npos) return false;
  const std::size_t tab2 = fields.find('\t', tab1 + 1);
  if (tab2 == std::string_view::npos) return false;

  std::string_view head = fields.substr(0, tab1);
  std::optional<core::SampleDomain> domain;
  std::uint64_t counts[hw::kEventKindCount] = {};
  if (!core::scan_domain_counts(head, domain, counts) || !support::at_end(head) ||
      !domain)
    return false;

  core::Resolution res;
  res.image = fields.substr(tab1 + 1, tab2 - tab1 - 1);
  res.symbol = fields.substr(tab2 + 1);
  res.domain = *domain;
  bool added = false;
  for (std::size_t e = 0; e < hw::kEventKindCount; ++e) {
    if (counts[e] == 0) continue;
    profile.add(static_cast<hw::EventKind>(e), res, counts[e]);
    added = true;
  }
  // A zero-count row cannot exist in a real profile; treat it as damage.
  return added;
}

/// `profile`'s rows in (image, symbol) text order: the bytes then do not
/// depend on the order in which workers applied batches.
std::vector<const core::ProfileRow*> canonical_rows(const core::Profile& profile) {
  std::vector<const core::ProfileRow*> rows;
  for (const core::ProfileRow& row : profile.rows()) rows.push_back(&row);
  std::sort(rows.begin(), rows.end(), [](const core::ProfileRow* a, const core::ProfileRow* b) {
    return std::tie(a->image, a->symbol) < std::tie(b->image, b->symbol);
  });
  return rows;
}

}  // namespace

std::string QueryError::message() const {
  switch (kind) {
    case Kind::kUnknownVerb: return "error: unknown query: " + text + "\n";
    case Kind::kMissingNumber: return "error: " + text + " needs a number\n";
    case Kind::kBadNumber: return "error: not a decimal number: " + text + "\n";
    case Kind::kMissingOperand:
      return "error: " + text +
             (text == "diff" ? " needs two session ids\n" : " needs an event name\n");
    case Kind::kUnknownOption: return "error: unknown option: " + text + "\n";
    case Kind::kMissingValue: return "error: " + text + " needs a value\n";
    case Kind::kUnknownEvent: return "error: unknown event: " + text + "\n";
  }
  return "error: " + text + "\n";
}

std::variant<Query, QueryError> parse_query(std::string_view text) {
  using Kind = QueryError::Kind;
  std::string_view rest = text, word;
  const VerbSpec* spec = nullptr;
  if (next_word(rest, word))
    for (const VerbSpec& v : kVerbs)
      if (v.name == word) spec = &v;
  if (spec == nullptr) return QueryError{Kind::kUnknownVerb, std::string(text)};

  Query q;
  q.verb = spec->verb;
  // Positionals first: a word that looks like an option ends them.
  for (const char slot : spec->positionals) {
    std::string_view peek = rest;
    if (!next_word(peek, word) || word.starts_with("--"))
      return QueryError{slot == 'N' || slot == 'K' ? Kind::kMissingNumber : Kind::kMissingOperand,
                        std::string(spec->name)};
    rest = peek;
    if (auto error = fill(q, slot, word)) return *error;
  }
  while (next_word(rest, word)) {
    const char slot = option_slot(word);
    if (slot == 0 || spec->options.find(slot) == std::string_view::npos)
      return QueryError{Kind::kUnknownOption, std::string(word)};
    std::string_view value;
    if (slot == 'J') q.json = true;
    else if (!next_word(rest, value)) return QueryError{Kind::kMissingValue, std::string(word)};
    else if (auto error = fill(q, slot, value)) return *error;
  }
  return q;
}

std::string ServiceSnapshot::serialize() const {
  std::string out = std::string(kHeader) + "\n";
  for (const SessionSnapshot& s : sessions) {
    out += "session " + s.id + "\n";
    for (const core::ProfileRow* row : canonical_rows(s.profile)) {
      out += "row " + std::string(core::to_string(row->domain));
      append_counts_and_names(out, *row);
    }
    for (const auto& [epoch, profile] : s.epochs) {
      for (const core::ProfileRow* row : canonical_rows(profile)) {
        out += "erow " + std::to_string(epoch) + " " +
               std::string(core::to_string(row->domain));
        append_counts_and_names(out, *row);
      }
    }
    out += "end\n";
  }
  support::append_crc_trailer(out, snapshot_hash());
  return out;
}

std::optional<ServiceSnapshot> ServiceSnapshot::parse(const std::string& text) {
  ServiceSnapshot snap;
  SessionSnapshot* current = nullptr;
  const auto on_line = [&snap, &current](std::string_view line) {
    if (support::scan_lit(line, "session ")) {
      current = &snap.sessions.emplace_back();
      current->id = std::string(line);
      return true;
    }
    if (line == "end") {
      current = nullptr;
      return true;
    }
    if (support::scan_lit(line, "row "))
      return current != nullptr && parse_row_into(line, current->profile);
    std::uint64_t epoch = 0;
    return support::scan_lit(line, "erow ") && current != nullptr &&
           support::scan_u64(line, epoch) && support::scan_lit(line, " ") &&
           parse_row_into(line, current->epochs[epoch]);
  };
  if (!support::for_each_framed_line(text, {{kHeader, snapshot_hash()}}, on_line))
    return std::nullopt;
  return snap;
}

const SessionSnapshot* ServiceSnapshot::find(const std::string& id) const {
  for (const SessionSnapshot& s : sessions)
    if (s.id == id) return &s;
  return nullptr;
}

core::Profile ServiceSnapshot::merged() const {
  core::Profile out;
  for (const SessionSnapshot& s : sessions) out.merge(s.profile);
  return out;
}

core::Profile profile_since(const SessionSnapshot& s, std::uint64_t since) {
  core::Profile out;
  for (const auto& [epoch, profile] : s.epochs)
    if (epoch >= since) out.merge(profile);
  return out;
}

std::string render_sessions(const ServiceSnapshot& snap) {
  support::TextTable table({"Session", "Rows", "Time", "Dmiss"});
  for (const SessionSnapshot& s : snap.sessions) {
    table.cell(s.id)
        .cell(s.profile.row_count())
        .cell(s.profile.total(hw::EventKind::kGlobalPowerEvents))
        .cell(s.profile.total(hw::EventKind::kBsqCacheReference))
        .end_row();
  }
  return table.render();
}

std::string render_diff(const ServiceSnapshot& before, const ServiceSnapshot& after,
                        const std::string& session, hw::EventKind event,
                        std::size_t top_n) {
  core::Profile a, b;
  if (session.empty()) {
    a = before.merged();
    b = after.merged();
  } else {
    if (const SessionSnapshot* s = before.find(session)) a = s->profile;
    if (const SessionSnapshot* s = after.find(session)) b = s->profile;
  }

  return core::render_diff(a, b, event, top_n);
}

}  // namespace viprof::service
