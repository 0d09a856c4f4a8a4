// The query language, snapshot serialisation, and the offline half of the
// query API.
//
// parse_query() is the one parser of the query language; every front end
// switches on the typed Query it returns (grammar, and which front end
// serves which verb: DESIGN.md §10).
//
// The server can freeze its rolling aggregates into a line-based text
// snapshot ("viprof-snapshot v2") that viprof_query evaluates later —
// sessions, top-N, since-epoch and diffs between two snapshots — without
// the server running. The format is row-per-line with a v2 crc trailer
// (never trust unverified bytes), and field separation is tab for the name
// fields because image names contain spaces ("anon (range:...)").
//
//   viprof-snapshot v2
//   session <id>
//   row <domain> <c0> <c1> <c2> <c3> <c4>\t<image>\t<symbol>
//   erow <epoch> <domain> <c0..c4>\t<image>\t<symbol>
//   end
//   crc <8 hex digits>
//
// Rows carry their names, counts and domain, so a profile rebuilt from its
// snapshot renders byte-identically to the live one.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/report.hpp"

namespace viprof::service {

/// The verbs of DESIGN.md §10's table; kBatch is the "batch EVENT N"
/// header line of a sample-batch frame.
enum class QueryVerb : std::uint8_t {
  kSessions, kTop, kSinceEpoch, kArcs, kMemprof, kDiff, kSnapshot, kStats, kTrace, kBatch,
};

struct Query {
  QueryVerb verb = QueryVerb::kSessions;
  /// Rows to render: N of top/arcs/memprof, or --top (which wins).
  std::uint64_t top = 20;
  /// K of since-epoch; the declared record count of batch.
  std::uint64_t n = 0;
  std::string before, after;  // diff operands
  std::string session;        // --session; empty = every session
  std::optional<hw::EventKind> event;  // --event, or batch's EVENT
  bool json = false;                   // --json

  /// The columns top renders: the --event alone, else core::kReportEvents.
  std::vector<hw::EventKind> events() const {
    return event ? std::vector<hw::EventKind>{*event} : core::kReportEvents;
  }
  /// The event diff ranks by: the --event, else time.
  hw::EventKind diff_event() const { return event.value_or(hw::EventKind::kGlobalPowerEvents); }

  bool operator==(const Query&) const = default;
};

/// Why a text is not a query. message() is the front ends' answer.
struct QueryError {
  enum class Kind : std::uint8_t {
    kUnknownVerb,     // the first word is no verb
    kMissingNumber,   // top/since-epoch/arcs/memprof/batch without N
    kBadNumber,       // N or a --top value that is not plain decimal
    kMissingOperand,  // diff without two session ids, batch without EVENT
    kUnknownOption,   // a word the verb does not take
    kMissingValue,    // --session/--event/--top as the last word
    kUnknownEvent,    // an --event (or batch EVENT) no event is named
  };
  Kind kind = Kind::kUnknownVerb;
  std::string text;  // the whole query for kUnknownVerb, else the word at fault

  /// "error: ...\n" — the same wording for every front end.
  std::string message() const;

  bool operator==(const QueryError&) const = default;
};

/// Parses one query (DESIGN.md §10). Every malformed text is a QueryError,
/// never a best-effort Query.
std::variant<Query, QueryError> parse_query(std::string_view text);

/// A front end's answer to a well-formed query whose verb it does not serve.
inline std::string unserved_query(std::string_view text) {
  return QueryError{QueryError::Kind::kUnknownVerb, std::string(text)}.message();
}

struct SessionSnapshot {
  std::string id;
  core::Profile profile;  // merged over events
  std::map<std::uint64_t, core::Profile> epochs;
};

struct ServiceSnapshot {
  std::vector<SessionSnapshot> sessions;  // session-id order

  std::string serialize() const;

  /// nullopt on any framing damage: bad header, bad checksum, or a line
  /// that does not parse.
  static std::optional<ServiceSnapshot> parse(const std::string& text);

  const SessionSnapshot* find(const std::string& id) const;

  /// All sessions' profiles merged, in session-id order.
  core::Profile merged() const;
};

/// Merge of `s`'s per-epoch profiles with epoch >= `since`.
core::Profile profile_since(const SessionSnapshot& s, std::uint64_t since);

/// One line per session: rows and per-event sample totals.
std::string render_sessions(const ServiceSnapshot& snap);

/// Count movement between two snapshots of `event`, biggest movers first.
/// `session` empty = all sessions merged.
std::string render_diff(const ServiceSnapshot& before, const ServiceSnapshot& after,
                        const std::string& session, hw::EventKind event,
                        std::size_t top_n);

}  // namespace viprof::service
