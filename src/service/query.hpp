// Snapshot serialisation and the offline half of the query API.
//
// The server can freeze its rolling aggregates into a line-based text
// snapshot ("viprof-snapshot v1") that viprof_query evaluates later —
// sessions, top-N, since-epoch and diffs between two snapshots — without
// the server running. The format is row-per-line with an FNV-1a trailer
// (the PR 1 discipline again: never trust unverified bytes), and field
// separation is tab for the name fields because image names contain
// spaces ("anon (range:...)").
//
//   viprof-snapshot v1
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
#include <vector>

#include "core/report.hpp"

namespace viprof::service {

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
