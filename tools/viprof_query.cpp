// viprof_query — evaluate queries against a service snapshot written by
// viprof_serve / the server's snapshot frame (the opreport analogue for
// the continuous-profiling service; DESIGN.md §10). The command lines are
// listed in kUsage below.
//
// FILE|DIR is a viprof-snapshot v2 file, or a directory containing
// service.snap (what --export writes). The snapshot carries its own
// crc trailer; a damaged file is rejected, never half-parsed.
//
// Snapshots are this tool's only source. A persistent profile store is
// queried with viprof_store top/diff/series (DESIGN.md §11), an exported
// fleet namespace with viprof_fleet query (DESIGN.md §12).
//
// The verb, its N or K and --session/--event/--top form one query in the
// service grammar (DESIGN.md §10, parsed by service::parse_query); --snap
// says what it runs over. diff is the exception: its two sides are the
// --before/--after snapshots, not session ids.
//
// Exit status: 0 ok, 2 load errors (missing/corrupt snapshot, unknown
// session), 3 usage (a malformed query included).
#include <cstdio>
#include <string>
#include <variant>

#include "load_or_die.hpp"

namespace {

using namespace viprof;

constexpr const char* kUsage =
    "usage: viprof_query sessions --snap FILE|DIR\n"
    "       viprof_query top N --snap FILE|DIR [--session S] [--event E]\n"
    "       viprof_query since-epoch K --snap FILE|DIR [--session S] [--top N]\n"
    "       viprof_query diff --before FILE|DIR --after FILE|DIR\n"
    "                         [--session S] [--event E] [--top N]\n"
    "FILE|DIR: a viprof-snapshot v2 file, or a directory holding\n"
    "service.snap (as written by viprof_serve --export).\n"
    "Stores: viprof_store top|diff|series; fleets: viprof_fleet query.\n"
    "events: time (GLOBAL_POWER_EVENTS), dmiss (BSQ_CACHE_REFERENCE), or a\n"
    "full event name\n";

constexpr const char* kTool = "viprof_query";

}  // namespace

int main(int argc, char** argv) {
  support::ArgScan args(argc, argv, kUsage);
  if (!args.next()) args.fail();
  const std::string cmd = args.arg();

  std::string text = cmd;  // the query, in the service grammar
  if ((cmd == "top" || cmd == "since-epoch") && args.next()) text += " " + std::string(args.arg());

  std::string snap_arg, before_arg, after_arg;
  std::string options;  // --session/--event/--top, as query words
  while (args.next()) {
    if (args.is("--snap")) snap_arg = args.value();
    else if (args.is("--before")) before_arg = args.value();
    else if (args.is("--after")) after_arg = args.value();
    else if (args.is("--session") || args.is("--event") || args.is("--top")) {
      options += " " + std::string(args.arg());
      options += " " + std::string(args.value());
    }
    else args.fail_unknown();
  }

  // diff's two sides are the --before/--after sources, not session ids;
  // its options read as top's.
  const bool diff = cmd == "diff";
  if (diff) text = "top 20";
  text += options;
  const auto parsed = service::parse_query(text);
  if (const auto* error = std::get_if<service::QueryError>(&parsed)) {
    std::fprintf(stderr, "viprof_query: %s", error->message().c_str());
    args.fail();
  }
  const service::Query& q = std::get<service::Query>(parsed);

  if (diff) {
    if (before_arg.empty() || after_arg.empty()) args.fail();
    const service::ServiceSnapshot before = tool::load_snapshot_or_die(kTool, before_arg);
    const service::ServiceSnapshot after = tool::load_snapshot_or_die(kTool, after_arg);
    std::printf("%s",
                service::render_diff(before, after, q.session, q.diff_event(), q.top).c_str());
    return 0;
  }

  if (snap_arg.empty()) args.fail();
  const service::ServiceSnapshot snap = tool::load_snapshot_or_die(kTool, snap_arg);
  core::Profile profile;
  switch (q.verb) {
    case service::QueryVerb::kSessions:
      std::printf("%s", service::render_sessions(snap).c_str());
      return 0;
    case service::QueryVerb::kTop:
      if (q.session.empty()) {
        profile = snap.merged();
      } else if (const service::SessionSnapshot* s = snap.find(q.session)) {
        profile = s->profile;
      } else {
        std::fprintf(stderr, "viprof_query: no session %s in snapshot\n",
                     q.session.c_str());
        return 2;
      }
      break;
    case service::QueryVerb::kSinceEpoch:
      for (const service::SessionSnapshot& s : snap.sessions)
        if (q.session.empty() || s.id == q.session)
          profile.merge(service::profile_since(s, q.n));
      break;
    default:
      args.fail();
  }
  std::printf("%s", profile.render(q.events(), q.top).c_str());
  return 0;
}
