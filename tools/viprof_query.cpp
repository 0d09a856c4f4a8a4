// viprof_query — evaluate queries against a service snapshot written by
// viprof_serve / the server's snapshot frame (the opreport analogue for
// the continuous-profiling service; DESIGN.md §10). The command lines are
// listed in kUsage below.
//
// FILE|DIR is a viprof-snapshot v2 file, or a directory containing
// service.snap (what --export writes). The snapshot carries its own
// crc trailer; a damaged file is rejected, never half-parsed.
//
// --store DIR answers the same questions from a persistent profile store
// (DESIGN.md §11) instead of a single snapshot: top folds every interval
// in the inclusive tick window, diff compares two tick windows. The full
// store surface (ingest, compaction, fsck, series) lives in viprof_store.
//
// --fleet DIR answers from an exported fleet namespace (DESIGN.md §12):
// the crc-guarded fleet manifest plus one store partition per shard, as
// written by `viprof_fleet serve --export`. Every --fleet verb is asked of
// fleet::OfflineFleet::query. Federated answers fold every partition in
// ascending session-id order, byte-identical to a single-server run over
// the same sessions.
//
// The verb, its N or K and --session/--event/--top/--json form one query
// in the service grammar (DESIGN.md §10, parsed by service::parse_query);
// --snap/--store/--fleet say what it runs over. diff is the exception: its
// two sides are the --before/--after sources, not session ids.
//
// Exit status: 0 ok, 2 load errors (missing/corrupt snapshot or store),
// 3 usage (a malformed query or window included).
#include <cstdio>
#include <memory>
#include <string>
#include <variant>

#include "fleet/federator.hpp"
#include "load_or_die.hpp"

namespace {

using namespace viprof;

constexpr const char* kUsage =
    "usage: viprof_query sessions --snap FILE|DIR\n"
    "       viprof_query sessions --fleet DIR\n"
    "       viprof_query top N --snap FILE|DIR [--session S] [--event E]\n"
    "       viprof_query top N --store DIR [--from T] [--to T] [--session S]\n"
    "                          [--event E]\n"
    "       viprof_query top N --fleet DIR [--session S] [--event E]\n"
    "       viprof_query since-epoch K --snap FILE|DIR [--session S] [--top N]\n"
    "       viprof_query diff --before FILE|DIR --after FILE|DIR\n"
    "                         [--session S] [--event E] [--top N]\n"
    "       viprof_query diff --store DIR --before LO[:HI] --after LO[:HI]\n"
    "                         [--session S] [--event E] [--top N]\n"
    "       viprof_query stats --fleet DIR [--json]\n"
    "       viprof_query trace --fleet DIR\n"
    "FILE|DIR: a viprof-snapshot v2 file, or a directory holding\n"
    "service.snap (as written by viprof_serve --export).\n"
    "--store DIR: a persistent profile store; windows are inclusive ticks.\n"
    "--fleet DIR: an exported fleet namespace (viprof_fleet serve --export).\n"
    "stats/trace answer from the telemetry files the fleet serve exported\n"
    "(per-shard + fleet metrics.json / trace.json).\n"
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

  std::string snap_arg, before_arg, after_arg, store_dir, fleet_dir;
  std::string options;  // --session/--event/--top/--json, as query words
  std::uint64_t from = 0, to = ~0ull;
  while (args.next()) {
    if (args.is("--snap")) snap_arg = args.value();
    else if (args.is("--store")) store_dir = args.value();
    else if (args.is("--fleet")) fleet_dir = args.value();
    else if (args.is("--before")) before_arg = args.value();
    else if (args.is("--after")) after_arg = args.value();
    else if (args.is("--from")) from = args.value_u64();
    else if (args.is("--to")) to = args.value_u64();
    else if (args.is("--json")) options += " --json";
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
    if (!store_dir.empty()) {
      os::Vfs vfs;  // queries never write to the host directory
      tool::import_or_die(kTool, vfs, store_dir);
      const auto st = tool::open_store_or_die(kTool, vfs);
      std::printf("%s", st->render_diff(tool::window_or_die(kTool, before_arg, q.session, kUsage),
                                        tool::window_or_die(kTool, after_arg, q.session, kUsage),
                                        q.diff_event(), q.top)
                            .c_str());
      return 0;
    }
    const service::ServiceSnapshot before = tool::load_snapshot_or_die(kTool, before_arg);
    const service::ServiceSnapshot after = tool::load_snapshot_or_die(kTool, after_arg);
    std::printf("%s",
                service::render_diff(before, after, q.session, q.diff_event(), q.top).c_str());
    return 0;
  }

  if (!fleet_dir.empty()) {
    os::Vfs vfs;
    tool::import_or_die(kTool, vfs, fleet_dir);
    const auto fleet = fleet::OfflineFleet::open(vfs);
    if (!fleet) {
      std::fprintf(stderr, "viprof_query: %s has no valid fleet manifest\n", fleet_dir.c_str());
      return 2;
    }
    const std::string out = fleet->query(text);
    if (out == service::unserved_query(text)) args.fail();
    if (out.rfind("error:", 0) == 0) {
      std::fprintf(stderr, "viprof_query: %s", out.c_str());
      return 2;
    }
    std::printf("%s", out.c_str());
    return 0;
  }

  if (q.verb == service::QueryVerb::kTop && !store_dir.empty()) {
    os::Vfs vfs;
    tool::import_or_die(kTool, vfs, store_dir);
    const auto st = tool::open_store_or_die(kTool, vfs);
    std::printf("%s", st->render_top({from, to, q.session}, q.events(), q.top).c_str());
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
