// viprof_store — the persistent profile store's CLI (DESIGN.md §11); the
// subcommands are listed in kUsage below.
//
// `ingest` converts a service snapshot (viprof_serve --export) into store
// intervals: each session's per-epoch profile becomes one interval at tick
// tick-base + epoch, the batch is sealed, and — with --compact — merged.
// The store directory round-trips through os::Vfs, so every mutation is
// written back with the same atomic temp+rename publish the store itself
// uses; query subcommands never modify the host directory. top, diff,
// series and segments are the one query front end for a store.
//
// Exit status: 0 ok, 1 semantic findings (fsck: salvaged damage), 2 load
// errors (missing/corrupt store or snapshot) and a --session no stored
// interval carries (`error: no such session: S` on stderr, the server's
// answer), 3 usage. fsck's code is the store verdict itself
// (core::FsckVerdict convention), and 3 for a missing or empty store
// directory.
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <variant>
#include <vector>

#include "load_or_die.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace viprof;

constexpr const char* kUsage =
    "usage: viprof_store ingest   --snap FILE|DIR --into DIR [--tick-base N]\n"
    "                             [--compact] [--threads N]\n"
    "       viprof_store compact  --store DIR [--threads N]\n"
    "       viprof_store fsck     --store DIR [--repair] [--quiet]\n"
    "       viprof_store top [N]  --store DIR [--from T] [--to T] [--session S]\n"
    "                             [--event E] [--top N]\n"
    "       viprof_store series   --store DIR --image I --symbol SYM [--event E]\n"
    "                             [--from T] [--to T] [--session S]\n"
    "       viprof_store diff     --store DIR --before LO[:HI] --after LO[:HI]\n"
    "                             [--session S] [--event E] [--top N]\n"
    "       viprof_store segments --store DIR\n"
    "--snap takes a viprof-snapshot v2 file or a directory holding\n"
    "service.snap; each session epoch becomes one interval at tick\n"
    "tick-base + epoch. Windows are inclusive ticks.\n"
    "events: time (GLOBAL_POWER_EVENTS), dmiss (BSQ_CACHE_REFERENCE), or a\n"
    "full event name\n";

constexpr const char* kTool = "viprof_store";

/// Exits 2 with the server's answer when `session` is set but no stored
/// interval carries it. Asked only of an empty fold, as the fleet asks
/// (fleet/federator.cpp): a fold with rows proves the session is stored.
void session_or_die(const store::ProfileStore& st, const std::string& session,
                    const core::Profile& fold) {
  if (session.empty() || fold.row_count() != 0) return;
  for (const store::ProfileStore::StoredSession& s : st.sessions())
    if (s.session == session) return;
  std::fprintf(stderr, "%s: error: no such session: %s\n", kTool, session.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  support::ArgScan args(argc, argv, kUsage);
  if (!args.next()) args.fail();
  const std::string cmd = args.arg();

  std::string snap_arg, store_dir, image, symbol;
  std::string before_spec, after_spec;
  std::string options;  // --session/--event/--top, as query words
  std::uint64_t tick_base = 0;
  std::uint64_t from = 0, to = ~0ull;
  std::size_t threads = 1;
  bool compact_after = false, repair = false, quiet = false;
  while (args.next()) {
    if (args.is("--snap")) snap_arg = args.value();
    else if (args.is("--into") || args.is("--store")) store_dir = args.value();
    else if (args.is("--tick-base")) tick_base = args.value_u64();
    else if (args.is("--compact")) compact_after = true;
    else if (args.is("--threads")) threads = args.value_u64();
    else if (args.is("--repair")) repair = true;
    else if (args.is("--quiet")) quiet = true;
    else if (args.is("--from")) from = args.value_u64();
    else if (args.is("--to")) to = args.value_u64();
    else if (args.is("--session") || args.is("--event") || args.is("--top")) {
      options += " " + std::string(args.arg());
      options += " " + std::string(args.value());
    }
    else if (args.is("--image")) image = args.value();
    else if (args.is("--symbol")) symbol = args.value();
    else if (args.is("--before")) before_spec = args.value();
    else if (args.is("--after")) after_spec = args.value();
    else if (cmd == "top" && std::isdigit(static_cast<unsigned char>(args.arg()[0])))
      options += " --top " + std::string(args.arg());  // `top N`, as viprof_query
    else args.fail_unknown();
  }
  if (store_dir.empty()) args.fail();
  // The options read as a top query's (DESIGN.md §10): rows, session, event.
  const auto parsed = service::parse_query("top 20" + options);
  if (const auto* error = std::get_if<service::QueryError>(&parsed)) {
    std::fprintf(stderr, "viprof_store: %s", error->message().c_str());
    args.fail();
  }
  const service::Query& q = std::get<service::Query>(parsed);

  os::Vfs vfs;  // the host directory is the store root

  if (cmd == "ingest") {
    if (snap_arg.empty()) args.fail();
    const service::ServiceSnapshot snap = tool::load_snapshot_or_die(kTool, snap_arg);
    // Ingest may start a fresh store directory.
    if (std::filesystem::is_directory(store_dir)) vfs.import_from_directory(store_dir);
    const auto st = tool::open_store_or_die(kTool, vfs);
    std::uint64_t ingested = 0;
    for (const service::SessionSnapshot& s : snap.sessions) {
      for (const auto& [epoch, profile] : s.epochs) {
        store::IntervalProfile iv;
        iv.session = s.id;
        iv.tick_lo = iv.tick_hi = tick_base + epoch;
        iv.epoch_lo = iv.epoch_hi = epoch;
        iv.profile = profile;
        if (st->ingest(std::move(iv))) ++ingested;
      }
    }
    st->seal_active();
    std::size_t merged = 0;
    if (compact_after) {
      support::ThreadPool pool(threads);
      merged = st->compact(&pool);
    }
    vfs.sync_to_directory(store_dir);
    std::printf("ingested %llu interval(s) into %s: %zu segment(s), %llu row(s)%s\n",
                static_cast<unsigned long long>(ingested), store_dir.c_str(),
                st->segment_count(),
                static_cast<unsigned long long>(st->live_rows()),
                merged != 0 ? ", compacted" : "");
    return 0;
  }

  if (cmd == "compact") {
    tool::import_or_die(kTool, vfs, store_dir);
    const auto st = tool::open_store_or_die(kTool, vfs);
    support::ThreadPool pool(threads);
    const std::size_t outputs = st->compact(&pool);
    vfs.sync_to_directory(store_dir);
    std::printf("compaction wrote %zu segment(s); %zu live, %llu interval(s), %llu row(s)\n",
                outputs, st->segment_count(),
                static_cast<unsigned long long>(st->live_intervals()),
                static_cast<unsigned long long>(st->live_rows()));
    return 0;
  }

  if (cmd == "fsck") {
    tool::import_or_die(kTool, vfs, store_dir, core::kFsckExitUsage);
    store::StoreConfig config;
    config.root = "";
    store::ProfileStore st(vfs, config);
    const store::StoreRecovery rec = repair ? st.open() : st.fsck();
    if (repair && rec.verdict != core::FsckVerdict::kUnrecoverable)
      vfs.sync_to_directory(store_dir);
    if (!quiet && !rec.details.empty()) std::fputs(rec.details.c_str(), stdout);
    std::printf("%s%s\n", rec.summary.c_str(),
                repair && rec.verdict != core::FsckVerdict::kUnrecoverable
                    ? ", repairs written back"
                    : "");
    return static_cast<int>(rec.verdict);
  }

  // Everything below is a read-only query over an opened store.
  tool::import_or_die(kTool, vfs, store_dir);
  const auto st = tool::open_store_or_die(kTool, vfs);

  if (cmd == "top") {
    const core::Profile fold = st->window_profile({from, to, q.session});
    session_or_die(*st, q.session, fold);
    std::printf("%s", fold.render(q.events(), q.top).c_str());
    return 0;
  }

  if (cmd == "series") {
    if (image.empty() || symbol.empty()) args.fail();
    // A series folds no profile: an empty one sends it to the session check.
    session_or_die(*st, q.session, core::Profile{});
    std::printf("%s",
                st->render_series({from, to, q.session}, image, symbol, q.diff_event()).c_str());
    return 0;
  }

  if (cmd == "diff") {
    if (before_spec.empty() || after_spec.empty()) args.fail();
    const core::Profile before =
        st->window_profile(tool::window_or_die(kTool, before_spec, q.session, kUsage));
    const core::Profile after =
        st->window_profile(tool::window_or_die(kTool, after_spec, q.session, kUsage));
    session_or_die(*st, q.session, before);  // one session on both sides
    std::printf("%s", core::render_diff(before, after, q.diff_event(), q.top).c_str());
    return 0;
  }

  if (cmd == "segments") {
    std::printf("%s", st->render_segments().c_str());
    return 0;
  }

  args.fail();
}
