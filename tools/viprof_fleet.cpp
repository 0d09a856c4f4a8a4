// viprof_fleet — demo / operations front end for the fault-tolerant fleet
// layer (DESIGN.md §12); the subcommands are listed in kUsage below.
//
// serve records N synthetic sessions (service::record_scenario) and streams
// them through a fleet::Router over K shards. --kill-at CP schedules a
// FaultComponent::kFleet process kill at fleet checkpoint CP — the shard
// being streamed to dies mid-session and the router fails the session over
// to its ring successor (or counts it into fleet.lost.* when none is
// left). After ingest the degradation ledger is printed and audited with
// OfflineFleet::fsck; --export writes the whole fleet namespace (manifest +
// one store partition per shard) to a host directory that `viprof_fleet
// query` and `viprof_fleet fsck` consume.
//
// Query text: the grammar of DESIGN.md §10, answered by Federator::query
// (serve --query) and OfflineFleet::query (query). `query` is the one
// query front end for an exported fleet: viprof_query reads snapshots
// only, viprof_store stores only.
//
// Exit status: serve exits 0 only when the ledger balances exactly AND the
// fleet fsck verdict is clean; query exits 0, 2 on a load error or an
// `error:` answer (an unknown session; printed to stderr), and 3 on a
// malformed query or one an offline fleet does not serve (memprof, arcs,
// ...); fsck mirrors the verdict (0/1/2) and exits 3 for a missing or
// empty directory or a store directory (a store's MANIFEST is not a fleet
// manifest). Usage errors exit 3.
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "fleet/federator.hpp"
#include "fleet/router.hpp"
#include "load_or_die.hpp"
#include "os/vfs.hpp"
#include "service/scenario.hpp"
#include "support/arg_scan.hpp"
#include "support/fault.hpp"

namespace {

using namespace viprof;

constexpr const char* kUsage =
    "usage: viprof_fleet serve --sessions N --shards K [--kill-at CP]\n"
    "                          [--batch R] [--threads T] [--seed S]\n"
    "                          [--query \"TEXT\"]... [--export DIR] [--quiet]\n"
    "       viprof_fleet query \"TEXT\" --fleet DIR\n"
    "       viprof_fleet fsck --fleet DIR [--quiet]\n"
    "  serve    stream N synthetic sessions across K shards; --kill-at CP\n"
    "           kills the streamed-to shard at fleet checkpoint CP\n"
    "  query    answer a federated query over an exported fleet directory\n"
    "  fsck     audit the fleet manifest, partitions, and the exact\n"
    "           degradation ledger (acked == stored + lost)\n"
    "  query text: sessions | top N [--event E] [--session S] [--top N] |\n"
    "              diff BEFORE AFTER [--event E] [--top N] | memprof N (serve) |\n"
    "              stats [--json] | trace   (grammar: DESIGN.md §10)\n";

int cmd_serve(support::ArgScan& args) {
  std::size_t sessions = 4;
  std::size_t shards = 3;
  std::uint64_t kill_at = 0;
  std::size_t batch = 256;
  std::size_t threads = 0;  // 0 = the ServerConfig default
  std::uint64_t seed = 0x5e55;
  std::vector<std::string> queries;
  std::string export_dir;
  bool quiet = false;
  while (args.next()) {
    if (args.is("--sessions")) sessions = args.value_u64();
    else if (args.is("--shards")) shards = args.value_u64();
    else if (args.is("--kill-at")) kill_at = args.value_u64();
    else if (args.is("--batch")) batch = args.value_u64();
    else if (args.is("--threads")) threads = args.value_u64();
    else if (args.is("--seed")) seed = args.value_u64();
    else if (args.is("--query")) queries.push_back(args.value());
    else if (args.is("--export")) export_dir = args.value();
    else if (args.is("--quiet")) quiet = true;
    else args.fail_unknown();
  }
  if (sessions == 0 || shards == 0) args.fail();

  support::FaultInjector fault;
  if (kill_at > 0) fault.schedule_kill(support::FaultComponent::kFleet, kill_at);

  os::Vfs fleet_vfs;
  fleet::FleetConfig config;
  config.shards = shards;
  config.batch_records = batch;
  // More ingest workers per shard = more pressure on the named locks;
  // the contention walkthrough (DESIGN.md §13) raises this to make the
  // serialisation points visible in `viprof_stat contention`.
  if (threads > 0) config.server.ingest_threads = threads;
  config.fault = &fault;
  fleet::Router router(fleet_vfs, config);

  for (std::size_t i = 0; i < sessions; ++i) {
    service::ScenarioConfig sc;
    sc.vms = 2;
    sc.samples_per_event = 800;
    sc.epochs = 8;
    sc.methods = 64;
    sc.seed = seed + i;
    const auto world = service::record_scenario(sc);
    const std::string id = "sess-" + std::to_string(i);
    const fleet::SessionOutcome out = router.ingest(world->vfs(), id);
    if (!quiet) {
      std::printf("%-12s -> %-12s %s attempts=%zu sent=%llu stored=%llu\n",
                  id.c_str(), out.shard.empty() ? "-" : out.shard.c_str(),
                  out.completed ? "ok      "
                  : out.refused ? "refused "
                                : "lost    ",
                  out.attempts, static_cast<unsigned long long>(out.records_sent),
                  static_cast<unsigned long long>(out.records_stored));
    }
  }

  const store::FleetLedger& ledger = router.ledger();
  std::printf(
      "fleet: acked %llu sessions / %llu records; stored %llu, "
      "lost wire %llu queue %llu dead %llu; failover %llu, refused %llu, "
      "retried %llu, kills %llu\n",
      static_cast<unsigned long long>(ledger.acked_sessions),
      static_cast<unsigned long long>(ledger.acked_records),
      static_cast<unsigned long long>(ledger.stored_records),
      static_cast<unsigned long long>(ledger.lost_wire),
      static_cast<unsigned long long>(ledger.lost_queue),
      static_cast<unsigned long long>(ledger.lost_dead_records),
      static_cast<unsigned long long>(ledger.failover_sessions),
      static_cast<unsigned long long>(ledger.refused_sessions),
      static_cast<unsigned long long>(ledger.retried_sends),
      static_cast<unsigned long long>(fault.stats().kills));

  fleet::Federator federator(router);
  for (const std::string& q : queries) {
    std::printf("== query: %s\n%s", q.c_str(), federator.query(q).c_str());
  }

  const fleet::FleetFsckReport fsck = fleet::OfflineFleet::fsck(fleet_vfs);
  std::printf("%s\n", fsck.summary.c_str());

  if (!export_dir.empty()) {
    // Telemetry rides along with the namespace: per-shard + fleet
    // metrics.json / trace.json, so the exported directory answers
    // `viprof_fleet query stats|trace` and feeds
    // `viprof_stat trace-merge` / `viprof_stat contention`.
    router.export_telemetry();
    fleet_vfs.export_to_directory(export_dir);
    if (!quiet)
      std::printf("fleet namespace written to %s\n", export_dir.c_str());
  }
  const bool ok = ledger.balanced() && fsck.verdict == core::FsckVerdict::kClean;
  return ok ? 0 : static_cast<int>(fsck.verdict);
}

int cmd_query(support::ArgScan& args) {
  if (!args.next()) args.fail();
  const std::string text = args.arg();
  std::string fleet_dir;
  while (args.next()) {
    if (args.is("--fleet")) fleet_dir = args.value();
    else args.fail_unknown();
  }
  if (fleet_dir.empty()) args.fail();
  // A malformed query is usage, found before anything is read.
  const auto parsed = service::parse_query(text);
  if (const auto* error = std::get_if<service::QueryError>(&parsed)) {
    std::fprintf(stderr, "viprof_fleet: %s", error->message().c_str());
    args.fail();
  }

  os::Vfs vfs;
  tool::import_or_die("viprof_fleet", vfs, fleet_dir);
  auto fleet = fleet::OfflineFleet::open(vfs);
  if (!fleet) {
    std::fprintf(stderr,
                 "viprof_fleet: %s has no valid fleet manifest\n",
                 fleet_dir.c_str());
    return 2;
  }
  const std::string out = fleet->query(text);
  if (out.rfind("error:", 0) == 0) {
    std::fprintf(stderr, "viprof_fleet: %s", out.c_str());
    if (out == service::unserved_query(text)) args.fail();
    return 2;
  }
  std::printf("%s", out.c_str());
  return 0;
}

int cmd_fsck(support::ArgScan& args) {
  std::string fleet_dir;
  bool quiet = false;
  while (args.next()) {
    if (args.is("--fleet")) fleet_dir = args.value();
    else if (args.is("--quiet")) quiet = true;
    else args.fail_unknown();
  }
  if (fleet_dir.empty()) args.fail();

  os::Vfs vfs;
  tool::import_or_die("viprof_fleet", vfs, fleet_dir, core::kFsckExitUsage);
  const fleet::FleetFsckReport report = fleet::OfflineFleet::fsck(vfs);
  if (report.wrong_layout) {
    std::fprintf(stderr, "viprof_fleet: %s: %s (audit it with viprof_store fsck)\n",
                 fleet_dir.c_str(), report.summary.c_str());
    return core::kFsckExitUsage;
  }
  if (!quiet && !report.details.empty()) std::fputs(report.details.c_str(), stdout);
  std::printf("%s\n", report.summary.c_str());
  return static_cast<int>(report.verdict);
}

}  // namespace

int main(int argc, char** argv) {
  support::ArgScan args(argc, argv, kUsage);
  if (!args.next()) args.fail();
  const std::string cmd = args.arg();
  if (cmd == "serve") return cmd_serve(args);
  if (cmd == "query") return cmd_query(args);
  if (cmd == "fsck") return cmd_fsck(args);
  args.fail();
}
