// Fleet microbench: sharded ingest throughput at 1/2/4 shards, federated
// query latency against the populated fleet, and failover recovery cost
// (kill a shard mid-session, re-stream to the ring successor). Before
// anything is measured the federated answers are checked byte-identical to
// a single-server run over the same sessions — a bench that got the wrong
// answer fast is a failure, not a result.
//
// Emits BENCH_fleet.json (harness schema). VIPROF_QUICK=1 shrinks the
// session population for CI smoke runs.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "fleet/federator.hpp"
#include "fleet/router.hpp"
#include "service/client.hpp"
#include "service/scenario.hpp"
#include "service/server.hpp"
#include "support/fault.hpp"

namespace {

using namespace viprof;

using SessionMap = std::map<std::string, std::unique_ptr<service::RecordedScenario>>;

SessionMap record_sessions(std::size_t n, std::uint64_t samples) {
  SessionMap out;
  for (std::size_t i = 0; i < n; ++i) {
    service::ScenarioConfig sc;
    sc.vms = 2;
    sc.samples_per_event = samples;
    sc.epochs = 8;
    sc.methods = 64;
    sc.seed = 0xbe9c4 + i;
    out["sess-" + std::to_string(i)] = record_scenario(sc);
  }
  return out;
}

std::uint64_t total_records(const SessionMap& sessions, fleet::Router& router) {
  std::uint64_t total = 0;
  for (const auto& [id, scenario] : sessions) {
    const fleet::SessionOutcome out = router.ingest(scenario->vfs(), id);
    if (!out.completed) {
      std::fprintf(stderr, "micro_fleet: session %s did not complete\n", id.c_str());
      std::exit(1);
    }
    total += out.records_stored;
  }
  return total;
}

bool run() {
  const char* quick = std::getenv("VIPROF_QUICK");
  const bool is_quick = quick != nullptr && quick[0] == '1';

  const std::size_t session_count = is_quick ? 4 : 8;
  const std::uint64_t samples = is_quick ? 400 : 1'500;
  const int reps = is_quick ? 2 : 3;
  const int query_rounds = is_quick ? 200 : 1'000;

  std::printf("micro_fleet: %zu sessions, %llu samples/event%s\n", session_count,
              static_cast<unsigned long long>(samples), is_quick ? " (quick)" : "");

  const SessionMap sessions = record_sessions(session_count, samples);

  // The single-server oracle every federated answer must match.
  std::string oracle_top;
  {
    service::ProfileServer server;
    for (const auto& [id, scenario] : sessions) {
      auto conn = server.connect(id);
      service::ReplayClient client(scenario->vfs(), id, *conn,
                                   service::ReplayOptions{256, nullptr, {}});
      if (!client.run()) return false;
    }
    server.drain();
    oracle_top = server.query("top 20");
  }

  std::vector<bench::BenchRecord> records;

  // ---- ingest scaling: same sessions, 1/2/4 shards ------------------------
  for (const std::size_t shards : {1u, 2u, 4u}) {
    double best_secs = 0.0;
    std::uint64_t ingested = 0;
    support::TelemetrySnapshot telemetry;
    for (int rep = 0; rep < reps; ++rep) {
      os::Vfs fleet_vfs;
      fleet::FleetConfig config;
      config.shards = shards;
      fleet::Router router(fleet_vfs, config);
      const auto start = std::chrono::steady_clock::now();
      ingested = total_records(sessions, router);
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      if (rep == 0 || elapsed.count() < best_secs) best_secs = elapsed.count();

      // Correctness gate: federated == single server, byte for byte.
      if (fleet::Federator(router).query("top 20") != oracle_top) {
        std::fprintf(stderr,
                     "micro_fleet: federated top diverged at %zu shards\n", shards);
        return false;
      }
      telemetry = router.telemetry().snapshot();  // around the timed region
    }
    bench::BenchRecord record;
    record.name = "ingest.s" + std::to_string(shards);
    record.iterations = reps;
    record.seconds = best_secs;
    record.ns_per_op = best_secs * 1e9 / static_cast<double>(ingested);
    record.telemetry = std::move(telemetry);
    records.push_back(record);
    std::printf("  ingest  %zu shards: %.3fs (%llu records, %.0f ns/record)\n",
                shards, best_secs, static_cast<unsigned long long>(ingested),
                record.ns_per_op);
  }

  // ---- federated query latency -------------------------------------------
  {
    os::Vfs fleet_vfs;
    fleet::FleetConfig config;
    config.shards = 4;
    fleet::Router router(fleet_vfs, config);
    (void)total_records(sessions, router);
    fleet::Federator federator(router);

    const auto start = std::chrono::steady_clock::now();
    std::size_t sink = 0;
    for (int i = 0; i < query_rounds; ++i) sink += federator.query("top 20").size();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (sink == 0) return false;

    const double us = elapsed.count() * 1e6 / query_rounds;
    bench::BenchRecord record;
    record.name = "query.top20.s4";
    record.iterations = query_rounds;
    record.seconds = us * 1e-6;
    record.ns_per_op = us * 1e3;
    record.telemetry = router.telemetry().snapshot();
    records.push_back(record);
    std::printf("  query   top20 over 4 shards: %.1f us/query\n", us);
  }

  // ---- failover recovery: kill a shard mid-session ------------------------
  {
    double best_secs = 0.0;
    std::uint64_t failovers = 0;
    support::TelemetrySnapshot telemetry;
    for (int rep = 0; rep < reps; ++rep) {
      os::Vfs fleet_vfs;
      support::FaultInjector fault;
      fault.schedule_kill(support::FaultComponent::kFleet, 25);
      fleet::FleetConfig config;
      config.shards = 2;
      config.fault = &fault;
      fleet::Router router(fleet_vfs, config);
      const auto start = std::chrono::steady_clock::now();
      (void)total_records(sessions, router);
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      if (rep == 0 || elapsed.count() < best_secs) best_secs = elapsed.count();
      failovers = router.ledger().failover_sessions;

      const fleet::FleetFsckReport fsck = fleet::OfflineFleet::fsck(fleet_vfs);
      if (fsck.verdict != core::FsckVerdict::kClean || !fsck.ledger_balanced) {
        std::fprintf(stderr, "micro_fleet: post-failover fsck: %s\n",
                     fsck.summary.c_str());
        return false;
      }
      telemetry = router.telemetry().snapshot();
    }
    bench::BenchRecord record;
    record.name = "failover.kill1of2";
    record.iterations = reps;
    record.seconds = best_secs;
    record.ns_per_op =
        best_secs * 1e9 / static_cast<double>(session_count);
    record.telemetry = std::move(telemetry);
    records.push_back(record);
    std::printf("  failover 1-of-2 shards killed: %.3fs for %zu sessions "
                "(%llu failed over), fsck clean\n",
                best_secs, session_count,
                static_cast<unsigned long long>(failovers));
  }

  bench::write_bench_json("fleet", records);
  std::printf("micro_fleet: federated answers byte-identical to single server\n");
  return true;
}

}  // namespace

int main() { return run() ? 0 : 1; }
