// Fleet layer, fault-free behaviour: consistent-hash routing, the
// federated-query byte-identity anchor (a federated answer over N shards
// equals a single-server run over the same sessions, byte for byte, at
// shard counts 1/2/4 — ISSUE 6 acceptance), the offline export path, and
// shard join/leave rebalancing.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "fleet/federator.hpp"
#include "fleet/ring.hpp"
#include "fleet/router.hpp"
#include "service/client.hpp"
#include "service/scenario.hpp"
#include "service/server.hpp"

namespace viprof::fleet {
namespace {

const std::vector<hw::EventKind> kEvents = {hw::EventKind::kGlobalPowerEvents,
                                            hw::EventKind::kBsqCacheReference};

service::ScenarioConfig small_scenario(std::uint64_t seed) {
  service::ScenarioConfig config;
  config.vms = 2;
  config.samples_per_event = 800;
  config.epochs = 8;
  config.methods = 64;
  config.seed = seed;
  return config;
}

/// A handful of distinct recorded sessions, keyed by session id.
std::map<std::string, std::unique_ptr<service::RecordedScenario>> record_sessions(
    std::size_t n) {
  std::map<std::string, std::unique_ptr<service::RecordedScenario>> out;
  for (std::size_t i = 0; i < n; ++i)
    out["sess-" + std::to_string(i)] = record_scenario(small_scenario(0x5e55 + i));
  return out;
}

/// The single-server oracle: every session streamed into one
/// ProfileServer, queried directly.
std::unique_ptr<service::ProfileServer> single_server(
    const std::map<std::string, std::unique_ptr<service::RecordedScenario>>& sessions) {
  auto server = std::make_unique<service::ProfileServer>();
  for (const auto& [id, scenario] : sessions) {
    auto conn = server->connect(id);
    service::ReplayClient client(scenario->vfs(), id, *conn,
                                 service::ReplayOptions{256, nullptr, {}});
    EXPECT_TRUE(client.run());
  }
  server->drain();
  return server;
}

TEST(Ring, PreferenceListsAreStableAndComplete) {
  Ring ring(16);
  ring.add("a");
  ring.add("b");
  ring.add("c");
  const auto pref = ring.preference("some-session");
  ASSERT_EQ(pref.size(), 3u);
  EXPECT_EQ(std::set<std::string>(pref.begin(), pref.end()),
            (std::set<std::string>{"a", "b", "c"}));
  EXPECT_EQ(ring.owner("some-session"), pref.front());
  // Same membership, same answer — two routers always agree.
  Ring other(16);
  other.add("c");
  other.add("a");
  other.add("b");
  EXPECT_EQ(other.preference("some-session"), pref);
  // Removing a non-owner leaves the owner in place.
  Ring smaller = ring;
  const std::string victim = pref.back();
  smaller.remove(victim);
  EXPECT_EQ(smaller.owner("some-session"), pref.front());
}

TEST(Ring, VnodesSpreadSessionsAcrossShards) {
  Ring ring(16);
  ring.add("shard-0");
  ring.add("shard-1");
  ring.add("shard-2");
  std::map<std::string, int> hits;
  for (int i = 0; i < 300; ++i) hits[ring.owner("sess-" + std::to_string(i))]++;
  for (const auto& [shard, count] : hits) {
    EXPECT_GT(count, 30) << shard;  // no shard starves
  }
  EXPECT_EQ(hits.size(), 3u);
}

TEST(FleetRouter, FederatedQueriesMatchSingleServerByteForByte) {
  const auto sessions = record_sessions(5);
  const auto oracle = single_server(sessions);
  const std::string oracle_top = oracle->query("top 20");
  const std::string oracle_sessions = oracle->query("sessions");
  const std::string oracle_top_time = oracle->query("top 10 --event time");

  for (const std::size_t shard_count : {1u, 2u, 4u}) {
    os::Vfs fleet_vfs;
    FleetConfig config;
    config.shards = shard_count;
    Router router(fleet_vfs, config);
    std::set<std::string> used_shards;
    for (const auto& [id, scenario] : sessions) {
      const SessionOutcome outcome = router.ingest(scenario->vfs(), id);
      EXPECT_TRUE(outcome.completed) << id;
      EXPECT_EQ(outcome.attempts, 1u);
      EXPECT_EQ(outcome.records_lost_wire, 0u);
      EXPECT_EQ(outcome.records_lost_queue, 0u);
      EXPECT_EQ(outcome.records_sent, outcome.records_stored);
      used_shards.insert(outcome.shard);
    }
    Federator federator(router);
    EXPECT_EQ(federator.query("top 20"), oracle_top) << shard_count << " shards";
    EXPECT_EQ(federator.query("top 10 --event time"), oracle_top_time);
    EXPECT_EQ(federator.query("sessions"), oracle_sessions);
    if (shard_count == 4) {
      EXPECT_GT(used_shards.size(), 1u);
    }

    // Clean ledger: everything acked was stored, nothing was lost.
    const store::FleetLedger& ledger = router.ledger();
    EXPECT_EQ(ledger.acked_sessions, sessions.size());
    EXPECT_TRUE(ledger.balanced());
    EXPECT_EQ(ledger.lost_wire + ledger.lost_queue + ledger.lost_dead_records, 0u);
    const FleetFsckReport fsck = OfflineFleet::fsck(fleet_vfs);
    EXPECT_EQ(fsck.verdict, core::FsckVerdict::kClean) << fsck.summary;
    EXPECT_TRUE(fsck.stored_matches);
  }
}

TEST(FleetRouter, PerSessionProfilesMatchSingleServerReports) {
  const auto sessions = record_sessions(3);
  const auto oracle = single_server(sessions);

  os::Vfs fleet_vfs;
  FleetConfig config;
  config.shards = 3;
  Router router(fleet_vfs, config);
  for (const auto& [id, scenario] : sessions)
    ASSERT_TRUE(router.ingest(scenario->vfs(), id).completed);

  Federator federator(router);
  for (const auto& [id, scenario] : sessions) {
    EXPECT_EQ(federator.query("top 15 --session " + id),
              oracle->session_report(id, 15, kEvents))
        << id;
  }
  // The regression ranking between two sessions must render identically
  // through the partitions.
  EXPECT_EQ(federator.query("diff sess-0 sess-1 --top 10"),
            core::render_diff(oracle->session("sess-0")->merged_profile(),
                              oracle->session("sess-1")->merged_profile(),
                              hw::EventKind::kGlobalPowerEvents, 10));
}

TEST(FleetRouter, OfflineFleetAnswersMatchLiveFederator) {
  const auto sessions = record_sessions(3);
  os::Vfs fleet_vfs;
  FleetConfig config;
  config.shards = 2;
  Router router(fleet_vfs, config);
  for (const auto& [id, scenario] : sessions)
    ASSERT_TRUE(router.ingest(scenario->vfs(), id).completed);
  Federator federator(router);

  // The fleet namespace *is* the durable state: re-opening it cold (the
  // viprof_fleet query path) answers identically to the live federator.
  os::Vfs exported = fleet_vfs;
  auto offline = OfflineFleet::open(exported);
  ASSERT_TRUE(offline.has_value());
  EXPECT_EQ(offline->manifest().ledger.acked_sessions, sessions.size());
  EXPECT_EQ(offline->query("top 20"), federator.query("top 20"));
  EXPECT_EQ(offline->sessions().size(), sessions.size());
  for (const auto& [id, scenario] : sessions)
    EXPECT_EQ(offline->query("top 15 --session " + id),
              federator.query("top 15 --session " + id));
  EXPECT_EQ(offline->query("diff sess-0 sess-2 --event dmiss --top 12"),
            federator.query("diff sess-0 sess-2 --event dmiss --top 12"));

  // A damaged manifest is all-or-nothing.
  os::Vfs damaged = fleet_vfs;
  std::string bytes = *damaged.read(store::kFleetManifestPath);
  bytes[bytes.size() / 2] ^= 0x20;
  damaged.write(store::kFleetManifestPath, bytes);
  EXPECT_FALSE(OfflineFleet::open(damaged).has_value());
}

TEST(FleetRouter, UnknownSessionAnswersLikeTheServer) {
  const auto sessions = record_sessions(2);
  const auto oracle = single_server(sessions);
  os::Vfs fleet_vfs;
  FleetConfig config;
  config.shards = 2;
  Router router(fleet_vfs, config);
  for (const auto& [id, scenario] : sessions)
    ASSERT_TRUE(router.ingest(scenario->vfs(), id).completed);
  Federator federator(router);
  os::Vfs exported = fleet_vfs;
  auto offline = OfflineFleet::open(exported);
  ASSERT_TRUE(offline.has_value());

  const std::string nope = "error: no such session: nope\n";
  EXPECT_EQ(oracle->query("top 5 --session nope"), nope);
  for (const std::string& q : {std::string("top 5 --session nope"),
                               std::string("top 5 --event time --session nope"),
                               std::string("diff nope sess-0"),
                               std::string("diff sess-0 nope --top 3")}) {
    EXPECT_EQ(federator.query(q), nope) << q;
    EXPECT_EQ(offline->query(q), nope) << q;
  }
  // A known session is still answered from its fold.
  EXPECT_EQ(federator.query("top 5 --session sess-1"),
            oracle->session_report("sess-1", 5, kEvents));
}

TEST(FleetRouter, JoinAndLeaveRebalanceTheRing) {
  const auto sessions = record_sessions(4);
  os::Vfs fleet_vfs;
  FleetConfig config;
  config.shards = 2;
  Router router(fleet_vfs, config);

  auto it = sessions.begin();
  ASSERT_TRUE(router.ingest(it->second->vfs(), it->first).completed);
  ++it;

  // Join: the new shard becomes routable for subsequent sessions.
  ASSERT_TRUE(router.add_shard("shard-joined"));
  EXPECT_FALSE(router.add_shard("shard-joined"));  // name taken
  EXPECT_TRUE(router.routable("shard-joined"));
  for (; it != sessions.end(); ++it)
    ASSERT_TRUE(router.ingest(it->second->vfs(), it->first).completed);

  // Leave: quiesced, flushed, out of the ring — its partition still serves.
  const std::string departing = router.ring().owner("sess-0");
  ASSERT_TRUE(router.remove_shard(departing));
  EXPECT_FALSE(router.routable(departing));
  EXPECT_NE(router.partition(departing), nullptr);
  EXPECT_EQ(router.ledger().rebalances, 2u);

  // Every stored session is still fully answerable after both rebalances.
  Federator federator(router);
  EXPECT_EQ(federator.sessions().size(), sessions.size());
  const auto oracle = single_server(sessions);
  EXPECT_EQ(federator.query("top 20"), oracle->query("top 20"));

  // A session routed after the leave lands on a surviving shard.
  auto extra = record_scenario(small_scenario(0x9999));
  const SessionOutcome outcome = router.ingest(extra->vfs(), "zz-late");
  EXPECT_TRUE(outcome.completed);
  EXPECT_NE(outcome.shard, departing);

  const FleetFsckReport fsck = OfflineFleet::fsck(fleet_vfs);
  EXPECT_EQ(fsck.verdict, core::FsckVerdict::kClean) << fsck.summary;
}

// --- Cross-layer trace propagation + fleet telemetry (DESIGN.md §13) --------

TEST(FleetTrace, SessionsCarryMintedTraceAcrossShards) {
  const auto sessions = record_sessions(4);
  os::Vfs fleet_vfs;
  FleetConfig config;
  config.shards = 3;
  Router router(fleet_vfs, config);
  std::set<std::string> used_shards;
  for (const auto& [id, scenario] : sessions) {
    const SessionOutcome outcome = router.ingest(scenario->vfs(), id);
    ASSERT_TRUE(outcome.completed);
    used_shards.insert(outcome.shard);

    // The wire carried the router's minted context; the shard's session
    // adopted it rather than minting its own.
    service::ProfileServer* server = router.server(outcome.shard);
    ASSERT_NE(server, nullptr);
    const auto session = server->session(id);
    ASSERT_NE(session, nullptr);
    EXPECT_EQ(session->trace(), support::TraceContext::mint(id).trace_id);
  }
  ASSERT_GT(used_shards.size(), 1u);  // the merge below spans ≥ 2 shards

  // Every shard's ingest spans are tagged with some session's trace id.
  std::set<std::uint64_t> expected;
  for (const auto& [id, scenario] : sessions)
    expected.insert(support::TraceContext::mint(id).trace_id);
  for (const std::string& shard : used_shards) {
    for (const support::Span& s : router.server(shard)->telemetry().spans().spans()) {
      if (std::string(s.cat).rfind("lock.", 0) == 0) continue;  // untagged
      EXPECT_TRUE(expected.count(s.trace)) << s.name << " on " << shard;
    }
  }

  // The federated merge folds the fleet ring and every shard ring into one
  // well-formed Chrome trace with one pid lane per process.
  Federator federator(router);
  const std::optional<support::ChromeTrace> merged =
      support::parse_chrome_trace(federator.query("trace"));
  ASSERT_TRUE(merged.has_value());
  std::set<int> pids;
  bool saw_fleet = false, saw_service = false;
  for (const support::ChromeTraceEvent& e : merged->events) {
    EXPECT_FALSE(e.name.empty());
    pids.insert(e.pid);
    if (e.name == "fleet.ingest") saw_fleet = true;
    if (e.name.rfind("service.", 0) == 0) saw_service = true;
  }
  EXPECT_GE(pids.size(), 1u + used_shards.size());  // fleet + each used shard
  EXPECT_TRUE(saw_fleet);
  EXPECT_TRUE(saw_service);
}

TEST(FleetTrace, ExportedTelemetryAnswersOffline) {
  const auto sessions = record_sessions(3);
  os::Vfs fleet_vfs;
  FleetConfig config;
  config.shards = 2;
  Router router(fleet_vfs, config);
  for (const auto& [id, scenario] : sessions)
    ASSERT_TRUE(router.ingest(scenario->vfs(), id).completed);

  // fleet + 2 shards, metrics + trace each.
  EXPECT_EQ(router.export_telemetry(), 6u);
  // Telemetry files must not disturb the fsck verdict.
  const FleetFsckReport fsck = OfflineFleet::fsck(fleet_vfs);
  EXPECT_EQ(fsck.verdict, core::FsckVerdict::kClean) << fsck.summary;

  os::Vfs exported = fleet_vfs;
  auto offline = OfflineFleet::open(exported);
  ASSERT_TRUE(offline.has_value());

  // stats: lock contention metrics from every source, shards included.
  const std::string stats = offline->query("stats --json");
  EXPECT_NE(stats.find("\"fleet\""), std::string::npos);
  EXPECT_NE(stats.find("\"shard-0\""), std::string::npos);
  EXPECT_NE(stats.find("lock.store.manifest.acquired"), std::string::npos);
  EXPECT_NE(stats.find("lock.service.session.agg.acquired"), std::string::npos);
  EXPECT_TRUE(support::json_well_formed(stats));

  // trace: the offline merge parses and spans the same processes as live.
  const std::optional<support::ChromeTrace> merged =
      support::parse_chrome_trace(offline->query("trace"));
  ASSERT_TRUE(merged.has_value());
  std::set<int> pids;
  for (const support::ChromeTraceEvent& e : merged->events) pids.insert(e.pid);
  EXPECT_GE(pids.size(), 3u);  // fleet + both shards

  // Live federator sections agree on the sources.
  Federator federator(router);
  const std::string live = federator.query("stats");
  EXPECT_NE(live.find("== fleet =="), std::string::npos);
  EXPECT_NE(live.find("== shard-0 =="), std::string::npos);
  EXPECT_NE(live.find("== shard-1 =="), std::string::npos);
}

}  // namespace
}  // namespace viprof::fleet
