// Fleet failure paths: transient send faults retried through Backoff,
// circuit-break failover to the ring successor, the kill-a-shard sweep
// across every FaultComponent::kFleet checkpoint (ISSUE 6 acceptance:
// fsck exits clean and acked == stored + lost, exactly, at every kill
// point), whole-fleet death, retry determinism under a fixed seed, the
// per-shard partition audit, a deleted active segment, and a store
// directory audited as a fleet.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fleet/federator.hpp"
#include "fleet/router.hpp"
#include "service/scenario.hpp"
#include "support/fault.hpp"

namespace viprof::fleet {
namespace {

service::ScenarioConfig tiny_scenario(std::uint64_t seed) {
  service::ScenarioConfig config;
  config.vms = 2;
  config.samples_per_event = 300;
  config.epochs = 4;
  config.methods = 32;
  config.seed = seed;
  return config;
}

std::map<std::string, std::unique_ptr<service::RecordedScenario>> record_sessions(
    std::size_t n) {
  std::map<std::string, std::unique_ptr<service::RecordedScenario>> out;
  for (std::size_t i = 0; i < n; ++i)
    out["sess-" + std::to_string(i)] = record_scenario(tiny_scenario(0xfee7 + i));
  return out;
}

void expect_exact_accounting(const Router& router, const os::Vfs& fleet_vfs) {
  const store::FleetLedger& ledger = router.ledger();
  EXPECT_EQ(ledger.acked_records,
            ledger.stored_records + ledger.lost_wire + ledger.lost_queue +
                ledger.lost_dead_records)
      << "ledger imbalance";
  const FleetFsckReport fsck = OfflineFleet::fsck(fleet_vfs);
  EXPECT_EQ(fsck.verdict, core::FsckVerdict::kClean) << fsck.summary;
  EXPECT_TRUE(fsck.ledger_balanced) << fsck.summary;
  EXPECT_TRUE(fsck.stored_matches) << fsck.summary;
}

TEST(FleetFaults, TransientSendErrorsAreRetriedToSuccess) {
  const auto sessions = record_sessions(1);
  os::Vfs fleet_vfs;
  support::FaultInjector fault;
  support::FaultRule rule;
  rule.path_prefix = "fleet/send/";  // whichever shard owns the session
  rule.kind = support::FaultKind::kWriteError;
  rule.skip = 10;
  rule.count = 2;  // two consecutive failures on one frame; retries cover it
  fault.add_rule(rule);

  FleetConfig config;
  config.shards = 2;
  config.fault = &fault;
  Router router(fleet_vfs, config);
  const SessionOutcome outcome =
      router.ingest(sessions.begin()->second->vfs(), sessions.begin()->first);

  // The retry loop absorbed both faults: no frame lost, no failover.
  EXPECT_TRUE(outcome.completed);
  EXPECT_EQ(outcome.attempts, 1u);
  EXPECT_EQ(outcome.records_lost_wire, 0u);
  EXPECT_EQ(router.ledger().retried_sends, 2u);
  EXPECT_EQ(router.ledger().retried_giveups, 0u);
  EXPECT_EQ(router.ledger().circuit_opens, 0u);
  EXPECT_EQ(outcome.records_sent, outcome.records_stored);
  expect_exact_accounting(router, fleet_vfs);
}

TEST(FleetFaults, CircuitBreakFailsSessionOverToRingSuccessor) {
  const auto sessions = record_sessions(1);
  const std::string id = sessions.begin()->first;
  os::Vfs fleet_vfs;

  // Probe run: learn the session's ring owner and how many frames it
  // streams, so the persistent fault can start three frames before the end
  // — after sample batches have been delivered on the doomed attempt.
  FleetConfig probe_config;
  probe_config.shards = 3;
  std::string owner;
  std::uint64_t frames = 0;
  {
    os::Vfs scratch;
    Router probe(scratch, probe_config);
    owner = probe.ring().owner(id);
    ASSERT_TRUE(probe.ingest(sessions.begin()->second->vfs(), id).completed);
    frames = probe.fleet_checkpoints();
  }
  ASSERT_GT(frames, 6u);

  // Every send to the owner fails persistently from there on: three frame
  // give-ups open the circuit on the stream's final frames.
  support::FaultRule rule;
  rule.path_prefix = "fleet/send/" + owner;
  rule.kind = support::FaultKind::kWriteError;
  rule.skip = frames - 3;
  support::FaultInjector persistent;
  persistent.add_rule(rule);

  FleetConfig config = probe_config;
  config.fault = &persistent;
  Router router(fleet_vfs, config);
  const SessionOutcome outcome =
      router.ingest(sessions.begin()->second->vfs(), id);

  // The session failed over and completed on the successor.
  EXPECT_TRUE(outcome.completed);
  EXPECT_EQ(outcome.attempts, 2u);
  EXPECT_NE(outcome.shard, owner);
  EXPECT_EQ(router.ledger().circuit_opens, 1u);
  EXPECT_EQ(router.ledger().retried_giveups, 3u);
  EXPECT_EQ(router.ledger().failover_sessions, 1u);
  EXPECT_GT(router.ledger().failover_records, 0u);
  // Two frames were dropped before the third give-up opened the circuit —
  // but they belonged to the *aborted* attempt, which was re-streamed in
  // full, so nothing terminal was lost.
  EXPECT_EQ(outcome.records_lost_wire, 0u);

  // The broken shard is alive but unroutable, and the partial session was
  // discarded on it (no double count anywhere).
  EXPECT_TRUE(router.alive(owner));
  EXPECT_FALSE(router.routable(owner));
  ASSERT_NE(router.server(owner), nullptr);
  EXPECT_EQ(router.server(owner)->session(id), nullptr);
  expect_exact_accounting(router, fleet_vfs);
}

// The headline acceptance: kill the streamed-to shard at *every* fleet
// checkpoint in turn; at each kill point the fleet must settle with the
// ledger exact and `fsck --fleet` clean — no silent loss, no double count.
TEST(FleetFaults, KillSweepHoldsExactAccountingAtEveryCheckpoint) {
  const auto sessions = record_sessions(2);

  // Clean run: enumerate the checkpoints.
  std::uint64_t total_checkpoints = 0;
  std::string clean_top;
  {
    os::Vfs fleet_vfs;
    support::FaultInjector fault;
    FleetConfig config;
    config.shards = 2;
    config.fault = &fault;
    Router router(fleet_vfs, config);
    for (const auto& [id, scenario] : sessions)
      ASSERT_TRUE(router.ingest(scenario->vfs(), id).completed);
    total_checkpoints = router.fleet_checkpoints();
    clean_top = Federator(router).query("top 20");
  }
  ASSERT_GT(total_checkpoints, 20u);

  std::size_t killed_runs = 0, failovers = 0;
  for (std::uint64_t cp = 1; cp <= total_checkpoints; ++cp) {
    os::Vfs fleet_vfs;
    support::FaultInjector fault;
    fault.schedule_kill(support::FaultComponent::kFleet, cp);
    FleetConfig config;
    config.shards = 2;
    config.fault = &fault;
    Router router(fleet_vfs, config);
    std::size_t completed = 0;
    for (const auto& [id, scenario] : sessions)
      completed += router.ingest(scenario->vfs(), id).completed ? 1 : 0;

    ASSERT_EQ(fault.stats().kills, 1u) << "checkpoint " << cp;
    ++killed_runs;
    failovers += router.ledger().failover_sessions;
    // One shard of two died: the survivor must have finished every session.
    EXPECT_EQ(completed, sessions.size()) << "checkpoint " << cp;
    expect_exact_accounting(router, fleet_vfs);
  }
  EXPECT_EQ(killed_runs, total_checkpoints);
  EXPECT_GT(failovers, 0u);  // the sweep actually exercised failover
}

TEST(FleetFaults, WholeFleetDeathIsCountedNotSilent) {
  const auto sessions = record_sessions(2);

  // Probe run: how many frames does the first session stream? The kill is
  // placed near the end so sample batches are in flight when it fires.
  std::uint64_t frames = 0;
  {
    os::Vfs scratch;
    FleetConfig probe_config;
    probe_config.shards = 1;
    Router probe(scratch, probe_config);
    ASSERT_TRUE(probe
                    .ingest(sessions.begin()->second->vfs(),
                            sessions.begin()->first)
                    .completed);
    frames = probe.fleet_checkpoints();
  }
  ASSERT_GT(frames, 4u);

  os::Vfs fleet_vfs;
  support::FaultInjector fault;
  fault.schedule_kill(support::FaultComponent::kFleet, frames - 2);
  FleetConfig config;
  config.shards = 1;  // no successor to fail over to
  config.fault = &fault;
  Router router(fleet_vfs, config);

  auto it = sessions.begin();
  const SessionOutcome first = router.ingest(it->second->vfs(), it->first);
  ++it;
  const SessionOutcome second = router.ingest(it->second->vfs(), it->first);

  // First session: the only shard died under it — every record sent on the
  // terminal attempt is exact, counted dead loss.
  EXPECT_FALSE(first.completed);
  EXPECT_TRUE(first.lost_dead);
  EXPECT_GT(first.records_sent, 0u);
  EXPECT_EQ(router.ledger().lost_dead_records, first.records_sent);
  EXPECT_EQ(router.ledger().lost_dead_sessions, 1u);
  // Second session: nothing left to even try — refused, not acked.
  EXPECT_TRUE(second.refused);
  EXPECT_EQ(router.ledger().refused_sessions, 1u);
  EXPECT_EQ(router.ledger().acked_sessions, 1u);
  expect_exact_accounting(router, fleet_vfs);
}

// ISSUE 6 acceptance: two runs with the same seed and fault schedule are
// indistinguishable — identical fleet.retried.* counters, identical merged
// profiles, identical manifests.
TEST(FleetFaults, RetrySchedulesAreDeterministicUnderFixedSeed) {
  const auto sessions = record_sessions(2);

  struct RunResult {
    store::FleetLedger ledger;
    std::string top;
    std::string manifest;
  };
  const auto run = [&]() -> RunResult {
    os::Vfs fleet_vfs;
    support::FaultInjector fault(0xfa017);
    support::FaultRule rule;
    rule.path_prefix = "fleet/send/";
    rule.kind = support::FaultKind::kWriteError;
    rule.skip = 3;
    rule.count = 40;
    rule.probability = 0.5;  // seeded coin: deterministic, not trivial
    fault.add_rule(rule);
    FleetConfig config;
    config.shards = 2;
    config.seed = 0xd00d;
    config.retry.jitter = 0.25;  // jitter actually drawn from the rng
    config.fault = &fault;
    Router router(fleet_vfs, config);
    for (const auto& [id, scenario] : sessions) router.ingest(scenario->vfs(), id);
    RunResult result;
    result.ledger = router.ledger();
    result.top = Federator(router).query("top 20");
    result.manifest = *fleet_vfs.read(store::kFleetManifestPath);
    return result;
  };

  const RunResult a = run();
  const RunResult b = run();
  EXPECT_GT(a.ledger.retried_sends, 0u);  // the schedule was exercised
  EXPECT_EQ(a.ledger.retried_sends, b.ledger.retried_sends);
  EXPECT_EQ(a.ledger.retried_giveups, b.ledger.retried_giveups);
  EXPECT_EQ(a.ledger.circuit_opens, b.ledger.circuit_opens);
  EXPECT_EQ(a.ledger.acked_records, b.ledger.acked_records);
  EXPECT_EQ(a.ledger.stored_records, b.ledger.stored_records);
  EXPECT_EQ(a.ledger.lost_wire, b.ledger.lost_wire);
  EXPECT_EQ(a.top, b.top);
  EXPECT_EQ(a.manifest, b.manifest);
}

// The shelves are audited shard by shard, not only in sum: swapping two
// shards' counts in the manifest (crc redone) keeps the ledger balanced and
// every fleet-wide total intact, yet no partition holds its entry any more.
TEST(FleetFaults, SwappedShardCountsFailThePartitionAudit) {
  const auto sessions = record_sessions(4);
  os::Vfs fleet_vfs;
  FleetConfig config;
  config.shards = 2;
  Router router(fleet_vfs, config);
  for (const auto& [id, scenario] : sessions)
    ASSERT_TRUE(router.ingest(scenario->vfs(), id).completed);
  expect_exact_accounting(router, fleet_vfs);

  std::optional<store::FleetManifest> manifest =
      store::FleetManifest::parse(*fleet_vfs.read(store::kFleetManifestPath));
  ASSERT_TRUE(manifest.has_value());
  ASSERT_EQ(manifest->shards.size(), 2u);
  store::FleetShard& a = manifest->shards[0];
  store::FleetShard& b = manifest->shards[1];
  ASSERT_NE(a.records, b.records);
  std::swap(a.records, b.records);
  std::swap(a.sessions, b.sessions);
  fleet_vfs.write(store::kFleetManifestPath, manifest->serialize());

  const FleetFsckReport fsck = OfflineFleet::fsck(fleet_vfs);
  EXPECT_EQ(fsck.verdict, core::FsckVerdict::kUnrecoverable) << fsck.summary;
  EXPECT_TRUE(fsck.ledger_balanced) << fsck.summary;
  EXPECT_FALSE(fsck.stored_matches) << fsck.summary;
  EXPECT_NE(fsck.summary.find("partition audit MISMATCH"), std::string::npos)
      << fsck.summary;
}

// Every partition's records come back or are named. The store manifest
// never holds the active segment's counts, so when that file is deleted the
// store flags its loss unknown and the fleet audit reports the partition's
// whole shortfall as unaccounted — never an "(exact)" balance.
TEST(FleetFaults, DeletedActiveSegmentIsUnaccountedNotExact) {
  const auto sessions = record_sessions(3);
  os::Vfs fleet_vfs;
  FleetConfig config;
  config.shards = 2;
  Router router(fleet_vfs, config);
  for (const auto& [id, scenario] : sessions)
    ASSERT_TRUE(router.ingest(scenario->vfs(), id).completed);
  expect_exact_accounting(router, fleet_vfs);

  const std::optional<store::FleetManifest> manifest =
      store::FleetManifest::parse(*fleet_vfs.read(store::kFleetManifestPath));
  ASSERT_TRUE(manifest.has_value());
  const store::FleetShard* victim = nullptr;
  for (const store::FleetShard& shard : manifest->shards)
    if (shard.records > 0 && victim == nullptr) victim = &shard;
  ASSERT_NE(victim, nullptr);
  const std::optional<store::Manifest> store_manifest =
      store::Manifest::parse(*fleet_vfs.read(victim->root + "/MANIFEST"));
  ASSERT_TRUE(store_manifest.has_value());
  const std::string segment = "segments/seg-000001.vseg";
  const store::ManifestSegment* active = store_manifest->find(segment);
  ASSERT_NE(active, nullptr);
  ASSERT_FALSE(active->sealed);
  const std::string segment_path = victim->root + "/" + segment;
  ASSERT_TRUE(fleet_vfs.exists(segment_path));
  fleet_vfs.remove(segment_path);

  os::Vfs partition_vfs = fleet_vfs;
  store::StoreConfig store_config;
  store_config.root = victim->root;
  const store::StoreRecovery rec = store::ProfileStore(partition_vfs, store_config).fsck();
  EXPECT_EQ(rec.verdict, core::FsckVerdict::kSalvaged) << rec.summary;
  EXPECT_TRUE(rec.loss_unknown) << rec.summary;
  EXPECT_NE(rec.summary.find("+ unknown"), std::string::npos) << rec.summary;

  const FleetFsckReport fsck = OfflineFleet::fsck(fleet_vfs);
  EXPECT_EQ(fsck.verdict, core::FsckVerdict::kSalvaged) << fsck.summary;
  EXPECT_TRUE(fsck.ledger_balanced) << fsck.summary;
  EXPECT_EQ(fsck.unaccounted_records, victim->records) << fsck.summary;
  EXPECT_EQ(fsck.summary.find("(exact)"), std::string::npos) << fsck.summary;
  EXPECT_NE(fsck.summary.find(std::to_string(victim->records) +
                              " stored record(s) unaccounted"),
            std::string::npos)
      << fsck.summary;
}

// A store's MANIFEST sits where the fleet manifest would: that directory is
// the wrong layout, not a fleet whose manifest failed its crc.
TEST(FleetFaults, StoreDirectoryIsTheWrongLayoutNotACorruptFleet) {
  os::Vfs vfs;
  store::StoreConfig config;
  config.root = "";
  store::ProfileStore(vfs, config).open();
  ASSERT_TRUE(vfs.exists(store::kFleetManifestPath));
  const FleetFsckReport as_store = OfflineFleet::fsck(vfs);
  EXPECT_TRUE(as_store.wrong_layout) << as_store.summary;
  EXPECT_NE(as_store.summary.find("store manifest"), std::string::npos) << as_store.summary;

  vfs.write(store::kFleetManifestPath, "viprof-fleet-manifest v1\ngen 1\ncrc 00000000\n");
  const FleetFsckReport corrupt = OfflineFleet::fsck(vfs);
  EXPECT_FALSE(corrupt.wrong_layout) << corrupt.summary;
  EXPECT_EQ(corrupt.verdict, core::FsckVerdict::kUnrecoverable);
  EXPECT_EQ(corrupt.summary, "fleet: manifest corrupt (crc)");
}

}  // namespace
}  // namespace viprof::fleet
