// The fleet router: sharded session ingest with failover and exact
// degradation accounting (DESIGN.md §12).
//
// N ProfileServer shards sit behind a consistent-hash ring; each shard
// flushes completed sessions into its own ProfileStore partition inside
// one shared fleet Vfs (`<shard>/store`), and the router publishes a
// crc-guarded fleet manifest after every terminal session. Sessions are
// streamed one at a time (the shard-internal ThreadPool still ingests
// concurrently, and the router's drain runs queued batches beside it;
// commutative merges keep the result byte-identical at any width), which
// makes the failure path fully deterministic: the Backoff jitter draws,
// the fleet kill checkpoints, and therefore the fleet.retried.* counters
// replay exactly from the seed.
//
// Failure model, in escalation order:
//   - transient send fault ("fleet/send/<shard>" FaultInjector path):
//     retried through support::Backoff; on exhaustion the frame is dropped
//     and its records surface as fleet.lost.wire — counted, never silent.
//   - circuit break: `circuit_break_after` consecutive give-ups mark the
//     shard unroutable; the partial session is discarded on the (still
//     alive) shard and re-streamed from scratch to the ring successor.
//   - process death (FaultComponent::kFleet, one checkpoint per frame
//     routed): the shard's server object is destroyed and its partition
//     re-opened through store recovery — completed sessions survive on
//     disk, the in-flight one fails over.
// A session only ever reaches a partition on its *terminal* attempt, so
// failover can never double-count: acked == stored + lost, exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/ring.hpp"
#include "os/vfs.hpp"
#include "service/server.hpp"
#include "store/manifest.hpp"
#include "store/profile_store.hpp"
#include "support/backoff.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"

namespace viprof::fleet {

struct FleetConfig {
  /// Initial shard count; shards are named "shard-0" .. "shard-<N-1>".
  std::size_t shards = 3;
  std::size_t vnodes = 16;
  /// Per-shard server template. Its `fault` drives the existing wire/queue
  /// fault points inside each shard; the fleet-level `fault` below drives
  /// the send-retry and kill checkpoints. Tests usually point both at the
  /// same injector.
  service::ServerConfig server;
  /// Sample lines per streamed batch (ReplayOptions::batch_records).
  std::size_t batch_records = 256;
  /// Retry policy for transient send faults.
  support::BackoffConfig retry{/*initial=*/1'000, /*multiplier=*/2.0,
                               /*cap=*/16'000, /*jitter=*/0.25,
                               /*max_attempts=*/3, /*budget=*/0};
  /// Consecutive frame give-ups that open a shard's circuit.
  std::size_t circuit_break_after = 3;
  /// Seeds the router's Xoshiro256 (Backoff jitter): the whole retry
  /// schedule replays from this.
  std::uint64_t seed = 0xf1ee7;
  /// Fleet-level fault points: "fleet/send/<shard>" transient errors and
  /// FaultComponent::kFleet kill checkpoints. nullptr = no faults.
  support::FaultInjector* fault = nullptr;
};

/// What happened to one routed session — the per-session slice of the
/// fleet ledger (see store::FleetLedger for the invariant).
struct SessionOutcome {
  std::string session;
  std::string shard;  // terminal shard; "" when refused
  bool completed = false;
  bool refused = false;    // never attempted: no routable shard
  bool lost_dead = false;  // terminal attempt died with no live successor
  std::size_t attempts = 0;
  std::uint64_t records_sent = 0;  // terminal attempt only
  std::uint64_t records_stored = 0;
  std::uint64_t records_lost_wire = 0;
  std::uint64_t records_lost_queue = 0;
};

class Router {
 public:
  /// `fleet_vfs` is the fleet's persistent namespace: every shard's
  /// partition plus the fleet manifest live in it.
  Router(os::Vfs& fleet_vfs, const FleetConfig& config = {});
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Streams one recorded session (client.hpp world layout) to its ring
  /// owner, failing over along the preference list as shards die. On the
  /// terminal attempt the session is drained and flushed to the shard's
  /// partition, the ledger is settled, and the fleet manifest republished.
  SessionOutcome ingest(const os::Vfs& world, const std::string& session_id);

  /// Shard join: fresh server + partition, ring rebalance. False when the
  /// name is taken.
  bool add_shard(const std::string& name);

  /// Shard leave: quiesces (drain + flush residual deltas), removes the
  /// shard from the ring so no further session routes to it. Its partition
  /// stays live for federated queries. False when unknown.
  bool remove_shard(const std::string& name);

  /// All shards ever created, in creation order (dead and departed ones
  /// included — their partitions still answer queries).
  std::vector<std::string> shard_names() const;

  /// Live server, or nullptr once the shard process died.
  service::ProfileServer* server(const std::string& name);
  /// Partition store; survives the shard process (re-opened on kill).
  store::ProfileStore* partition(const std::string& name);
  bool alive(const std::string& name) const;
  bool routable(const std::string& name) const;

  /// Publishes the fleet's live telemetry into the fleet Vfs:
  /// `<shard>/metrics.json` + `<shard>/trace.json` for every shard whose
  /// process is alive (the shard server's registry and span ring), and
  /// `fleet/metrics.json` + `fleet/trace.json` for the router's own. Each
  /// file is written temp + rename, same discipline as the manifests, and
  /// fleet fsck ignores them. `viprof_stat trace-merge` folds the trace
  /// files into one fleet-wide Chrome trace; OfflineFleet serves them to
  /// `viprof_fleet query "stats|trace"`. Returns files written.
  std::size_t export_telemetry();

  const store::FleetLedger& ledger() const { return ledger_; }
  /// Current manifest view (same content as the published MANIFEST file).
  store::FleetManifest manifest() const;
  /// Fleet kill checkpoints consumed so far (one per frame routed toward a
  /// shard) — the kill-sweep tests enumerate this.
  std::uint64_t fleet_checkpoints() const { return checkpoints_; }

  support::Telemetry& telemetry() { return telemetry_; }
  const FleetConfig& config() const { return config_; }
  const Ring& ring() const { return ring_; }

 private:
  friend class RetryTransport;

  struct Shard {
    std::string name;
    bool alive = true;       // process alive; false once kFleet killed it
    bool routable = true;    // false once the circuit opened
    bool pending_reopen = false;  // killed mid-attempt; reopen deferred
    std::size_t consecutive_failures = 0;
    std::uint64_t flush_tick = 0;  // store tick cursor (one per session)
    std::uint64_t stored_sessions = 0;
    std::uint64_t stored_records = 0;
    std::unique_ptr<service::ProfileServer> server;
    std::unique_ptr<store::ProfileStore> store;
  };

  Shard* find(const std::string& name);
  const Shard* find(const std::string& name) const;
  Shard& create_shard(const std::string& name);
  /// Destroys the dead shard's server and re-opens its partition through
  /// store recovery. Deferred until the aborted attempt has unwound (the
  /// connection must not outlive its server).
  void finish_kill(Shard& shard);
  void bump(const char* counter, std::uint64_t n = 1);
  void publish_manifest();

  os::Vfs& vfs_;
  FleetConfig config_;
  Ring ring_;
  support::Xoshiro256 rng_;
  support::Telemetry telemetry_;
  std::vector<std::unique_ptr<Shard>> shards_;  // creation order
  store::FleetLedger ledger_;
  std::uint64_t generation_ = 0;
  std::uint64_t checkpoints_ = 0;
};

}  // namespace viprof::fleet
