// Scatter-gather federated queries over the fleet (DESIGN.md §12).
//
// Every completed session lives in exactly one shard partition (the router
// flushes at terminal success only), so a federated answer is a fold over
// partitions: merge each partition's stored profile and render. Merges
// commute and every table ranks in one canonical order, so the federated
// report is byte-identical to a single-server run over the same sessions,
// whether a shard's process is alive, circuit-broken, or dead with its
// partition re-opened through recovery.
//
// Federator answers over a live Router; OfflineFleet answers over an
// exported fleet directory (manifest + partitions), the shape
// `viprof_fleet query` and `viprof_query --fleet` consume.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "fleet/router.hpp"
#include "store/manifest.hpp"
#include "store/profile_store.hpp"

namespace viprof::fleet {

class Federator {
 public:
  explicit Federator(Router& router) : router_(&router) {}

  /// All stored sessions fleet-wide, ascending id.
  std::vector<store::ProfileStore::StoredSession> sessions() const;

  /// One session's stored profile, from whichever partition holds it.
  core::Profile session_profile(const std::string& id) const;

  /// Fold of every stored session — the single server "top" answer.
  core::Profile merged_profile() const;

  std::string render_top(const std::vector<hw::EventKind>& events,
                         std::size_t top_n) const;

  /// Live sessions table gathered from every alive shard, rows in
  /// ascending id order — column-identical to ProfileServer's "sessions"
  /// query. Sessions on dead shards are absent (their stats died with the
  /// process; their profiles did not — see sessions()).
  std::string sessions_table() const;

  /// Regression ranking between two sessions' stored profiles
  /// (core::render_diff — e.g. yesterday's canary session vs today's).
  std::string render_diff(const std::string& before_session,
                          const std::string& after_session, hw::EventKind event,
                          std::size_t top_n) const;

  /// Scatter-gather of live telemetry: the router's own registry plus
  /// every alive shard server's, one section per source (text) or one
  /// combined {"fleet":…,"shards":{…}} object (json). Dead shards are
  /// absent — their registries died with the process; their contention
  /// history survives only in exported metrics.json files.
  std::string stats(bool as_json) const;

  /// Every live span ring — the router's ("fleet", pid 1) and each alive
  /// shard server's — folded into one Chrome trace via
  /// support::merge_chrome_traces (shard = pid, worker thread = tid).
  std::string merged_trace() const;

  /// Query-string front end, mirroring ProfileServer::query:
  ///   sessions
  ///   top N [--event time|dmiss] [--session S]
  ///   diff BEFORE AFTER [--event E] [--top N]
  ///   stats [--json]
  ///   trace
  std::string query(const std::string& text) const;

 private:
  std::vector<store::ProfileStore*> partitions() const;

  Router* router_;
};

/// A fleet namespace opened read-only from its files: the crc-guarded
/// manifest plus one recovered ProfileStore per shard partition.
class OfflineFleet {
 public:
  /// nullopt when the manifest is missing or fails its crc — an offline
  /// fleet is all-or-nothing, like the store manifest it imitates.
  static std::optional<OfflineFleet> open(os::Vfs& fleet);

  const store::FleetManifest& manifest() const { return manifest_; }

  std::vector<store::ProfileStore::StoredSession> sessions() const;
  core::Profile session_profile(const std::string& id) const;
  core::Profile merged_profile() const;
  std::string render_top(const std::vector<hw::EventKind>& events,
                         std::size_t top_n) const;
  std::string render_diff(const std::string& before_session,
                          const std::string& after_session, hw::EventKind event,
                          std::size_t top_n) const;
  /// Same verbs as Federator::query; "sessions" renders the
  /// stored-session inventory (no live stats offline), while "stats" and
  /// "trace" answer from the telemetry files Router::export_telemetry
  /// published (and are errors when none were exported).
  std::string query(const std::string& text) const;

 private:
  OfflineFleet() = default;

  std::vector<store::ProfileStore*> partitions() const;

  store::FleetManifest manifest_;
  std::vector<std::unique_ptr<store::ProfileStore>> stores_;
  /// Exported telemetry, when present: (source, metrics json, trace json),
  /// "fleet" first then shards in manifest order. Missing files load as
  /// empty strings and are skipped at query time.
  struct ExportedTelemetry {
    std::string source;
    std::string metrics_json;
    std::string trace_json;
  };
  std::vector<ExportedTelemetry> telemetry_;
};

}  // namespace viprof::fleet
