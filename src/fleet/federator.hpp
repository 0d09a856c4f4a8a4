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
// `viprof_fleet query` consumes. OfflineFleet is
// also the fleet's one integrity audit (`viprof_fleet fsck`): the manifest
// has no other reader.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/fsck.hpp"
#include "core/report.hpp"
#include "fleet/router.hpp"
#include "service/query.hpp"
#include "store/manifest.hpp"
#include "store/profile_store.hpp"

namespace viprof::fleet {

class Federator {
 public:
  explicit Federator(Router& router) : router_(&router) {}

  /// All stored sessions fleet-wide, ascending id.
  std::vector<store::ProfileStore::StoredSession> sessions() const;

  /// Serves sessions, top, diff, memprof, stats and trace of the query
  /// grammar (DESIGN.md §10). top and diff fold the stored partitions;
  /// sessions, memprof, stats and trace gather from the alive shards.
  std::string query(std::string_view text) const;

 private:
  std::string answer(std::string_view text) const;
  std::vector<store::ProfileStore*> partitions() const;

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

  Router* router_;
};

/// The fleet audit: the books (the manifest's ledger must balance,
/// acked == stored + lost.*) against the shelves (what each partition holds
/// against its manifest entry). A partition that recovery found clean must
/// hold exactly its entry's sessions and records; a damaged one may only
/// fall below it. Partition damage degrades the verdict to at least
/// kSalvaged (store recovery counts the loss exactly); a missing or corrupt
/// manifest, an unopenable partition, or books and shelves that disagree is
/// kUnrecoverable. The verdict doubles as the exit code (core::FsckVerdict).
struct FleetFsckReport {
  core::FsckVerdict verdict = core::FsckVerdict::kClean;
  /// The namespace is not a fleet at all (a store's MANIFEST sits where the
  /// fleet manifest would): a usage error, not a verdict.
  bool wrong_layout = false;
  store::FleetLedger ledger;     // as recorded by the manifest
  bool ledger_balanced = false;  // acked == stored + lost.*
  bool stored_matches = false;   // every partition agrees with its entry and the ledger
  /// Records the manifest placed in partitions that recovery did not bring
  /// back. Store recovery counts its loss in intervals and rows, never in
  /// records, so no counted bin holds them.
  std::uint64_t unaccounted_records = 0;
  std::string summary;  // one line
  std::string details;  // per-partition findings
};

/// A fleet namespace opened read-only from its files: the crc-guarded
/// manifest plus one recovered ProfileStore per shard partition.
class OfflineFleet {
 public:
  /// nullopt when the manifest is missing or fails its crc — an offline
  /// fleet is all-or-nothing, like the store manifest it imitates.
  static std::optional<OfflineFleet> open(os::Vfs& fleet);

  /// Opens a private copy of `fleet` (recovery rewrites damaged segments)
  /// and audits it, so it is safe on a live namespace or an export alike.
  static FleetFsckReport fsck(const os::Vfs& fleet);

  const store::FleetManifest& manifest() const { return manifest_; }

  std::vector<store::ProfileStore::StoredSession> sessions() const;

  /// Serves sessions, top, diff, stats and trace (DESIGN.md §10): top and
  /// diff answer as Federator::query does; "sessions" renders the
  /// stored-session inventory (no live stats offline), while "stats" and
  /// "trace" answer from the telemetry files Router::export_telemetry
  /// published (and are errors when none were exported).
  std::string query(std::string_view text) const;

 private:
  OfflineFleet() = default;

  std::vector<store::ProfileStore*> partitions() const;
  std::string stats(bool as_json) const;
  std::string merged_trace() const;

  store::FleetManifest manifest_;
  /// One per manifest shard, in manifest order.
  std::vector<std::unique_ptr<store::ProfileStore>> stores_;
  std::vector<store::StoreRecovery> recoveries_;
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
