#include "fleet/federator.hpp"

#include <map>
#include <optional>
#include <utility>
#include <variant>

#include "memprof/report.hpp"
#include "support/format.hpp"
#include "support/telemetry.hpp"
#include "support/traced_mutex.hpp"

namespace viprof::fleet {

namespace {

std::vector<store::ProfileStore::StoredSession> gather_sessions(
    const std::vector<store::ProfileStore*>& stores) {
  std::map<std::string, store::ProfileStore::StoredSession> by_id;
  for (store::ProfileStore* s : stores) {
    for (store::ProfileStore::StoredSession& ss : s->sessions()) {
      auto [it, fresh] = by_id.emplace(ss.session, ss);
      if (!fresh) {  // defensive: a session lives in exactly one partition
        it->second.intervals += ss.intervals;
        it->second.records += ss.records;
      }
    }
  }
  std::vector<store::ProfileStore::StoredSession> out;
  out.reserve(by_id.size());
  for (auto& [id, ss] : by_id) out.push_back(std::move(ss));
  return out;
}

/// Session `id`'s stored profile, or with `id` empty every session's: one
/// whole-store window per partition. The fold commutes, so no per-session
/// order is needed for the single-server bytes.
core::Profile gather_profile(const std::vector<store::ProfileStore*>& stores,
                             const std::string& id) {
  store::WindowSpec w;
  w.session = id;
  core::Profile out;
  for (store::ProfileStore* s : stores) out.merge(s->window_profile(w));
  return out;
}

std::string stored_sessions_table(const std::vector<store::ProfileStore*>& stores) {
  support::TextTable table({"Session", "Records", "Intervals"});
  for (const store::ProfileStore::StoredSession& ss : gather_sessions(stores))
    table.cell(ss.session).cell(ss.records).cell(ss.intervals).end_row();
  return table.render();
}

/// The answer to a `--session` or diff operand no partition holds, as
/// ProfileServer::query gives it. Looked up only when the session's fold
/// is empty, so a query over a known session pays nothing for it.
std::optional<std::string> unknown_session(const std::vector<store::ProfileStore*>& stores,
                                           const std::string& id, const core::Profile& fold) {
  if (id.empty() || fold.row_count() != 0) return std::nullopt;
  for (store::ProfileStore* s : stores)
    for (const store::ProfileStore::StoredSession& ss : s->sessions())
      if (ss.session == id) return std::nullopt;
  return "error: no such session: " + id + "\n";
}

/// top and diff: folds of the stored partitions, the same on both fleet
/// front ends.
std::string stored_answer(const std::vector<store::ProfileStore*>& stores,
                          const service::Query& q) {
  if (q.verb == service::QueryVerb::kTop) {
    const core::Profile profile = gather_profile(stores, q.session);
    if (auto error = unknown_session(stores, q.session, profile)) return *error;
    return profile.render(q.events(), q.top);
  }
  const core::Profile before = gather_profile(stores, q.before);
  const core::Profile after = gather_profile(stores, q.after);
  if (auto error = unknown_session(stores, q.before, before)) return *error;
  if (auto error = unknown_session(stores, q.after, after)) return *error;
  return core::render_diff(before, after, q.diff_event(), q.top);
}

/// (source, trace.json) pairs folded into one Chrome trace; empty or
/// unreadable traces are skipped. nullopt when none is left.
std::optional<std::string> merge_traces(
    const std::vector<std::pair<std::string, std::string>>& sources) {
  std::vector<std::pair<std::string, support::ChromeTrace>> inputs;
  for (const auto& [source, json] : sources)
    if (auto trace = support::parse_chrome_trace(json))
      inputs.emplace_back(source, std::move(*trace));
  if (inputs.empty()) return std::nullopt;
  return support::merge_chrome_traces(inputs);
}

}  // namespace

// ---------------------------------------------------------------- federator

std::vector<store::ProfileStore*> Federator::partitions() const {
  std::vector<store::ProfileStore*> out;
  for (const std::string& name : router_->shard_names())
    if (store::ProfileStore* s = router_->partition(name)) out.push_back(s);
  return out;
}

std::vector<store::ProfileStore::StoredSession> Federator::sessions() const {
  return gather_sessions(partitions());
}

std::string Federator::stats(bool as_json) const {
  support::publish_process_gauges(router_->telemetry());
  std::vector<std::pair<std::string, service::ProfileServer*>> alive;
  for (const std::string& name : router_->shard_names()) {
    service::ProfileServer* server = router_->server(name);
    if (server == nullptr || !router_->alive(name)) continue;
    server->publish_gauges();
    alive.emplace_back(name, server);
  }
  if (as_json) {
    std::string out = "{\"fleet\":" + router_->telemetry().snapshot().to_json();
    out += ",\"shards\":{";
    bool first = true;
    for (const auto& [name, server] : alive) {
      if (!first) out += ",";
      first = false;
      out += "\"" + name + "\":" + server->telemetry().snapshot().to_json();
    }
    out += "}}";
    return out;
  }
  std::string out = "== fleet ==\n" + router_->telemetry().snapshot().render_text();
  for (const auto& [name, server] : alive)
    out += "== " + name + " ==\n" + server->telemetry().snapshot().render_text();
  return out;
}

std::string Federator::merged_trace() const {
  std::vector<std::pair<std::string, std::string>> sources = {
      {"fleet", router_->telemetry().spans().to_chrome_json(1000.0)}};
  for (const std::string& name : router_->shard_names()) {
    service::ProfileServer* server = router_->server(name);
    if (server != nullptr && router_->alive(name))
      sources.emplace_back(name, server->telemetry().spans().to_chrome_json(1000.0));
  }
  return merge_traces(sources).value_or(support::merge_chrome_traces({}));
}

std::string Federator::answer(std::string_view text) const {
  const auto parsed = service::parse_query(text);
  if (const auto* error = std::get_if<service::QueryError>(&parsed))
    return error->message();
  const service::Query& q = std::get<service::Query>(parsed);
  switch (q.verb) {
    case service::QueryVerb::kSessions: {
      // Live stats from every alive shard (sessions on dead shards died
      // with the process; their profiles did not — see sessions()), keyed
      // by id: the map re-sorts into a single server's row order.
      std::map<std::string, service::SessionStats> rows;
      for (const std::string& name : router_->shard_names()) {
        service::ProfileServer* server = router_->server(name);
        if (server == nullptr || !router_->alive(name)) continue;
        for (const auto& [id, st] : server->session_stats()) rows[id] = st;
      }
      return service::render_session_stats(rows);
    }
    case service::QueryVerb::kTop:
    case service::QueryVerb::kDiff: return stored_answer(partitions(), q);
    case service::QueryVerb::kMemprof: {
      // Allocation sites need the shards' live session worlds (object maps
      // are session files, not stored rows); the fold commutes, so the
      // shard order never shows in the bytes.
      memprof::SiteTable sites;
      core::Profile merged;
      bool matched = false;
      for (const std::string& name : router_->shard_names())
        if (service::ProfileServer* server = router_->server(name))
          matched |= server->fold_memprof(q.session, sites, merged);
      if (!q.session.empty() && !matched)
        return "error: no such session: " + q.session + "\n";
      return memprof::render_memprof(sites, merged, q.top);
    }
    case service::QueryVerb::kStats: return stats(q.json);
    case service::QueryVerb::kTrace: return merged_trace();
    case service::QueryVerb::kSinceEpoch:
    case service::QueryVerb::kArcs:
    case service::QueryVerb::kSnapshot:
    case service::QueryVerb::kBatch: break;
  }
  return service::unserved_query(text);
}

std::string Federator::query(std::string_view text) const {
  const std::uint64_t t0 = support::monotonic_ns();
  std::string out = answer(text);
  router_->telemetry().spans().record("fleet.query", "fleet", t0,
                                      support::monotonic_ns());
  return out;
}

// ------------------------------------------------------------ offline fleet

std::optional<OfflineFleet> OfflineFleet::open(os::Vfs& fleet) {
  const std::optional<std::string> bytes = fleet.read(store::kFleetManifestPath);
  if (!bytes) return std::nullopt;
  std::optional<store::FleetManifest> manifest = store::FleetManifest::parse(*bytes);
  if (!manifest) return std::nullopt;
  OfflineFleet out;
  out.manifest_ = std::move(*manifest);
  const auto load_telemetry = [&](const std::string& source,
                                  const std::string& dir) {
    ExportedTelemetry t;
    t.source = source;
    t.metrics_json = fleet.read(dir + "/metrics.json").value_or("");
    t.trace_json = fleet.read(dir + "/trace.json").value_or("");
    if (!t.metrics_json.empty() || !t.trace_json.empty())
      out.telemetry_.push_back(std::move(t));
  };
  load_telemetry("fleet", "fleet");
  for (const store::FleetShard& shard : out.manifest_.shards) {
    store::StoreConfig sc;
    sc.root = shard.root;
    auto st = std::make_unique<store::ProfileStore>(fleet, sc);
    out.recoveries_.push_back(st->open());  // salvages what the partition holds
    out.stores_.push_back(std::move(st));
    load_telemetry(shard.name, shard.name);
  }
  return out;
}

FleetFsckReport OfflineFleet::fsck(const os::Vfs& fleet) {
  FleetFsckReport report;
  os::Vfs scratch = fleet;
  const std::optional<OfflineFleet> opened = open(scratch);
  if (!opened) {
    report.verdict = core::FsckVerdict::kUnrecoverable;
    const std::optional<std::string> bytes = fleet.read(store::kFleetManifestPath);
    report.wrong_layout = bytes && store::Manifest::parse(*bytes).has_value();
    if (report.wrong_layout)
      report.summary = "fleet: wrong layout: MANIFEST is a store manifest";
    else
      report.summary = bytes ? "fleet: manifest corrupt (crc)" : "fleet: no manifest";
    return report;
  }
  report.ledger = opened->manifest_.ledger;
  const auto worsen = [&](core::FsckVerdict v) {
    if (static_cast<int>(v) > static_cast<int>(report.verdict)) report.verdict = v;
  };

  std::size_t by_verdict[3] = {};  // partitions per FsckVerdict
  std::uint64_t stored_audit = 0;  // Σ partitions' per-session record counts
  bool shards_match = true;
  for (std::size_t i = 0; i < opened->stores_.size(); ++i) {
    const store::FleetShard& shard = opened->manifest_.shards[i];
    const core::FsckVerdict v = opened->recoveries_[i].verdict;
    ++by_verdict[static_cast<int>(v)];
    worsen(v);
    const auto held = opened->stores_[i]->sessions();
    std::uint64_t records = 0;
    for (const store::ProfileStore::StoredSession& ss : held) records += ss.records;
    stored_audit += records;
    const bool match = v == core::FsckVerdict::kClean
                           ? records == shard.records && held.size() == shard.sessions
                           : records <= shard.records && held.size() <= shard.sessions;
    shards_match = shards_match && match;
    report.details += shard.name + ": " + core::to_string(v) + ", " +
                      std::to_string(records) + " records (manifest says " +
                      std::to_string(shard.records) + ")";
    if (match && records < shard.records) {
      report.unaccounted_records += shard.records - records;
      report.details += ", " + std::to_string(shard.records - records) +
                        " record(s) unaccounted";
    }
    if (!match)
      report.details += ", MISMATCH: " + std::to_string(held.size()) +
                        " sessions (manifest says " + std::to_string(shard.sessions) + ")";
    report.details += '\n';
  }

  report.ledger_balanced = report.ledger.balanced();
  // Fleet-wide, the shelves may come in below the books only once recovery
  // salvaged rows away; the shortfall is reported as unaccounted above.
  const bool damaged = report.verdict != core::FsckVerdict::kClean;
  report.stored_matches =
      shards_match && (report.ledger.stored_records == stored_audit ||
                       (damaged && report.ledger.stored_records > stored_audit));
  if (!report.ledger_balanced || !report.stored_matches)
    worsen(core::FsckVerdict::kUnrecoverable);

  std::string balance = " (exact)";
  if (!report.ledger_balanced)
    balance = " (IMBALANCED)";
  else if (report.unaccounted_records > 0)
    balance = ", " + std::to_string(report.unaccounted_records) +
              " stored record(s) unaccounted";
  report.summary =
      "fleet: " + std::string(core::to_string(report.verdict)) + ", " +
      std::to_string(opened->stores_.size()) + " partitions (" +
      std::to_string(by_verdict[0]) + " clean, " + std::to_string(by_verdict[1]) +
      " salvaged, " + std::to_string(by_verdict[2]) + " unrecoverable), acked " +
      std::to_string(report.ledger.acked_records) + " == stored " +
      std::to_string(report.ledger.stored_records) + " + lost " +
      std::to_string(report.ledger.lost_wire + report.ledger.lost_queue +
                     report.ledger.lost_dead_records) +
      balance + (report.stored_matches ? "" : ", partition audit MISMATCH");
  return report;
}

std::vector<store::ProfileStore*> OfflineFleet::partitions() const {
  std::vector<store::ProfileStore*> out;
  out.reserve(stores_.size());
  for (const auto& s : stores_) out.push_back(s.get());
  return out;
}

std::vector<store::ProfileStore::StoredSession> OfflineFleet::sessions() const {
  return gather_sessions(partitions());
}

std::string OfflineFleet::stats(bool as_json) const {
  // Offline stats are the exported JSON snapshots verbatim — sectioned
  // for the eye, or one object keyed by source for machines.
  std::string json = "{", sections;
  for (const ExportedTelemetry& t : telemetry_) {
    if (t.metrics_json.empty()) continue;
    if (!sections.empty()) json += ",";
    json += "\"" + t.source + "\":" + t.metrics_json;
    sections += "== " + t.source + " ==\n" + t.metrics_json + "\n";
  }
  json += "}";
  if (sections.empty())
    return "error: no telemetry exported (run viprof_fleet serve first)\n";
  return as_json ? json : sections;
}

std::string OfflineFleet::merged_trace() const {
  std::vector<std::pair<std::string, std::string>> sources;
  for (const ExportedTelemetry& t : telemetry_) sources.emplace_back(t.source, t.trace_json);
  return merge_traces(sources).value_or(
      "error: no telemetry exported (run viprof_fleet serve first)\n");
}

std::string OfflineFleet::query(std::string_view text) const {
  const auto parsed = service::parse_query(text);
  if (const auto* error = std::get_if<service::QueryError>(&parsed))
    return error->message();
  const service::Query& q = std::get<service::Query>(parsed);
  switch (q.verb) {
    case service::QueryVerb::kSessions: return stored_sessions_table(partitions());
    case service::QueryVerb::kTop:
    case service::QueryVerb::kDiff: return stored_answer(partitions(), q);
    case service::QueryVerb::kStats: return stats(q.json);
    case service::QueryVerb::kTrace: return merged_trace();
    case service::QueryVerb::kSinceEpoch:
    case service::QueryVerb::kArcs:
    case service::QueryVerb::kMemprof:
    case service::QueryVerb::kSnapshot:
    case service::QueryVerb::kBatch: break;
  }
  return service::unserved_query(text);
}

}  // namespace viprof::fleet
