#include "fleet/federator.hpp"

#include <functional>
#include <map>
#include <sstream>
#include <utility>

#include "hw/event.hpp"
#include "memprof/report.hpp"
#include "support/format.hpp"
#include "support/interner.hpp"
#include "support/traced_mutex.hpp"

namespace viprof::fleet {

namespace {

/// The canonical report events (what viprof_report prints).
const std::vector<hw::EventKind> kReportEvents = {hw::EventKind::kGlobalPowerEvents,
                                                  hw::EventKind::kBsqCacheReference};

std::optional<hw::EventKind> event_from(const std::string& name) {
  for (hw::EventKind e : hw::kAllEventKinds)
    if (name == hw::to_string(e)) return e;
  if (name == "time") return hw::EventKind::kGlobalPowerEvents;
  if (name == "dmiss") return hw::EventKind::kBsqCacheReference;
  return std::nullopt;
}

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

core::Profile gather_profile(const std::vector<store::ProfileStore*>& stores,
                             const std::string& id) {
  store::WindowSpec w;
  w.session = id;
  core::Profile out;
  for (store::ProfileStore* s : stores) out.merge(s->window_profile(w));
  return out;
}

core::Profile gather_merged(const std::vector<store::ProfileStore*>& stores) {
  // One whole-store window per partition: the fold commutes, so no
  // per-session order is needed for the single-server bytes.
  core::Profile out;
  for (store::ProfileStore* s : stores) out.merge(s->window_profile(store::WindowSpec{}));
  return out;
}

std::string stored_sessions_table(const std::vector<store::ProfileStore*>& stores) {
  support::TextTable table({"Session", "Records", "Intervals"});
  for (const store::ProfileStore::StoredSession& ss : gather_sessions(stores))
    table.cell(ss.session).cell(ss.records).cell(ss.intervals).end_row();
  return table.render();
}

/// Shared "top"/"diff" verb handling; `sessions_table` builds the
/// caller-specific "sessions" answer, only when that verb is asked.
std::string dispatch_query(const std::vector<store::ProfileStore*>& stores,
                           const std::string& text,
                           const std::function<std::string()>& sessions_table) {
  std::istringstream in(text);
  std::string verb;
  in >> verb;
  if (verb == "sessions") return sessions_table();
  if (verb == "top") {
    std::size_t top = 20;
    in >> top;
    std::string session_id, event_name, word;
    while (in >> word) {
      if (word == "--session") in >> session_id;
      else if (word == "--event") in >> event_name;
      else if (word == "--top") in >> top;
    }
    std::vector<hw::EventKind> events = kReportEvents;
    if (!event_name.empty()) {
      const auto e = event_from(event_name);
      if (!e) return "error: unknown event: " + event_name + "\n";
      events = {*e};
    }
    const core::Profile merged = session_id.empty()
                                     ? gather_merged(stores)
                                     : gather_profile(stores, session_id);
    return merged.render(events, top);
  }
  if (verb == "diff") {
    std::string before, after;
    in >> before >> after;
    if (before.empty() || after.empty())
      return "error: diff needs two session ids\n";
    std::size_t top = 20;
    hw::EventKind event = hw::EventKind::kGlobalPowerEvents;
    std::string word;
    while (in >> word) {
      if (word == "--top") in >> top;
      else if (word == "--event") {
        std::string event_name;
        in >> event_name;
        const auto e = event_from(event_name);
        if (!e) return "error: unknown event: " + event_name + "\n";
        event = *e;
      }
    }
    return core::render_diff(gather_profile(stores, before),
                             gather_profile(stores, after), event, top);
  }
  return "error: unknown query: " + text + "\n";
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

core::Profile Federator::session_profile(const std::string& id) const {
  return gather_profile(partitions(), id);
}

core::Profile Federator::merged_profile() const {
  return gather_merged(partitions());
}

std::string Federator::render_top(const std::vector<hw::EventKind>& events,
                                  std::size_t top_n) const {
  return merged_profile().render(events, top_n);
}

std::string Federator::sessions_table() const {
  // Scatter to every live shard, gather rows keyed by session id: the map
  // re-sorts into the exact row order a single server's session map walks.
  std::map<std::string, service::SessionStats> rows;
  for (const std::string& name : router_->shard_names()) {
    if (!router_->alive(name)) continue;
    service::ProfileServer* server = router_->server(name);
    if (server == nullptr) continue;
    for (const std::string& id : server->session_ids()) {
      const std::shared_ptr<service::ServerSession> s = server->session(id);
      if (!s) continue;
      rows[id] = s->stats();
    }
  }
  support::TextTable table = service::session_stats_table();
  for (const auto& [id, st] : rows) service::add_session_row(table, id, st);
  return table.render();
}

std::string Federator::render_diff(const std::string& before_session,
                                   const std::string& after_session,
                                   hw::EventKind event, std::size_t top_n) const {
  return core::render_diff(session_profile(before_session),
                           session_profile(after_session), event, top_n);
}

std::string Federator::stats(bool as_json) const {
  support::publish_interner_gauges(router_->telemetry());
  if (as_json) {
    std::string out = "{\"fleet\":" + router_->telemetry().snapshot().to_json();
    out += ",\"shards\":{";
    bool first = true;
    for (const std::string& name : router_->shard_names()) {
      service::ProfileServer* server = router_->server(name);
      if (server == nullptr || !router_->alive(name)) continue;
      if (!first) out += ",";
      first = false;
      out += "\"" + name + "\":" + server->telemetry().snapshot().to_json();
    }
    out += "}}";
    return out;
  }
  std::ostringstream out;
  out << "== fleet ==\n" << router_->telemetry().snapshot().render_text();
  for (const std::string& name : router_->shard_names()) {
    service::ProfileServer* server = router_->server(name);
    if (server == nullptr || !router_->alive(name)) continue;
    out << "== " << name << " ==\n" << server->telemetry().snapshot().render_text();
  }
  return out.str();
}

std::string Federator::merged_trace() const {
  std::vector<std::pair<std::string, support::ChromeTrace>> inputs;
  if (auto t = support::parse_chrome_trace(
          router_->telemetry().spans().to_chrome_json(1000.0)))
    inputs.emplace_back("fleet", std::move(*t));
  for (const std::string& name : router_->shard_names()) {
    service::ProfileServer* server = router_->server(name);
    if (server == nullptr || !router_->alive(name)) continue;
    if (auto t = support::parse_chrome_trace(
            server->telemetry().spans().to_chrome_json(1000.0)))
      inputs.emplace_back(name, std::move(*t));
  }
  return support::merge_chrome_traces(inputs);
}

std::string Federator::query(const std::string& text) const {
  const std::uint64_t t0 = support::monotonic_ns();
  std::istringstream in(text);
  std::string verb;
  in >> verb;
  std::string out;
  if (verb == "stats") {
    std::string word;
    bool as_json = false;
    while (in >> word)
      if (word == "--json") as_json = true;
    out = stats(as_json);
  } else if (verb == "trace") {
    out = merged_trace();
  } else if (verb == "memprof") {
    // Allocation-site tables need the shards' live session worlds (object
    // maps are session files, not stored profile rows), so this verb
    // gathers from alive servers; the merge commutes, so the shard order
    // never shows in the bytes.
    std::size_t top = 20;
    in >> top;
    std::string word;
    while (in >> word)
      if (word == "--top") in >> top;
    memprof::SiteTable sites;
    core::Profile merged;
    for (const std::string& name : router_->shard_names()) {
      service::ProfileServer* server = router_->server(name);
      if (server == nullptr) continue;
      for (const std::string& id : server->session_ids()) {
        const std::shared_ptr<service::ServerSession> s = server->session(id);
        if (!s) continue;
        s->fold_object_sites(sites);
        merged.merge(s->merged_profile());
      }
    }
    out = memprof::render_memprof(sites, merged, top);
  } else {
    out = dispatch_query(partitions(), text, [this] { return sessions_table(); });
  }
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
    st->open();  // recovery: salvages whatever the partition holds
    out.stores_.push_back(std::move(st));
    load_telemetry(shard.name, shard.name);
  }
  return out;
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

core::Profile OfflineFleet::session_profile(const std::string& id) const {
  return gather_profile(partitions(), id);
}

core::Profile OfflineFleet::merged_profile() const {
  return gather_merged(partitions());
}

std::string OfflineFleet::render_top(const std::vector<hw::EventKind>& events,
                                     std::size_t top_n) const {
  return merged_profile().render(events, top_n);
}

std::string OfflineFleet::render_diff(const std::string& before_session,
                                      const std::string& after_session,
                                      hw::EventKind event,
                                      std::size_t top_n) const {
  return core::render_diff(session_profile(before_session),
                           session_profile(after_session), event, top_n);
}

std::string OfflineFleet::query(const std::string& text) const {
  std::istringstream in(text);
  std::string verb;
  in >> verb;
  if (verb == "stats") {
    std::string word;
    bool as_json = false;
    while (in >> word)
      if (word == "--json") as_json = true;
    bool any = false;
    std::string json = "{";
    std::ostringstream sections;
    for (const ExportedTelemetry& t : telemetry_) {
      if (t.metrics_json.empty()) continue;
      if (any) json += ",";
      any = true;
      json += "\"" + t.source + "\":" + t.metrics_json;
      sections << "== " << t.source << " ==\n" << t.metrics_json << "\n";
    }
    json += "}";
    if (!any) return "error: no telemetry exported (run viprof_fleet serve first)\n";
    // Offline stats are the exported JSON snapshots verbatim — sectioned
    // for the eye, or one object keyed by source for machines.
    return as_json ? json : sections.str();
  }
  if (verb == "trace") {
    std::vector<std::pair<std::string, support::ChromeTrace>> inputs;
    for (const ExportedTelemetry& t : telemetry_) {
      if (t.trace_json.empty()) continue;
      if (auto parsed = support::parse_chrome_trace(t.trace_json))
        inputs.emplace_back(t.source, std::move(*parsed));
    }
    if (inputs.empty())
      return "error: no telemetry exported (run viprof_fleet serve first)\n";
    return support::merge_chrome_traces(inputs);
  }
  const std::vector<store::ProfileStore*> stores = partitions();
  return dispatch_query(stores, text, [&stores] { return stored_sessions_table(stores); });
}

}  // namespace viprof::fleet
