#include "fleet/router.hpp"

#include <utility>

#include "service/client.hpp"
#include "support/check.hpp"
#include "support/telemetry.hpp"
#include "support/traced_mutex.hpp"

namespace viprof::fleet {

namespace {
constexpr const char* kSendPathPrefix = "fleet/send/";
}

// ---------------------------------------------------------------- transport

/// Wraps one shard connection for one streaming attempt. Every send is a
/// fleet kill checkpoint; a transient "fleet/send/<shard>" fault is
/// retried through Backoff (jitter drawn from the router's seeded rng, so
/// the schedule is reproducible); a frame whose retries exhaust is dropped
/// — its records surface in the lost.wire arithmetic — and counts toward
/// the shard's circuit breaker. Returning false aborts the client stream,
/// which is how both kill and circuit-break escalate into failover.
class RetryTransport final : public service::Transport {
 public:
  RetryTransport(Router& router, Router::Shard& shard,
                 service::ServerConnection& conn)
      : router_(router),
        shard_(shard),
        conn_(conn),
        backoff_(router.config_.retry, &router.rng_) {}

  bool send(const std::string& bytes) override {
    if (!shard_.alive || !shard_.routable) return false;
    support::FaultInjector* fault = router_.config_.fault;
    const std::uint64_t checkpoint = ++router_.checkpoints_;
    if (fault != nullptr &&
        fault->should_kill(support::FaultComponent::kFleet, checkpoint)) {
      // The shard process currently being streamed to dies. Destruction is
      // deferred to Router::finish_kill — this connection still points at
      // the server object.
      shard_.alive = false;
      shard_.pending_reopen = true;
      return false;
    }
    if (fault != nullptr) {
      backoff_.reset();
      for (;;) {
        const auto outcome =
            fault->on_write(kSendPathPrefix + shard_.name, bytes.size());
        if (outcome.result == support::FaultInjector::WriteOutcome::Result::kOk)
          break;
        if (backoff_.next()) {
          ++router_.ledger_.retried_sends;
          router_.bump("fleet.retried.sends");
          continue;
        }
        // Retries exhausted: this frame is gone. The stream continues —
        // whatever records it carried are counted as lost.wire when the
        // session settles — unless the give-up opens the circuit.
        ++router_.ledger_.retried_giveups;
        router_.bump("fleet.retried.giveups");
        if (++shard_.consecutive_failures >= router_.config_.circuit_break_after &&
            shard_.routable) {
          shard_.routable = false;
          ++router_.ledger_.circuit_opens;
          router_.bump("fleet.circuit.opens");
          return false;
        }
        return true;
      }
    }
    shard_.consecutive_failures = 0;
    return conn_.send(bytes);
  }

  void close() override { conn_.close(); }
  bool is_closed() const override {
    return conn_.is_closed() || !shard_.alive || !shard_.routable;
  }

 private:
  Router& router_;
  Router::Shard& shard_;
  service::ServerConnection& conn_;
  support::Backoff backoff_;
};

// ------------------------------------------------------------------- router

Router::Router(os::Vfs& fleet_vfs, const FleetConfig& config)
    : vfs_(fleet_vfs), config_(config), ring_(config.vnodes), rng_(config.seed) {
  for (std::size_t i = 0; i < config_.shards; ++i)
    create_shard("shard-" + std::to_string(i));
  publish_manifest();
}

Router::~Router() = default;

Router::Shard* Router::find(const std::string& name) {
  for (auto& s : shards_)
    if (s->name == name) return s.get();
  return nullptr;
}

const Router::Shard* Router::find(const std::string& name) const {
  for (const auto& s : shards_)
    if (s->name == name) return s.get();
  return nullptr;
}

Router::Shard& Router::create_shard(const std::string& name) {
  auto shard = std::make_unique<Shard>();
  shard->name = name;
  shard->server = std::make_unique<service::ProfileServer>(config_.server);
  store::StoreConfig sc;
  sc.root = store::partition_root(name);
  // Partitions share the router's registry: every shard's store.manifest
  // lock folds into one fleet-wide lock.store.manifest.wait_ns histogram.
  sc.telemetry = &telemetry_;
  shard->store = std::make_unique<store::ProfileStore>(vfs_, sc);
  shard->store->open();
  ring_.add(name);
  shards_.push_back(std::move(shard));
  telemetry_.gauge("fleet.shards").set(static_cast<double>(ring_.size()));
  return *shards_.back();
}

bool Router::add_shard(const std::string& name) {
  if (find(name) != nullptr) return false;
  create_shard(name);
  ++ledger_.rebalances;
  bump("fleet.rebalances");
  publish_manifest();
  return true;
}

bool Router::remove_shard(const std::string& name) {
  Shard* shard = find(name);
  if (shard == nullptr || !ring_.contains(name)) return false;
  if (shard->alive && shard->server) {
    // Quiesce: settle every enqueued batch, then flush any residual delta
    // so the partition holds everything the shard ever completed.
    shard->server->drain();
    shard->server->flush_to_store(*shard->store, ++shard->flush_tick);
  }
  ring_.remove(name);
  telemetry_.gauge("fleet.shards").set(static_cast<double>(ring_.size()));
  ++ledger_.rebalances;
  bump("fleet.rebalances");
  publish_manifest();
  return true;
}

void Router::finish_kill(Shard& shard) {
  if (!shard.pending_reopen) return;
  shard.pending_reopen = false;
  // Process death: the server's in-memory state is gone. Completed
  // sessions were flushed at their terminal attempt, so re-opening the
  // partition through recovery brings everything stored back online.
  shard.server.reset();
  ring_.remove(shard.name);
  telemetry_.gauge("fleet.shards").set(static_cast<double>(ring_.size()));
  store::StoreConfig sc;
  sc.root = store::partition_root(shard.name);
  sc.telemetry = &telemetry_;
  shard.store = std::make_unique<store::ProfileStore>(vfs_, sc);
  shard.store->open();
  bump("fleet.kills");
}

SessionOutcome Router::ingest(const os::Vfs& world, const std::string& session_id) {
  SessionOutcome out;
  out.session = session_id;

  // One trace context per session, minted from its id — the same id a
  // standalone server would mint for an untraced stream, so a span is
  // tagged identically whether the session arrived via the fleet or
  // directly. Every frame of every attempt carries it; failover re-streams
  // under the same trace, which is exactly what makes the retries visible.
  const support::TraceContext trace = support::TraceContext::mint(session_id);
  const std::uint64_t ingest_t0 = support::monotonic_ns();

  struct Attempt {
    Shard* shard = nullptr;
    std::uint64_t sent = 0;
    bool completed = false;
  };
  std::vector<Attempt> attempts;

  // The preference list is fixed up front; shards that die during this
  // session are skipped by the alive/routable check when their turn comes.
  const std::vector<std::string> candidates = ring_.preference(session_id);
  for (const std::string& name : candidates) {
    Shard* shard = find(name);
    if (shard == nullptr || !shard->alive || !shard->routable) continue;

    Attempt attempt;
    attempt.shard = shard;
    {
      std::unique_ptr<service::ServerConnection> conn =
          shard->server->connect(session_id);
      RetryTransport transport(*this, *shard, *conn);
      service::ReplayOptions opts;
      opts.batch_records = config_.batch_records;
      opts.trace = trace;
      service::ReplayClient client(world, session_id, transport, opts);
      attempt.completed = client.run();
      attempt.sent = client.records_sent();
    }  // connection closed before the dead server may be destroyed
    if (!shard->alive) finish_kill(*shard);
    attempts.push_back(attempt);

    if (attempt.completed) break;

    if (shard->alive && !shard->routable) {
      // Circuit break: the process lives but is unreachable. Discard the
      // partial session so the re-stream to the successor cannot double
      // count; the shard's previously completed sessions stay queryable.
      shard->server->drain();
      shard->server->drop_session(session_id);
    }
  }

  out.attempts = attempts.size();

  // Aborted attempts (everything before the terminal one) were re-streamed
  // in full: informational failover work, outside the ledger invariant.
  if (attempts.size() >= 2) {
    ++ledger_.failover_sessions;
    bump("fleet.failover.sessions");
    for (std::size_t i = 0; i + 1 < attempts.size(); ++i) {
      ledger_.failover_records += attempts[i].sent;
      bump("fleet.failover.records", attempts[i].sent);
    }
  }

  if (attempts.empty()) {
    // No routable shard at all: nothing was acked, nothing enters the
    // invariant — but the refusal itself is counted.
    out.refused = true;
    ++ledger_.refused_sessions;
    bump("fleet.refused.sessions");
    telemetry_.spans().record("fleet.ingest", "fleet", ingest_t0,
                              support::monotonic_ns(), 0, trace.trace_id);
    publish_manifest();
    return out;
  }

  const Attempt& terminal = attempts.back();
  out.shard = terminal.shard->name;
  out.records_sent = terminal.sent;
  ++ledger_.acked_sessions;
  ledger_.acked_records += terminal.sent;
  bump("fleet.acked.sessions");
  bump("fleet.acked.records", terminal.sent);

  if (!terminal.completed) {
    // The terminal attempt died (or broke) with no live successor left.
    // Nothing of this session reached any partition — on kill the server
    // state evaporated, on circuit break drop_session discarded it — so
    // every record sent on the terminal attempt is exactly lost.dead.
    out.lost_dead = true;
    ledger_.lost_dead_records += terminal.sent;
    ++ledger_.lost_dead_sessions;
    bump("fleet.lost.dead.records", terminal.sent);
    bump("fleet.lost.dead.sessions");
    telemetry_.spans().record("fleet.ingest", "fleet", ingest_t0,
                              support::monotonic_ns(), attempts.size(),
                              trace.trace_id);
    publish_manifest();
    return out;
  }

  // Terminal success: settle the session against the shard it landed on.
  Shard& shard = *terminal.shard;
  shard.server->drain();
  service::SessionStats stats;
  if (const std::shared_ptr<service::ServerSession> s =
          shard.server->session(session_id)) {
    stats = s->stats();
  }
  shard.server->flush_session_to_store(session_id, *shard.store,
                                       ++shard.flush_tick);

  out.completed = true;
  out.records_stored = stats.records_ingested;
  out.records_lost_queue = stats.records_dropped;
  // Whatever was sent but neither ingested nor shed by the queue fell on
  // the wire: retry give-ups, torn frames, lost frames.
  VIPROF_CHECK(terminal.sent >= stats.records_ingested + stats.records_dropped);
  out.records_lost_wire =
      terminal.sent - stats.records_ingested - stats.records_dropped;

  shard.stored_records += stats.records_ingested;
  ++shard.stored_sessions;
  ledger_.stored_records += out.records_stored;
  ledger_.lost_queue += out.records_lost_queue;
  ledger_.lost_wire += out.records_lost_wire;
  bump("fleet.stored.records", out.records_stored);
  bump("fleet.lost.queue", out.records_lost_queue);
  bump("fleet.lost.wire", out.records_lost_wire);

  telemetry_.spans().record("fleet.ingest", "fleet", ingest_t0,
                            support::monotonic_ns(), attempts.size(),
                            trace.trace_id);
  publish_manifest();
  return out;
}

std::vector<std::string> Router::shard_names() const {
  std::vector<std::string> out;
  out.reserve(shards_.size());
  for (const auto& s : shards_) out.push_back(s->name);
  return out;
}

service::ProfileServer* Router::server(const std::string& name) {
  Shard* s = find(name);
  return s != nullptr ? s->server.get() : nullptr;
}

store::ProfileStore* Router::partition(const std::string& name) {
  Shard* s = find(name);
  return s != nullptr ? s->store.get() : nullptr;
}

bool Router::alive(const std::string& name) const {
  const Shard* s = find(name);
  return s != nullptr && s->alive;
}

bool Router::routable(const std::string& name) const {
  const Shard* s = find(name);
  return s != nullptr && s->alive && s->routable && ring_.contains(name);
}

store::FleetManifest Router::manifest() const {
  store::FleetManifest m;
  m.generation = generation_;
  m.ledger = ledger_;
  for (const auto& s : shards_) {
    store::FleetShard entry;
    entry.name = s->name;
    entry.root = store::partition_root(s->name);
    entry.alive = s->alive;
    entry.sessions = s->stored_sessions;
    entry.records = s->stored_records;
    m.shards.push_back(std::move(entry));
  }
  return m;
}

void Router::bump(const char* counter, std::uint64_t n) {
  telemetry_.counter(counter).inc(n);
}

std::size_t Router::export_telemetry() {
  std::size_t written = 0;
  const auto publish = [&](const std::string& path, const std::string& bytes) {
    const std::string tmp = path + ".tmp";
    if (vfs_.write(tmp, bytes) != os::IoStatus::kOk) return;
    if (vfs_.rename(tmp, path) == os::IoStatus::kOk) ++written;
  };
  for (const auto& s : shards_) {
    if (!s->alive || !s->server) continue;  // a dead process has no registry
    s->server->publish_gauges();
    support::Telemetry& t = s->server->telemetry();
    publish(s->name + "/metrics.json", t.snapshot().to_json());
    publish(s->name + "/trace.json", t.spans().to_chrome_json(1000.0));
  }
  support::publish_process_gauges(telemetry_);
  publish("fleet/metrics.json", telemetry_.snapshot().to_json());
  publish("fleet/trace.json", telemetry_.spans().to_chrome_json(1000.0));
  return written;
}

void Router::publish_manifest() {
  ++generation_;
  const store::FleetManifest m = manifest();
  // Same discipline as the store manifest: temp + atomic rename, so a
  // reader sees either the previous generation or this one, never a blend.
  const std::string tmp = std::string(store::kFleetManifestPath) + ".tmp";
  if (vfs_.write(tmp, m.serialize()) != os::IoStatus::kOk) return;
  vfs_.rename(tmp, store::kFleetManifestPath);
}

}  // namespace viprof::fleet
