#include "service/server.hpp"

#include <algorithm>
#include <chrono>

#include "memprof/report.hpp"
#include "memprof/resolve.hpp"
#include "service/query.hpp"
#include "store/profile_store.hpp"
#include "support/format.hpp"
#include "support/telemetry.hpp"

namespace viprof::service {

namespace {

/// The per-batch view of the shared code-map cache: shared_ptr pins built
/// once per batch, so eviction under a running worker is harmless.
class PinnedJitSource final : public core::JitIndexSource {
 public:
  const core::CodeMapIndex* index_for(hw::Pid pid, std::uint64_t) const override {
    auto it = pins_.find(pid);
    return it == pins_.end() ? nullptr : it->second.get();
  }

  std::map<hw::Pid, CodeMapCache::IndexPtr> pins_;
};

/// Pins, for every VM the batch's ceilings name, the index cached at that
/// ceiling over the session's `kind` maps of the directory its registration
/// names (jit_map_dir, or obj_map_dir under the "#obj" key); a miss
/// flattens the session's shelf. VMs with no registration or no such
/// directory get no pin.
PinnedJitSource pin_indexes(CodeMapCache& cache, const ServerSession& session, MapKind kind,
                            const CeilingMap& ceilings,
                            const core::ArchiveResolver& resolver) {
  const bool objects = kind == MapKind::kObject;
  const std::string key = objects ? session.id() + "#obj" : session.id();
  PinnedJitSource pinned;
  for (const auto& [pid, ceiling] : ceilings) {
    const core::VmRegistration* reg = nullptr;
    for (const core::VmRegistration& r : resolver.registrations())
      if (r.pid == pid) { reg = &r; break; }
    if (reg == nullptr) continue;
    const std::string& dir = objects ? reg->obj_map_dir : reg->jit_map_dir;
    if (dir.empty()) continue;
    pinned.pins_[pid] = cache.get(key, pid, ceiling, [&session, kind, &dir, pid = pid] {
      return session.map_index(kind, dir, pid);
    });
  }
  return pinned;
}

/// The batch's per-epoch partial for a sample's epoch. Samples arrive in
/// epoch runs, so the map is searched once per run, not once per sample.
class EpochCursor {
 public:
  explicit EpochCursor(BatchResult& result) : result_(result) {}

  core::Profile& at(std::uint64_t epoch) {
    if (current_ == nullptr || epoch != epoch_) {
      epoch_ = epoch;
      current_ = &result_.epoch_partial[epoch];
    }
    return *current_;
  }

 private:
  BatchResult& result_;
  core::Profile* current_ = nullptr;
  std::uint64_t epoch_ = 0;
};

/// The calling thread's decode scratch: a batch's samples live here from
/// parse to apply, so a queued batch holds only its body. Reset per batch.
support::Arena& scratch_arena() {
  thread_local support::Arena arena;
  arena.reset();
  return arena;
}

}  // namespace

// ---------------------------------------------------------------- connection

bool ServerConnection::send(const std::string& bytes) {
  if (closed_) return false;
  return wire_->send(bytes);
}

void ServerConnection::deliver(const char* data, std::size_t size) {
  decoder_.feed(data, size);
  FrameView frame;
  while (decoder_.next_view(frame)) server_->dispatch(*this, frame);
  const std::uint64_t torn = decoder_.torn_frames();
  if (torn > reported_torn_) {
    const std::uint64_t delta = torn - reported_torn_;
    reported_torn_ = torn;
    server_->telemetry_.counter("service.frames.torn").inc(delta);
    if (session_) session_->count_torn_frames(delta);
  }
}

void ServerConnection::close() {
  if (closed_) return;
  closed_ = true;
  if (wire_) wire_->close();
  // A disconnect mid-frame leaves undecodable bytes behind: that is a torn
  // frame the decoder never got to finish. Count it.
  if (decoder_.buffered_bytes() > 0) {
    server_->telemetry_.counter("service.frames.torn").inc();
    if (session_) session_->count_torn_frames(1);
  }
  if (session_ && !session_->ended())
    server_->telemetry_.counter("service.disconnects").inc();
}

std::optional<Frame> ServerConnection::next_reply() {
  std::lock_guard<std::mutex> lock(reply_mu_);
  if (reply_read_ >= replies_.size()) return std::nullopt;
  return replies_[reply_read_++];
}

// -------------------------------------------------------------------- server

ProfileServer::ProfileServer(const ServerConfig& config)
    : config_(config),
      cache_(config.code_map_cache_capacity),
      pool_(config.ingest_threads == 0 ? 1 : config.ingest_threads) {
  telemetry_.gauge("service.ingest_threads").set(static_cast<double>(pool_.size()));
  tele_frames_ = &telemetry_.counter("service.frames");
  tele_batches_ = &telemetry_.counter("service.batches");
  tele_records_ = &telemetry_.counter("service.records");
  tele_queries_ = &telemetry_.counter("service.queries");
  tele_batch_records_ = &telemetry_.histogram("service.ingest.batch_records");
  tele_query_latency_us_ = &telemetry_.histogram("service.query.latency_us");
  // Arm the contention suspects before any traffic (DESIGN.md §13).
  cache_.attach_telemetry(telemetry_);
  // Every streamed map byte is parsed once, on arrival (DESIGN.md §14).
  telemetry_.counter("service.maps.bytes_received");
  telemetry_.counter("service.maps.bytes_parsed");
  pool_.attach_telemetry(telemetry_);
  sessions_mu_.attach(telemetry_);
}

ProfileServer::~ProfileServer() {
  // Unblock any receiver stuck in backpressure, then let the pool join.
  std::lock_guard<support::TracedMutex> lock(sessions_mu_);
  for (auto& [id, session] : sessions_) session->queue_.close();
}

std::unique_ptr<ServerConnection> ProfileServer::connect(const std::string& client_name) {
  std::unique_ptr<ServerConnection> conn(new ServerConnection(this, client_name));
  ServerConnection* raw = conn.get();
  conn->wire_ = std::make_unique<LoopbackTransport>(
      client_name, [raw](const char* data, std::size_t size) { raw->deliver(data, size); },
      /*on_close=*/nullptr, config_.fault);
  telemetry_.counter("service.connections").inc();
  return conn;
}

std::shared_ptr<ServerSession> ProfileServer::open_session(const std::string& id) {
  std::lock_guard<support::TracedMutex> lock(sessions_mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    // One aggregation stripe per ingest thread (DESIGN.md §14).
    it = sessions_
             .emplace(id, std::make_shared<ServerSession>(id, config_.queue_capacity,
                                                          pool_.size(), &telemetry_))
             .first;
    telemetry_.gauge("service.sessions").set(static_cast<double>(sessions_.size()));
  }
  return it->second;
}

void ProfileServer::reply(ServerConnection& conn, FrameType type, std::string text) {
  std::lock_guard<std::mutex> lock(conn.reply_mu_);
  conn.replies_.push_back(Frame{type, std::move(text), {}});
}

void ProfileServer::dispatch(ServerConnection& conn, const FrameView& frame) {
  tele_frames_->inc();
  switch (frame.type) {
    case FrameType::kHello:
      reply(conn, FrameType::kReply, "hello " + std::string(frame.payload));
      return;
    case FrameType::kOpenSession: {
      if (frame.payload.empty()) {
        reply(conn, FrameType::kError, "open-session: empty id");
        return;
      }
      const std::string id(frame.payload);
      conn.session_ = open_session(id);
      // Adopt the client's trace context; mint one locally for untraced
      // clients so every span this session produces is still causally
      // tagged (and deterministically so — mint hashes the session id).
      conn.session_->set_trace(frame.trace.valid()
                                   ? frame.trace.trace_id
                                   : support::TraceContext::mint(id).trace_id);
      reply(conn, FrameType::kReply, "ok session " + id);
      return;
    }
    case FrameType::kRegisterVm: {
      if (!conn.session_) {
        reply(conn, FrameType::kError, "register-vm: no session open");
        return;
      }
      const auto reg = core::parse_reg_line(frame.payload);
      if (!reg) {
        reply(conn, FrameType::kError,
              "register-vm: unparseable: " + std::string(frame.payload));
        return;
      }
      const core::RegisterStatus status = conn.session_->register_vm(*reg);
      if (status == core::RegisterStatus::kOk) {
        reply(conn, FrameType::kReply, "ok register " + std::to_string(reg->pid));
      } else {
        telemetry_.counter("service.registrations.rejected").inc();
        reply(conn, FrameType::kError,
              "register " + std::to_string(reg->pid) + ": " + core::to_string(status));
      }
      return;
    }
    case FrameType::kFile: {
      if (!conn.session_) {
        reply(conn, FrameType::kError, "file: no session open");
        return;
      }
      const std::size_t nl = frame.payload.find('\n');
      if (nl == std::string::npos || nl == 0) {
        reply(conn, FrameType::kError, "file: missing path header");
        return;
      }
      telemetry_.counter("service.files").inc();
      conn.session_->store_file(std::string(frame.payload.substr(0, nl)),
                                std::string(frame.payload.substr(nl + 1)));
      return;
    }
    case FrameType::kSampleBatch:
      if (!conn.session_) {
        reply(conn, FrameType::kError, "batch: no session open");
        return;
      }
      handle_batch(conn, frame.payload);
      return;
    case FrameType::kEndStream: {
      if (!conn.session_) {
        reply(conn, FrameType::kError, "end-stream: no session open");
        return;
      }
      conn.session_->mark_ended();
      reply(conn, FrameType::kReply, "ok end");
      return;
    }
    case FrameType::kQuery: {
      const std::uint64_t t0 = support::monotonic_ns();
      std::string result = query(frame.payload);
      const std::uint64_t t1 = support::monotonic_ns();
      tele_query_latency_us_->add(static_cast<double>(t1 - t0) / 1000.0);
      telemetry_.spans().record("service.query", "service", t0, t1,
                                support::SpanTracer::kNoArg, frame.trace.trace_id);
      reply(conn, FrameType::kReply, std::move(result));
      return;
    }
    case FrameType::kReply:
    case FrameType::kError:
      reply(conn, FrameType::kError, "unexpected frame type on server");
      return;
  }
}

void ProfileServer::handle_batch(ServerConnection& conn, std::string_view payload) {
  std::shared_ptr<ServerSession> session = conn.session_;
  const std::size_t nl = payload.find('\n');
  if (nl == std::string_view::npos) {
    reply(conn, FrameType::kError, "batch: missing header");
    return;
  }
  // The header is "batch <EVENT> <N>" in the query grammar (N, the
  // declared record count, only sizes the queue fault check: the body is
  // what counts).
  const std::string_view header = payload.substr(0, nl);
  const auto parsed = parse_query(header);
  const Query* head = std::get_if<Query>(&parsed);
  if (head == nullptr || head->verb != QueryVerb::kBatch) {
    const QueryError* error = std::get_if<QueryError>(&parsed);
    reply(conn, FrameType::kError,
          error != nullptr && error->kind == QueryError::Kind::kUnknownEvent
              ? "batch: unknown event: " + error->text
              : "batch: bad header: " + std::string(header));
    return;
  }
  const hw::EventKind event = *head->event;
  const std::string_view body = payload.substr(nl + 1);

  // A forced overflow refuses the batch before it is stamped; the declared
  // record count N stands in for its size.
  bool refused = false;
  if (config_.fault != nullptr) {
    const auto outcome = config_.fault->on_write("service/queue/" + session->id(), head->n);
    refused = outcome.result != support::FaultInjector::WriteOutcome::Result::kOk;
  }
  bool enqueued = false;
  Batch batch;  // a refused push leaves it intact, arena included
  if (!refused) {
    batch.event = event;
    batch.arena = rent_arena();
    // The connection thread frames and stamps; a worker parses. The body is
    // copied into the batch's arena because the wire buffer moves on.
    char* copy = batch.arena->alloc_array<char>(body.size());
    std::copy(body.begin(), body.end(), copy);
    batch.body = std::string_view(copy, body.size());
    {
      std::lock_guard<support::TracedMutex> lock(session->ingest_mu_);
      batch.apply_seq = session->next_enqueue_seq_++;
      batch.ceilings = session->ceilings_;
    }
    enqueued = config_.policy == OverloadPolicy::kBackpressure
                   ? session->queue_.push(std::move(batch))
                   : session->queue_.try_push(std::move(batch));
  }

  session->frames_.fetch_add(1, std::memory_order_relaxed);
  if (enqueued) {
    session->batches_enqueued_.fetch_add(1, std::memory_order_relaxed);
    tele_batches_->inc();
    pool_.submit([this, session] { process_one(session); });
    return;
  }
  // Refused (the rare path): parsed here, in place, so the dropped records
  // are counted exactly and their seqs are seen — a replay of them counts
  // as duplicates, as if they had been applied. The body copy goes back to
  // the pool unread.
  recycle_arena(std::move(batch.arena));
  const std::size_t dropped = session->parse_batch(event, body, scratch_arena()).size();
  session->batches_dropped_.fetch_add(1, std::memory_order_relaxed);
  session->records_dropped_.fetch_add(dropped, std::memory_order_relaxed);
  telemetry_.counter("service.batches.dropped").inc();
  telemetry_.counter("service.records.dropped").inc(dropped);
}

void ProfileServer::process_one(std::shared_ptr<ServerSession> session) {
  std::optional<Batch> item = session->queue_.pop();
  if (!item) return;  // closed during shutdown
  Batch& batch = *item;

  // Parsed first, even when nothing can be resolved: the stream's seen set
  // and read accounting take every batch.
  const std::uint64_t parse_t0 = support::monotonic_ns();
  const support::ArenaVector<core::LoggedSample> samples =
      session->parse_batch(batch.event, batch.body, scratch_arena());
  recycle_arena(std::move(batch.arena));  // the body is decoded: done with it
  telemetry_.spans().record("service.batch.parse", "service", parse_t0,
                            support::monotonic_ns(), batch.apply_seq, session->trace());
  tele_batch_records_->add(static_cast<double>(samples.size()));

  BatchResult result;
  result.records = samples.size();

  const core::ArchiveResolver* resolver = session->resolver();
  if (resolver == nullptr) {
    // No archive manifest streamed yet: the batch cannot be attributed.
    // Apply an empty result so the sequence keeps flowing, and count it.
    telemetry_.counter("service.batches.unresolvable").inc();
    result.records = 0;
    session->apply(batch.apply_seq, std::move(result));
    return;
  }

  // Pin the map index generation each registered VM had at enqueue. Object
  // samples resolve against the object maps' indexes, a separate cache
  // keyspace ("#obj"), and carry no caller PCs.
  const bool objects = batch.event == hw::EventKind::kObjDmiss;
  const PinnedJitSource maps = pin_indexes(cache_, *session,
                                           objects ? MapKind::kObject : MapKind::kCode,
                                           *batch.ceilings, *resolver);

  const std::uint64_t resolve_t0 = support::monotonic_ns();
  // Resolutions carry interned name ids (DESIGN.md §14): each row or arc
  // lookup hashes integers, so no per-batch memo sits in front of it.
  EpochCursor epochs(result);
  for (const core::LoggedSample& sample : samples) {
    const core::Resolution res =
        objects ? memprof::resolve_object(maps.index_for(sample.pid, sample.epoch), sample.pc,
                                          sample.epoch)
                : resolver->resolve(sample, &maps);
    result.partial.add(batch.event, res);
    epochs.at(sample.epoch).add(batch.event, res);
    if (!objects && sample.caller_pc != 0) {
      result.arcs.add_resolved(resolver->resolve_pc(sample.caller_pc, hw::CpuMode::kUser,
                                                    sample.pid, sample.epoch, &maps),
                               res);
    }
  }
  const std::uint64_t resolve_t1 = support::monotonic_ns();
  telemetry_.spans().record("service.batch.resolve", "service", resolve_t0, resolve_t1,
                            batch.apply_seq, session->trace());
  tele_records_->inc(result.records);
  session->apply(batch.apply_seq, std::move(result));
  telemetry_.spans().record("service.batch.apply", "service", resolve_t1,
                            support::monotonic_ns(), batch.apply_seq, session->trace());
  cache_.publish();
}

std::unique_ptr<support::Arena> ProfileServer::rent_arena() {
  {
    std::lock_guard<std::mutex> lock(arena_mu_);
    if (!arena_pool_.empty()) {
      std::unique_ptr<support::Arena> arena = std::move(arena_pool_.back());
      arena_pool_.pop_back();
      return arena;
    }
  }
  // A queued batch holds only its body, so one block fits a 256-line batch
  // of the longest sample lines: a deep queue costs what its bodies weigh,
  // not a 64 KiB block each.
  return std::make_unique<support::Arena>(256 * core::kMaxSampleLine);
}

void ProfileServer::recycle_arena(std::unique_ptr<support::Arena> arena) {
  if (!arena) return;
  arena->reset();  // keeps the block chain for the next batch
  std::lock_guard<std::mutex> lock(arena_mu_);
  if (arena_pool_.size() < 64) arena_pool_.push_back(std::move(arena));
}

void ProfileServer::drain() { pool_.wait_idle(); }

std::vector<std::shared_ptr<ServerSession>> ProfileServer::session_list() const {
  std::lock_guard<support::TracedMutex> lock(sessions_mu_);
  std::vector<std::shared_ptr<ServerSession>> out;
  out.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) out.push_back(session);
  return out;
}

std::vector<std::string> ProfileServer::session_ids() const {
  std::lock_guard<support::TracedMutex> lock(sessions_mu_);
  std::vector<std::string> ids;
  ids.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) ids.push_back(id);
  return ids;
}

std::shared_ptr<ServerSession> ProfileServer::session(const std::string& id) const {
  std::lock_guard<support::TracedMutex> lock(sessions_mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

std::map<std::string, SessionStats> ProfileServer::session_stats() const {
  std::map<std::string, SessionStats> rows;
  for (const auto& s : session_list()) rows[s->id()] = s->stats();
  return rows;
}

bool ProfileServer::fold_memprof(const std::string& id, memprof::SiteTable& sites,
                                 core::Profile& profile) const {
  bool matched = false;
  for (const auto& s : session_list()) {
    if (!id.empty() && s->id() != id) continue;
    matched = true;
    s->fold_object_sites(sites);
    profile.merge(s->merged_profile());
  }
  return matched || id.empty();
}

std::string ProfileServer::session_report(const std::string& id, std::size_t top,
                                          const std::vector<hw::EventKind>& events) {
  std::shared_ptr<ServerSession> s = session(id);
  if (!s) return "error: no such session: " + id + "\n";
  return s->merged_profile().render(events, top);
}

std::string ProfileServer::query(std::string_view text) {
  tele_queries_->inc();
  const auto parsed = parse_query(text);
  if (const QueryError* error = std::get_if<QueryError>(&parsed)) return error->message();
  const Query& q = std::get<Query>(parsed);
  const auto no_such_session = [&q] {
    return "error: no such session: " + q.session + "\n";
  };

  switch (q.verb) {
    case QueryVerb::kSessions:
      return render_session_stats(session_stats());
    case QueryVerb::kTop:
    case QueryVerb::kSinceEpoch: {
      const auto profile_of = [&q](const ServerSession& s) {
        return q.verb == QueryVerb::kTop ? s.merged_profile()
                                         : s.profile_since_epoch(q.n);
      };
      core::Profile merged;
      if (q.session.empty()) {
        for (const auto& s : session_list()) merged.merge(profile_of(*s));
      } else {
        std::shared_ptr<ServerSession> s = session(q.session);
        if (!s) return no_such_session();
        merged = profile_of(*s);
      }
      return merged.render(q.events(), q.top);
    }
    case QueryVerb::kArcs: {
      support::TextTable table({"Samples", "Caller", "->", "Callee"});
      for (const auto& s : session_list()) {
        if (table.row_count() >= q.top) break;
        if (!q.session.empty() && s->id() != q.session) continue;
        const core::CallGraph graph = s->merged_graph();
        for (const std::uint32_t a : graph.rank(q.top - table.row_count()))
          core::add_arc_row(table, graph.arcs()[a]);
      }
      return table.render();
    }
    case QueryVerb::kMemprof: {
      memprof::SiteTable sites;
      core::Profile merged;
      if (!fold_memprof(q.session, sites, merged)) return no_such_session();
      return memprof::render_memprof(sites, merged, q.top);
    }
    case QueryVerb::kSnapshot:
      return snapshot();
    case QueryVerb::kStats: {
      publish_gauges();
      const support::TelemetrySnapshot snap = telemetry_.snapshot();
      return q.json ? snap.to_json() : snap.render_text();
    }
    case QueryVerb::kTrace:
      // Host-side ring: monotonic_ns timestamps, so 1000 "cycles" per µs.
      return telemetry_.spans().to_chrome_json(1000.0);
    case QueryVerb::kDiff:
    case QueryVerb::kBatch:
      break;
  }
  return unserved_query(text);
}

void ProfileServer::publish_gauges() {
  support::publish_process_gauges(telemetry_);
  std::size_t site_bytes = 0;
  for (const auto& s : session_list()) site_bytes += s->site_bytes();
  telemetry_.gauge("service.sites.bytes").set(static_cast<double>(site_bytes));
}

std::string ProfileServer::snapshot() {
  ServiceSnapshot snap;
  for (const auto& s : session_list()) {
    SessionSnapshot out;
    out.id = s->id();
    out.profile = s->merged_profile();
    out.epochs = s->epoch_profiles();
    snap.sessions.push_back(std::move(out));
  }
  return snap.serialize();
}

bool ProfileServer::export_state(const std::string& dir, std::size_t top) {
  const std::vector<std::shared_ptr<ServerSession>> sessions = session_list();
  if (sessions.empty()) return false;
  os::Vfs out;
  for (const auto& s : sessions)
    out.write(s->id() + "/profile.txt", s->merged_profile().render(core::kReportEvents, top));
  out.write("service.snap", snapshot());
  publish_gauges();
  out.write("metrics.json", telemetry_.snapshot().to_json());
  out.write("trace.json", telemetry_.spans().to_chrome_json(1000.0));
  out.export_to_directory(dir);
  return true;
}

std::size_t ProfileServer::flush_to_store(store::ProfileStore& store,
                                          std::uint64_t tick) {
  std::size_t ingested = 0;
  for (const auto& s : session_list()) ingested += flush_session(*s, store, tick);
  telemetry_.counter("service.store.flushes").inc();
  return ingested;
}

std::size_t ProfileServer::flush_session_to_store(const std::string& id,
                                                  store::ProfileStore& store,
                                                  std::uint64_t tick) {
  std::shared_ptr<ServerSession> s = session(id);
  return s ? flush_session(*s, store, tick) : 0;
}

std::size_t ProfileServer::flush_session(ServerSession& s, store::ProfileStore& store,
                                         std::uint64_t tick) {
  const std::uint64_t t0 = support::monotonic_ns();
  ServerSession::FlushDelta delta = s.take_flush();
  if (!delta.any) return 0;
  store::IntervalProfile iv;
  iv.session = s.id();
  iv.tick_lo = iv.tick_hi = tick;
  iv.epoch_lo = delta.epoch_lo;
  iv.epoch_hi = delta.epoch_hi;
  iv.profile = std::move(delta.profile);
  if (!store.ingest(std::move(iv))) return 0;
  telemetry_.counter("service.store.intervals").inc();
  telemetry_.spans().record("service.flush", "service", t0, support::monotonic_ns(),
                            tick, s.trace());
  return 1;
}

bool ProfileServer::drop_session(const std::string& id) {
  std::lock_guard<support::TracedMutex> lock(sessions_mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return false;
  // Connections still holding the shared_ptr keep it alive until they are
  // abandoned; the server itself forgets the session immediately, so
  // queries and flushes no longer see the partial state.
  sessions_.erase(it);
  telemetry_.gauge("service.sessions").set(static_cast<double>(sessions_.size()));
  telemetry_.counter("service.sessions.dropped").inc();
  return true;
}

}  // namespace viprof::service
