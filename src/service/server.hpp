// The continuous-profiling server.
//
// A long-running process (simulated in-process here) that accepts many
// concurrent client connections, each streaming one profiling session:
// archive world files, VM registrations, and checksummed sample batches.
// Ingest is staged: the receiver (the client's own thread, via the
// loopback transport) verifies framing and the batch header, copies the
// batch body into a recycled per-batch arena, stamps it (apply seq and the
// session's published epoch ceilings, O(1) under the session's ingest
// lock) and enqueues it on the session's bounded queue. A shared
// ThreadPool (plus whichever thread is in drain()) parses batches
// concurrently — line verification outside every
// lock, dedup against the event's seen-sequence set — resolves them through
// the RCU-snapshot code-map cache and folds each into one of the session's
// aggregation stripes in whatever order workers finish. Dedup and merges
// commute and every table ranks in one canonical order (DESIGN.md §14), so
// the online aggregate renders byte-identical to offline viprof_report
// over the same logs, at any thread count, stripe count and interleaving
// (DESIGN.md §10).
//
// Overload: with kBackpressure a full queue blocks the sender (slow server
// slows its clients); with kDropNewest the batch is dropped and *counted*
// — never silently: a refused batch is parsed on the receiver, its records
// counted as dropped and their seqs marked seen.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "service/code_map_cache.hpp"
#include "service/session.hpp"
#include "service/transport.hpp"
#include "service/wire.hpp"
#include "support/arena.hpp"
#include "support/fault.hpp"
#include "support/telemetry.hpp"
#include "support/thread_pool.hpp"

namespace viprof::store {
class ProfileStore;
}

namespace viprof::service {

enum class OverloadPolicy : std::uint8_t {
  kBackpressure,  // block the sender until the queue has room
  kDropNewest,    // refuse the batch, count the drop
};

struct ServerConfig {
  std::size_t ingest_threads = 2;
  std::size_t queue_capacity = 64;  // batches buffered per session
  OverloadPolicy policy = OverloadPolicy::kBackpressure;
  std::size_t code_map_cache_capacity = 8;
  support::FaultInjector* fault = nullptr;  // wire + queue fault points
};

class ProfileServer;

/// Client end of a loopback connection. send() dispatches frames into the
/// server on the calling thread; server replies are polled via
/// next_reply(). One connection serves one session at a time.
class ServerConnection final : public Transport {
 public:
  ~ServerConnection() override { close(); }

  bool send(const std::string& bytes) override;
  void close() override;
  bool is_closed() const override { return closed_; }

  /// Oldest unread kReply/kError frame from the server, if any.
  std::optional<Frame> next_reply();

  /// Wire damage observed by this connection's decoder.
  std::uint64_t torn_frames() const { return decoder_.torn_frames(); }
  std::uint64_t skipped_bytes() const { return decoder_.skipped_bytes(); }

 private:
  friend class ProfileServer;
  ServerConnection(ProfileServer* server, std::string name)
      : server_(server), name_(std::move(name)) {}

  void deliver(const char* data, std::size_t size);

  ProfileServer* server_;
  const std::string name_;
  std::unique_ptr<LoopbackTransport> wire_;
  FrameDecoder decoder_;
  std::uint64_t reported_torn_ = 0;  // decoder torn count already counted
  std::shared_ptr<ServerSession> session_;
  std::mutex reply_mu_;
  std::vector<Frame> replies_;
  std::size_t reply_read_ = 0;
  bool closed_ = false;
};

class ProfileServer {
 public:
  explicit ProfileServer(const ServerConfig& config = {});
  ~ProfileServer();

  ProfileServer(const ProfileServer&) = delete;
  ProfileServer& operator=(const ProfileServer&) = delete;

  /// Opens a loopback connection named `client_name` (fault path
  /// "wire/<client_name>").
  std::unique_ptr<ServerConnection> connect(const std::string& client_name);

  /// Returns once every enqueued batch has been resolved and applied. The
  /// calling thread processes queued batches itself beside the ingest
  /// workers, then waits for the batches still on a worker.
  void drain();

  /// Online query API; the same strings arrive as kQuery frames. Serves
  /// sessions, top, since-epoch, arcs, memprof, snapshot, stats and trace
  /// of the grammar in DESIGN.md §10 (service/query.hpp parses it).
  std::string query(std::string_view text);

  /// viprof-snapshot v2 text over all sessions (see service/query.hpp).
  std::string snapshot();

  /// Writes <dir>/<session>/profile.txt, <dir>/service.snap,
  /// <dir>/metrics.json and <dir>/trace.json (the server's own span ring,
  /// host-clock ns at cycles_per_us = 1000). False when there are no
  /// sessions to export. Each file is published atomically (temp +
  /// rename), so a crash mid-export never clobbers a previous snapshot.
  bool export_state(const std::string& dir, std::size_t top = 20);

  /// Flushes each session's delta since the last flush into `store` as one
  /// interval profile at tick [tick, tick]. Sessions are visited in id
  /// order; merging a session's flush intervals, in any order, reproduces
  /// its full profile (DESIGN.md §11). Returns intervals ingested.
  std::size_t flush_to_store(store::ProfileStore& store, std::uint64_t tick);

  /// Flushes one session's delta (same semantics as flush_to_store, which
  /// is a loop over this). The fleet router flushes per session at its
  /// terminal attempt so a shard partition only ever holds completed work.
  /// Returns intervals ingested (0 when the delta is empty or `id` is
  /// unknown).
  std::size_t flush_session_to_store(const std::string& id,
                                     store::ProfileStore& store,
                                     std::uint64_t tick);

  /// Discards one session entirely — in-flight batches, stats, profile.
  /// The fleet router calls this when it circuit-breaks a shard mid-stream:
  /// the partial session is abandoned here and re-streamed from scratch to
  /// the ring successor, so nothing of the aborted attempt can be counted
  /// twice. Completed sessions on this server are untouched. False when
  /// `id` is unknown.
  bool drop_session(const std::string& id);

  std::vector<std::string> session_ids() const;
  std::shared_ptr<ServerSession> session(const std::string& id) const;

  /// Every session's stats by id: the rows of the "sessions" answer.
  std::map<std::string, SessionStats> session_stats() const;

  /// Folds session `id`'s allocation sites and profile (every session's
  /// when `id` is empty) into `sites` and `profile`; false when `id` names
  /// no session here. The memprof answer of the server and the federator.
  bool fold_memprof(const std::string& id, memprof::SiteTable& sites,
                    core::Profile& profile) const;

  /// Rendered top-`top` report of one session over `events` — the
  /// byte-identity anchor against offline viprof_report.
  std::string session_report(const std::string& id, std::size_t top,
                             const std::vector<hw::EventKind>& events);

  /// Sets the gauges a `stats` answer and an export read: the process
  /// ones (support::publish_process_gauges) and `service.sites.bytes`, the
  /// obj_id dedup state of every session's site tables.
  void publish_gauges();

  support::Telemetry& telemetry() { return telemetry_; }
  CodeMapCache& code_map_cache() { return cache_; }
  const ServerConfig& config() const { return config_; }

 private:
  friend class ServerConnection;

  void dispatch(ServerConnection& conn, const FrameView& frame);
  void handle_batch(ServerConnection& conn, std::string_view payload);
  void process_one(std::shared_ptr<ServerSession> session);
  std::shared_ptr<ServerSession> open_session(const std::string& id);
  /// Every session in id order, copied under one hold of sessions_mu_.
  std::vector<std::shared_ptr<ServerSession>> session_list() const;
  /// flush_session_to_store's body for a session already looked up.
  std::size_t flush_session(ServerSession& s, store::ProfileStore& store, std::uint64_t tick);
  void reply(ServerConnection& conn, FrameType type, std::string text);

  /// Per-batch arena recycling: a queued batch's body lives in a rented
  /// arena, returned (reset, blocks kept) once a worker has decoded it into
  /// its own scratch arena, so steady-state ingest allocates no per-frame
  /// heap storage.
  std::unique_ptr<support::Arena> rent_arena();
  void recycle_arena(std::unique_ptr<support::Arena> arena);

  ServerConfig config_;
  support::Telemetry telemetry_;
  // Hot-path metrics, registered once: no name lookup per frame or query.
  support::Counter* tele_frames_ = nullptr;
  support::Counter* tele_batches_ = nullptr;
  support::Counter* tele_records_ = nullptr;
  support::Counter* tele_queries_ = nullptr;
  support::LatencyHistogram* tele_batch_records_ = nullptr;
  support::LatencyHistogram* tele_query_latency_us_ = nullptr;
  CodeMapCache cache_;
  std::mutex arena_mu_;
  std::vector<std::unique_ptr<support::Arena>> arena_pool_;
  // A contention suspect: held for a lookup, an open or drop, and for the
  // one copy of the table (session_list) each query, flush and export walks.
  mutable support::TracedMutex sessions_mu_{"service.sessions"};
  std::map<std::string, std::shared_ptr<ServerSession>> sessions_;
  // The pool is declared last so its destructor (which joins workers that
  // may still touch sessions/cache/telemetry) runs first.
  support::ThreadPool pool_;
};

}  // namespace viprof::service
