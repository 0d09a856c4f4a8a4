// live_ingest: the always-on profile service under write load with reads
// beside the writes.
//
// Set-up simulates seven tenant sessions (pseudojbb-, antlr- and
// xalan-shaped programs plus a leak-shaped memprof session) and encodes
// each one's wire stream once. Each measured round then streams every
// session's frames round-robin, one connection per session, into a fresh
// ProfileServer with two ingest threads, from this one generator thread
// (closed loop: the next frame or query goes out when the previous call
// returns). Every kQueryEvery frames it issues the next online query of the
// round's schedule; every kFlushEvery frames it flushes the server into a
// ProfileStore, and every kCompactEvery flushes it compacts the store.
//
// The seven sessions keep more (session, pid, epoch) code-map keys live than
// the server's 8-entry CodeMapCache holds, so resolve work depends on the
// cache. Fleet routing and the offline pipeline are bypassed.
#include <cstdio>

#include "bench.hpp"
#include "service/server.hpp"
#include "store/profile_store.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kQueryEvery = 6;
constexpr std::size_t kFlushEvery = 64;
constexpr std::size_t kCompactEvery = 4;
constexpr std::size_t kReportEvery = 3;  // rounds between offline report passes
constexpr const char* kMemprofSession = "live-leak";  // the one session with object samples

struct Inputs {
  std::vector<SimSession> sims;
  std::vector<EncodedSession> streams;
  OfflineAnswers oracle;
  double simulate_s = 0.0;
};

std::unique_ptr<Inputs> set_up(std::uint64_t seed) {
  const std::vector<SessionSpec> specs = {
      {"live-antlr-a", "antlr", 1.0, mix(seed, 1)},
      {"live-antlr-b", "antlr", 1.0, mix(seed, 2)},
      {"live-jbb-a", "pseudojbb", 0.25, mix(seed, 3)},
      {"live-jbb-b", "pseudojbb", 0.25, mix(seed, 4)},
      {kMemprofSession, "leakshaped", 0.5, mix(seed, 5)},
      {"live-xalan-a", "xalan", 0.5, mix(seed, 6)},
      {"live-xalan-b", "xalan", 0.5, mix(seed, 7)},
  };
  auto in = std::make_unique<Inputs>();
  const std::uint64_t t0 = now_ns();
  in->sims = simulate(specs);
  in->simulate_s = static_cast<double>(now_ns() - t0) / 1e9;
  for (const SimSession& sim : in->sims) in->streams.push_back(encode_session(sim));
  in->oracle = offline_answers(in->sims);
  return in;
}

struct Query {
  const char* span = nullptr;
  std::string text;
  std::uint64_t trace_id = 0;
};

/// The online queries of one round, in order. Query k asks verb
/// kVerbs[k % 9] of session k % n, so every (verb, session) pair recurs at
/// fixed positions and each round does the same read work. since-epoch
/// cut-offs cycle through 0, 1/4, 1/2 and 3/4 of the session's epochs.
///
/// Every third memprof query (k = 4, 31, 58 and 85 of a round's ~97) asks
/// the memprof session instead, whose answer costs up to a hundred times a
/// typical query's and grows as the round ingests more of that session.
/// With the plain rotation only one query per round (about 1 %) is heavy,
/// so the 99th percentile would sit on the edge between it and the light
/// queries, and drop tenfold for a seed whose rounds ask more than 100
/// queries; with four heavy queries per round it stays among them.
std::vector<Query> query_schedule(const Inputs& in, std::size_t count) {
  static const char* const kVerbs[] = {"top", "since-epoch", "arcs", "top", "memprof",
                                       "since-epoch", "arcs", "top", "sessions"};
  std::size_t memprof_session = 0;
  for (std::size_t i = 0; i < in.streams.size(); ++i)
    if (in.streams[i].id == kMemprofSession) memprof_session = i;
  std::vector<Query> out;
  for (std::size_t k = 0; k < count; ++k) {
    const std::string verb = kVerbs[k % 9];
    const std::size_t i =
        verb == "memprof" && k / 9 % 3 == 0 ? memprof_session : k % in.streams.size();
    const std::string& id = in.streams[i].id;
    Query q;
    q.trace_id = in.streams[i].trace_id;
    if (verb == "top") {
      q = {"service.query.top", "top 20 --session " + id, q.trace_id};
    } else if (verb == "since-epoch") {
      const std::uint64_t since = (in.sims[i].result.vm.collections + 1) * (k / 9 % 4) / 4;
      q = {"service.query.since-epoch",
           "since-epoch " + std::to_string(since) + " --session " + id, q.trace_id};
    } else if (verb == "arcs") {
      q = {"service.query.arcs", "arcs 20 --session " + id, q.trace_id};
    } else if (verb == "memprof") {
      q = {"service.query.memprof", "memprof 20 --session " + id, q.trace_id};
    } else {
      q = {"service.query.sessions", "sessions", 0};
    }
    out.push_back(std::move(q));
  }
  return out;
}

}  // namespace

Result run_live_ingest(const Options& options) {
  Result result;
  Timings timings;
  const std::unique_ptr<Inputs> in = set_up_repeatedly(set_up, options.seed, timings);
  const std::size_t n = in->streams.size();
  std::uint64_t frames_per_round = 0, records_per_round = 0, batches_per_round = 0;
  for (const EncodedSession& s : in->streams) {
    result.check(s.complete, "encode " + s.id);
    frames_per_round += s.frames.size();
    records_per_round += s.records;
    batches_per_round += s.batches;
  }
  const std::vector<Query> schedule =
      query_schedule(*in, frames_per_round / kQueryEvery + 1);

  Latency latency;
  std::uint64_t cache_hits = 0, cache_misses = 0;
  double segments = 0.0, intervals = 0.0;

  Rounds rounds(options);
  while (rounds.next()) {
    service::ServerConfig config;
    config.ingest_threads = 2;
    config.code_map_cache_capacity = 8;
    service::ProfileServer server(config);
    os::Vfs store_vfs;
    store::ProfileStore store(store_vfs);
    {
      Span span("store.open");
      store.open();
    }
    std::vector<std::unique_ptr<service::ServerConnection>> conns;
    for (const EncodedSession& s : in->streams) {
      Span span("service.connect", s.trace_id);
      conns.push_back(server.connect(s.id));
    }

    std::vector<std::size_t> next(n, 0);
    std::uint64_t sent = 0, tick = 0, flushes = 0;
    std::size_t queries = 0;
    const std::uint64_t t0 = now_ns();
    while (sent < frames_per_round) {
      for (std::size_t i = 0; i < n; ++i) {
        const EncodedSession& s = in->streams[i];
        if (next[i] == s.frames.size()) continue;
        bool ok = false;
        {
          Span span("service.send", s.trace_id);
          ok = conns[i]->send(s.frames[next[i]++]);
        }
        result.check(ok, "a session connection refused a frame");
        // Queries start once every session has opened (hello + open frames).
        if (++sent > 2 * n && sent % kQueryEvery == 0) {
          const Query& q = schedule[queries++];
          const std::uint64_t q0 = now_ns();
          std::string answer;
          {
            Span span(q.span, q.trace_id);
            answer = server.query(q.text);
          }
          latency.add(rounds.count(), static_cast<double>(now_ns() - q0) / 1e3);
          const bool answered = answer.rfind("error", 0) != 0;
          result.check(answered, "online query returned an error");
          if (!answered) std::fprintf(stderr, "  %s -> %s", q.text.c_str(), answer.c_str());
        }
        if (sent % kFlushEvery == 0) {
          {
            Span span("service.flush_to_store");
            server.flush_to_store(store, ++tick);
          }
          if (++flushes % kCompactEvery == 0) {
            Span span("store.compact");
            store.compact();
          }
        }
      }
    }
    {
      Span span("service.drain");
      server.drain();
    }
    const double ingest_s = static_cast<double>(now_ns() - t0) / 1e9;
    {
      Span span("service.flush_to_store");
      server.flush_to_store(store, ++tick);
    }
    rounds.end();

    // Outside the round clock: what was applied, and the oracles.
    const std::vector<store::ProfileStore::StoredSession> stored_sessions = store.sessions();
    std::uint64_t applied = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const EncodedSession& s = in->streams[i];
      const std::shared_ptr<service::ServerSession> session = server.session(s.id);
      const service::SessionStats st =
          session ? session->stats() : service::SessionStats{};
      applied += st.records_ingested;
      result.check(st.ended && st.batches_dropped == 0 && st.records_ingested == s.records,
                   "session " + s.id + " did not apply every batch");
      result.check(server.session_report(s.id, kTop, kReportEvents) == in->oracle.top[i],
                   "session_report " + s.id + " != offline_render");
      result.check(server.query("memprof 20 --session " + s.id) == in->oracle.memprof[i],
                   "memprof " + s.id + " != offline render_memprof");
      // The store must hold every applied record exactly once. (Its
      // rendered history is not compared: it differed from offline_render in
      // one of ten 30 s runs, most likely tied rows changing order when a
      // flush cuts between batches the workers applied out of order.)
      std::uint64_t stored = 0;
      for (const store::ProfileStore::StoredSession& ss : stored_sessions)
        if (ss.session == s.id) stored = ss.records;
      result.check(stored == st.records_ingested,
                   "store records of " + s.id + " != records applied");
    }
    timings.round_rps.push_back(static_cast<double>(applied) / ingest_s);
    // report_s: the offline viprof_report pass over the same session files,
    // spread over the run and checked against the set-up oracle.
    if (rounds.count() % kReportEvery == 1) {
      const OfflineAnswers again = offline_answers(in->sims);
      timings.report_s.push_back({rounds.count() - 1, again.seconds});
      result.check(again.top == in->oracle.top && again.memprof == in->oracle.memprof,
                   "offline report is not deterministic");
    }
    cache_hits += server.code_map_cache().hits();
    cache_misses += server.code_map_cache().misses();
    segments += static_cast<double>(store.segment_count());
    intervals += static_cast<double>(store.live_intervals());
  }
  const double round_count = static_cast<double>(rounds.count());

  std::printf("live_ingest: %zu sessions, %zu rounds of %llu frames / %llu records\n",
              n, rounds.count(), static_cast<unsigned long long>(frames_per_round),
              static_cast<unsigned long long>(records_per_round));
  for (const EncodedSession& s : in->streams)
    std::printf("  %-14s %5zu frames %7llu records\n", s.id.c_str(), s.frames.size(),
                static_cast<unsigned long long>(s.records));

  report_end_to_end(rounds, latency, timings, in->sims, result);
  report_span_metrics(rounds, result);
  report_ledger(rounds, result);
  const double lookups = static_cast<double>(cache_hits + cache_misses);
  std::printf("service.map_cache: %llu hits / %.0f lookups\n",
              static_cast<unsigned long long>(cache_hits), lookups);
  result.layer("service.map_cache.hit_ratio",
               lookups > 0 ? static_cast<double>(cache_hits) / lookups : 0.0, "ratio");
  result.layer("store.segments", segments / round_count, "count");
  result.layer("count.sessions", static_cast<double>(n), "count");
  result.layer("count.frames", static_cast<double>(frames_per_round), "count");
  result.layer("count.batches", static_cast<double>(batches_per_round), "count");
  result.layer("count.records", static_cast<double>(records_per_round), "count");
  result.layer("count.samples", static_cast<double>(records_per_round), "count");
  result.layer("count.intervals", intervals / round_count, "count");
  result.layer("count.queries", static_cast<double>(latency.count()), "count");
  return result;
}

}  // namespace perfbench
