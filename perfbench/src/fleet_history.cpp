// fleet_history: fleet routing followed by read-heavy history queries.
//
// Set-up simulates six sessions with distinct seeds and builds a long
// history store from them: their streams are replayed round-robin into one
// server, which is flushed every kHistoryFlushEvery frames into a ticked
// interval per session, and the store is then compacted to completion.
// Each measured round routes every session through a fresh fleet::Router
// (two shards, one ingest thread each; serial per session, with a flush and
// a manifest publish per session) and then answers kQueriesPerRound seeded
// queries, half over the Federator and half over the history store.
//
// Store folds and fleet scatter-gather own the time. The service is used
// one session at a time with no concurrent readers, unlike live_ingest.
#include <algorithm>
#include <cstdio>

#include "bench.hpp"
#include "fleet/federator.hpp"
#include "fleet/router.hpp"
#include "service/server.hpp"
#include "store/profile_store.hpp"
#include "support/format.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kHistoryFlushEvery = 12;
constexpr std::size_t kQueriesPerRound = 192;
constexpr std::size_t kStoreQueries = 48;  // distinct history queries per run
constexpr std::size_t kReportEvery = 6;    // rounds between offline report passes
constexpr hw::EventKind kTime = hw::EventKind::kGlobalPowerEvents;

/// One history query and the answer the canonical fold gives for it.
struct StoreQuery {
  enum Kind { kTopQ, kSeriesQ, kDiffQ } kind = kTopQ;
  store::WindowSpec window, other;
  std::string image, symbol;
  std::string oracle;
};

/// One federated query text and the single-server answer it must equal.
struct FleetQuery {
  const char* span = nullptr;
  std::string text;
  std::string oracle;
};

struct Inputs {
  std::vector<SimSession> sims;
  OfflineAnswers offline;
  os::Vfs history_vfs;
  std::unique_ptr<store::ProfileStore> history;
  std::vector<StoreQuery> store_queries;
  std::vector<FleetQuery> fleet_queries;
  std::uint64_t intervals = 0;
  double simulate_s = 0.0;
};

core::Profile fold(const std::vector<store::IntervalProfile>& intervals,
                   const store::WindowSpec& w) {
  core::Profile out;
  for (const store::IntervalProfile& iv : intervals)
    if (iv.tick_lo >= w.tick_lo && iv.tick_hi <= w.tick_hi &&
        (w.session.empty() || iv.session == w.session))
      out.merge(iv.profile);
  return out;
}

/// ProfileStore::render_series, recomputed from the retained intervals.
std::string series(const std::vector<store::IntervalProfile>& intervals,
                   const StoreQuery& q) {
  std::map<std::uint64_t, core::Profile> ticks;
  for (const store::IntervalProfile& iv : intervals)
    if (iv.tick_lo >= q.window.tick_lo && iv.tick_hi <= q.window.tick_hi &&
        (q.window.session.empty() || iv.session == q.window.session))
      ticks[iv.tick_lo].merge(iv.profile);
  support::TextTable table({"Tick", "Count", "Total", "%"});
  for (const auto& [tick, profile] : ticks) {
    const core::ProfileRow* row = profile.find(q.image, q.symbol);
    const std::uint64_t count = row != nullptr ? row->count(kTime) : 0;
    const std::uint64_t total = profile.total(kTime);
    const double pct = total == 0 ? 0.0
                                  : 100.0 * static_cast<double>(count) /
                                        static_cast<double>(total);
    table.add_row({std::to_string(tick), std::to_string(count), std::to_string(total),
                   support::fixed(pct, 4)});
  }
  return table.render();
}

std::unique_ptr<Inputs> set_up(std::uint64_t seed) {
  const std::vector<SessionSpec> specs = {
      {"fleet-antlr-a", "antlr", 1.0, mix(seed, 11)},
      {"fleet-antlr-b", "antlr", 1.0, mix(seed, 12)},
      {"fleet-jbb-a", "pseudojbb", 0.25, mix(seed, 13)},
      {"fleet-jbb-b", "pseudojbb", 0.25, mix(seed, 14)},
      {"fleet-xalan-a", "xalan", 0.5, mix(seed, 15)},
      {"fleet-xalan-b", "xalan", 0.5, mix(seed, 16)},
  };
  auto in = std::make_unique<Inputs>();
  const std::uint64_t t0 = now_ns();
  in->sims = simulate(specs);
  in->simulate_s = static_cast<double>(now_ns() - t0) / 1e9;
  in->offline = offline_answers(in->sims);

  // The history: every session replayed into one server, flushed into a
  // ticked interval per session every kHistoryFlushEvery frames. The flush
  // is the same take_flush -> IntervalProfile step as
  // ProfileServer::flush_to_store; the benchmark keeps a copy of each
  // interval for the canonical-fold oracle.
  std::vector<EncodedSession> streams;
  for (const SimSession& sim : in->sims) streams.push_back(encode_session(sim));
  service::ProfileServer server;
  in->history = std::make_unique<store::ProfileStore>(in->history_vfs);
  in->history->open();
  std::vector<store::IntervalProfile> intervals;
  std::uint64_t tick = 0;
  auto flush = [&]() {
    server.drain();  // deterministic cut points: everything sent is applied
    ++tick;
    for (const EncodedSession& s : streams) {
      const std::shared_ptr<service::ServerSession> session = server.session(s.id);
      if (!session) continue;
      service::ServerSession::FlushDelta delta = session->take_flush();
      if (!delta.any) continue;
      store::IntervalProfile iv;
      iv.session = s.id;
      iv.tick_lo = iv.tick_hi = tick;
      iv.epoch_lo = delta.epoch_lo;
      iv.epoch_hi = delta.epoch_hi;
      iv.profile = std::move(delta.profile);
      in->history->ingest(iv);
      intervals.push_back(std::move(iv));
    }
  };
  {
    std::vector<std::unique_ptr<service::ServerConnection>> conns;
    for (const EncodedSession& s : streams) conns.push_back(server.connect(s.id));
    std::vector<std::size_t> next(streams.size(), 0);
    for (std::size_t sent = 0, left = 1; left != 0;) {
      left = 0;
      for (std::size_t i = 0; i < streams.size(); ++i) {
        if (next[i] == streams[i].frames.size()) continue;
        conns[i]->send(streams[i].frames[next[i]++]);
        ++left;
        if (++sent % kHistoryFlushEvery == 0) flush();
      }
    }
  }
  flush();
  in->history->seal_active();
  while (in->history->compact() > 0) {
  }
  in->intervals = intervals.size();
  // Canonical fold order (interval.hpp); one interval per (session, tick).
  std::stable_sort(intervals.begin(), intervals.end(),
                   [](const store::IntervalProfile& a, const store::IntervalProfile& b) {
                     return a.session != b.session ? a.session < b.session
                                                   : a.tick_lo < b.tick_lo;
                   });

  // Seeded history queries over random windows and sessions.
  support::Xoshiro256 rng(mix(seed, 0x5705e));
  // Window lengths cycle through 1/4 .. 4/4 of the history; the seed
  // picks each window's position.
  auto window = [&](std::size_t k, const std::string& session) {
    const std::uint64_t len = std::max<std::uint64_t>(1, tick * (1 + k % 4) / 4);
    const std::uint64_t lo = 1 + rng.below(tick - len + 1);
    return store::WindowSpec{lo, lo + len - 1, session};
  };
  for (std::size_t k = 0; k < kStoreQueries; ++k) {
    // Query k is of kind k % 3 over session (k / 3) % n; top queries also
    // take every session at once ((k / 3) % (n + 1) == n).
    StoreQuery q;
    q.kind = static_cast<StoreQuery::Kind>(k % 3);
    const std::string& session = streams[(k / 3) % streams.size()].id;
    if (q.kind == StoreQuery::kTopQ) {
      const std::size_t pick = (k / 3) % (streams.size() + 1);
      q.window = window(k, pick == streams.size() ? std::string() : streams[pick].id);
      q.oracle = fold(intervals, q.window).render(kReportEvents, kTop);
    } else if (q.kind == StoreQuery::kSeriesQ) {
      q.window = window(k, session);
      const core::ProfileRow hot =
          server.session(session)->merged_profile().ranked(kTime).front();
      q.image = hot.image;
      q.symbol = hot.symbol;
      q.oracle = series(intervals, q);
    } else {
      q.window = window(k, session);
      q.other = window(k + 1, session);
      q.oracle = core::render_diff(fold(intervals, q.window), fold(intervals, q.other),
                                   kTime, kTop);
    }
    in->store_queries.push_back(std::move(q));
  }

  // Federated queries and their single-server answers.
  in->fleet_queries.push_back({"fleet.federator.top", "top 20", server.query("top 20")});
  in->fleet_queries.push_back({"fleet.federator.sessions", "sessions",
                               server.query("sessions")});
  for (std::size_t i = 0; i < streams.size(); ++i) {
    in->fleet_queries.push_back({"fleet.federator.top", "top 20 --session " + streams[i].id,
                                 in->offline.top[i]});
    const std::string& other = streams[(i + 1) % streams.size()].id;
    in->fleet_queries.push_back(
        {"fleet.federator.diff", "diff " + streams[i].id + " " + other,
         core::render_diff(server.session(streams[i].id)->merged_profile(),
                           server.session(other)->merged_profile(), kTime, kTop)});
  }
  return in;
}

}  // namespace

Result run_fleet_history(const Options& options) {
  Result result;
  Timings timings;
  const std::unique_ptr<Inputs> in = set_up_repeatedly(set_up, options.seed, timings);
  const store::ProfileStore& history = *in->history;

  Latency latency;
  std::uint64_t attempts = 0, routed = 0, records_per_round = 0;

  Rounds rounds(options);
  while (rounds.next()) {
    os::Vfs fleet_vfs;
    fleet::FleetConfig config;
    config.shards = 2;
    config.server.ingest_threads = 1;
    fleet::Router router(fleet_vfs, config);
    records_per_round = 0;
    double route_ns = 0.0;
    for (const SimSession& sim : in->sims) {
      const std::uint64_t t0 = now_ns();
      fleet::SessionOutcome out;
      {
        Span span("fleet.router.ingest", trace_id_of(sim.id));
        out = router.ingest(sim.world(), sim.id);
      }
      route_ns += static_cast<double>(now_ns() - t0);
      result.check(out.completed && out.records_lost_wire == 0 &&
                       out.records_lost_queue == 0,
                   "routed session " + sim.id + " did not complete");
      records_per_round += out.records_stored;
      attempts += out.attempts;
      ++routed;
    }
    timings.round_rps.push_back(static_cast<double>(records_per_round) / (route_ns / 1e9));

    // Every round asks the same queries in the same order: federated and
    // history queries alternate, each list cycled in its fixed order.
    const fleet::Federator federator(router);
    for (std::size_t k = 0; k < kQueriesPerRound; ++k) {
      std::string answer;
      const std::string* oracle = nullptr;
      const std::uint64_t q0 = now_ns();
      if (k % 2 == 0) {
        const FleetQuery& fq = in->fleet_queries[(k / 2) % in->fleet_queries.size()];
        Span span(fq.span);
        answer = federator.query(fq.text);
        oracle = &fq.oracle;
      } else {
        const StoreQuery& sq = in->store_queries[(k / 2) % in->store_queries.size()];
        oracle = &sq.oracle;
        if (sq.kind == StoreQuery::kTopQ) {
          Span span("store.render_top");
          answer = history.render_top(sq.window, kReportEvents, kTop);
        } else if (sq.kind == StoreQuery::kSeriesQ) {
          Span span("store.render_series");
          answer = history.render_series(sq.window, sq.image, sq.symbol, kTime);
        } else {
          Span span("store.render_diff");
          answer = history.render_diff(sq.window, sq.other, kTime, kTop);
        }
      }
      latency.add(rounds.count(), static_cast<double>(now_ns() - q0) / 1e3);
      result.check(answer == *oracle, "history/federated answer != its oracle");
    }
    rounds.end();

    // report_s: the offline viprof_report pass over the routed sessions'
    // files, spread over the run and checked against the set-up answers.
    if (rounds.count() % kReportEvery == 1) {
      const OfflineAnswers again = offline_answers(in->sims);
      timings.report_s.push_back({rounds.count() - 1, again.seconds});
      result.check(again.top == in->offline.top && again.memprof == in->offline.memprof,
                   "offline report is not deterministic");
    }
  }

  std::printf("fleet_history: %zu sessions, %llu history intervals, %zu rounds of "
              "%llu routed records\n",
              in->sims.size(), static_cast<unsigned long long>(in->intervals),
              rounds.count(), static_cast<unsigned long long>(records_per_round));

  report_end_to_end(rounds, latency, timings, in->sims, result);
  report_span_metrics(rounds, result);
  report_ledger(rounds, result);
  const auto totals = Tracer::instance().totals(rounds.span_mark());
  const double traced_records =
      static_cast<double>(records_per_round * rounds.traced_count());
  result.layer("fleet.router.ingest.us_per_record",
               traced_records > 0 ? span_total(totals, "fleet.router.ingest", 1e3) /
                                        traced_records
                                  : 0.0,
               "us");
  result.layer("fleet.router.attempts",
               routed > 0 ? static_cast<double>(attempts) / static_cast<double>(routed)
                          : 0.0,
               "count");
  result.layer("store.segments", static_cast<double>(history.segment_count()), "count");
  result.layer("count.sessions", static_cast<double>(in->sims.size()), "count");
  result.layer("count.records", static_cast<double>(records_per_round), "count");
  result.layer("count.samples", static_cast<double>(records_per_round), "count");
  result.layer("count.intervals", static_cast<double>(history.live_intervals()), "count");
  result.layer("count.queries", static_cast<double>(latency.count()), "count");
  return result;
}

}  // namespace perfbench
