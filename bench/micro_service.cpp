// Continuous-profiling service microbench: streaming ingest throughput at
// 1/2/4 ingest threads and online query latency (p50/p99) against a live
// server. Before anything is written the online aggregate is checked
// byte-identical to the offline viprof_report rendering — a bench run that
// got the wrong answer fast is a failure, not a result.
//
// Emits BENCH_service.json (harness schema). VIPROF_QUICK=1 shrinks the
// recorded scenario for CI smoke runs.
//
// `ingest.tN` times the replay plus drain() on a server with N ingest
// workers. drain() runs queued batches on the calling thread too, so the
// backlog left after the last frame clears on N workers plus the draining
// caller: t1 is not a one-thread run.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "service/client.hpp"
#include "service/scenario.hpp"
#include "service/server.hpp"

namespace {

using namespace viprof;

const std::vector<hw::EventKind> kEvents = {hw::EventKind::kGlobalPowerEvents,
                                            hw::EventKind::kBsqCacheReference};

bool run() {
  const char* quick = std::getenv("VIPROF_QUICK");
  const bool is_quick = quick != nullptr && quick[0] == '1';

  service::ScenarioConfig config;
  config.vms = 3;
  config.samples_per_event = is_quick ? 10'000 : 60'000;
  config.epochs = 24;
  config.methods = 256;
  const int reps = is_quick ? 2 : 3;
  const int query_rounds = is_quick ? 500 : 2'000;

  std::printf("-- service ingest + query bench (%llu samples/event, %zu vms) --\n",
              static_cast<unsigned long long>(config.samples_per_event), config.vms);
  auto scenario = service::record_scenario(config);
  const std::string offline = service::offline_render(scenario->vfs(), kEvents, 30);
  const std::uint64_t total_records =
      static_cast<std::uint64_t>(kEvents.size()) * config.samples_per_event;

  std::vector<bench::BenchRecord> records;
  double baseline_secs = 0.0;

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    double best_secs = 0.0;
    support::TelemetrySnapshot telemetry;
    for (int rep = 0; rep < reps; ++rep) {
      service::ServerConfig server_config;
      server_config.ingest_threads = threads;
      service::ProfileServer server(server_config);
      const auto start = std::chrono::steady_clock::now();
      {
        auto conn = server.connect("bench");
        service::ReplayClient client(scenario->vfs(), "bench", *conn,
                                     service::ReplayOptions{256, nullptr, {}});
        if (!client.run()) {
          std::fprintf(stderr, "FAIL: replay client disconnected\n");
          return false;
        }
      }
      server.drain();
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      if (rep == 0 || elapsed.count() < best_secs) best_secs = elapsed.count();
      if (server.session_report("bench", 30, kEvents) != offline) {
        std::fprintf(stderr, "FAIL: online aggregate differs from offline report "
                             "(threads=%zu)\n", threads);
        return false;
      }
      // Snapshot before the server dies: the counters, lock-wait
      // histograms and queue gauges of the timed region are the record's
      // telemetry payload (empty snapshots defeat the contention evidence).
      telemetry = server.telemetry().snapshot();
    }
    if (threads == 1) baseline_secs = best_secs;
    const double rate = static_cast<double>(total_records) / best_secs;
    std::printf("  ingest threads=%zu  %9.0f records/sec  (%.3fs, speedup %.2fx)\n",
                threads, rate, best_secs, baseline_secs / best_secs);
    bench::BenchRecord record;
    record.name = "ingest.t" + std::to_string(threads);
    record.iterations = reps;
    record.seconds = best_secs;
    record.ns_per_op = best_secs * 1e9 / static_cast<double>(total_records);
    record.telemetry = std::move(telemetry);
    records.push_back(std::move(record));
  }
  std::printf("  online aggregates byte-identical to offline report\n");

  // Query latency against a fully-ingested server: the online path the
  // always-on service exists to serve.
  service::ProfileServer server;
  {
    auto conn = server.connect("bench");
    service::ReplayClient client(scenario->vfs(), "bench", *conn,
                                 service::ReplayOptions{256, nullptr, {}});
    if (!client.run()) return false;
  }
  server.drain();

  std::vector<double> latencies_us;
  latencies_us.reserve(static_cast<std::size_t>(query_rounds));
  for (int i = 0; i < query_rounds; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const std::string out = server.query("top 20 --session bench");
    const std::chrono::duration<double, std::micro> elapsed =
        std::chrono::steady_clock::now() - start;
    if (out.rfind("error", 0) == 0) {
      std::fprintf(stderr, "FAIL: query failed: %s\n", out.c_str());
      return false;
    }
    latencies_us.push_back(elapsed.count());
  }
  std::sort(latencies_us.begin(), latencies_us.end());
  const double p50 = bench::percentile(latencies_us, 0.50);
  const double p99 = bench::percentile(latencies_us, 0.99);
  std::printf("  query 'top 20' x%d  p50 %.1fus  p99 %.1fus\n", query_rounds, p50, p99);

  const support::TelemetrySnapshot query_telemetry = server.telemetry().snapshot();
  for (const auto& [name, us] : {std::pair<const char*, double>{"query.top.p50", p50},
                                 {"query.top.p99", p99}}) {
    bench::BenchRecord record;
    record.name = name;
    record.iterations = query_rounds;
    record.seconds = us * 1e-6;
    record.ns_per_op = us * 1e3;
    record.telemetry = query_telemetry;
    records.push_back(std::move(record));
  }

  bench::write_bench_json("service", records);
  return true;
}

}  // namespace

int main() { return run() ? 0 : 1; }
