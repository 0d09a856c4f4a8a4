// Persistent-store microbench: ingest throughput into segment files,
// compaction throughput at 1/2/4 compactor threads, and historical query
// latency (p50/p99) against a fully-compacted store, for one session's
// window and for an all-session window that straddles segment fences.
// Before anything is measured the store's answers are checked
// byte-identical to the offline canonical fold — before and after
// compaction, at every thread count, and for each timed window — so a
// bench run that got the wrong answer fast is a failure, not a result.
//
// Emits BENCH_store.json (harness schema). VIPROF_QUICK=1 shrinks the
// interval population for CI smoke runs.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.hpp"
#include "os/vfs.hpp"
#include "store/profile_store.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace viprof;

constexpr auto kTime = hw::EventKind::kGlobalPowerEvents;
constexpr auto kDmiss = hw::EventKind::kBsqCacheReference;
const std::vector<hw::EventKind> kEvents = {kTime, kDmiss};

core::Resolution res(std::string image, std::string symbol) {
  core::Resolution r;
  r.image = std::move(image);
  r.symbol = std::move(symbol);
  r.domain = core::SampleDomain::kJit;
  return r;
}

/// Interval j of the synthetic history: a few sessions, repeating ticks (so
/// compaction has merge keys to fold) and a method population wide enough
/// that segment dictionaries earn their keep.
store::IntervalProfile make_interval(std::uint64_t j, std::uint64_t methods) {
  store::IntervalProfile iv;
  iv.session = "vm-" + std::to_string(j % 3);
  iv.pid = 40 + j % 3;
  iv.tick_lo = iv.tick_hi = j / 6;
  iv.epoch_lo = j;
  iv.epoch_hi = j + 1;
  for (std::uint64_t m = 0; m < 4; ++m) {
    const std::uint64_t method = (j * 7 + m * 13) % methods;
    iv.profile.add(kTime, res("RVM.map", "method-" + std::to_string(method)),
                   10 + (j + m) % 97);
    if (m % 2 == 0) {
      iv.profile.add(kDmiss, res("RVM.map", "method-" + std::to_string(method)),
                     1 + (j + m) % 7);
    }
  }
  iv.profile.add(kTime, res("vmlinux", "do_page_fault"), 1 + j % 5);
  return iv;
}

store::StoreConfig bench_config() {
  store::StoreConfig config;
  config.seal_after_intervals = 16;
  config.compact_fanin = 4;
  config.compact_min_segments = 2;
  return config;
}

/// The [lo, hi] tick span of every sealed segment, in store order, read
/// from the store's segment inventory (render_segments: a header line, then
/// one row per segment whose fifth column is "LO-HI").
std::vector<std::pair<std::uint64_t, std::uint64_t>> sealed_tick_spans(
    const store::ProfileStore& st) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
  std::istringstream rows(st.render_segments());
  std::string line;
  std::getline(rows, line);  // header
  while (std::getline(rows, line)) {
    std::istringstream cells(line);
    std::string name, state, intervals, row_count, ticks;
    cells >> name >> state >> intervals >> row_count >> ticks;
    unsigned long long lo = 0, hi = 0;
    if (state == "sealed" && std::sscanf(ticks.c_str(), "%llu-%llu", &lo, &hi) == 2)
      spans.emplace_back(lo, hi);
  }
  return spans;
}

bool run() {
  const char* quick = std::getenv("VIPROF_QUICK");
  const bool is_quick = quick != nullptr && quick[0] == '1';

  const std::uint64_t intervals = is_quick ? 600 : 6'000;
  const std::uint64_t methods = 256;
  const int reps = is_quick ? 2 : 3;
  // Enough rounds that at least 10 samples lie beyond each p99.
  const int query_rounds = is_quick ? 1'200 : 2'000;

  std::printf("-- profile store ingest + compaction + query bench "
              "(%llu intervals) --\n",
              static_cast<unsigned long long>(intervals));

  // The offline oracle: the whole history folded in ingest order (the
  // fold commutes, so any order gives these bytes).
  std::string oracle;
  {
    core::Profile folded;
    for (std::uint64_t j = 0; j < intervals; ++j)
      folded.merge(make_interval(j, methods).profile);
    oracle = folded.render(kEvents, 30);
  }

  std::vector<bench::BenchRecord> records;

  // Phase 1: ingest throughput (append + seal path, no compaction).
  {
    double best_secs = 0.0;
    std::uint64_t bytes = 0;
    support::TelemetrySnapshot telemetry;
    for (int rep = 0; rep < reps; ++rep) {
      support::Telemetry registry;
      os::Vfs vfs;
      store::StoreConfig config = bench_config();
      config.telemetry = &registry;
      store::ProfileStore st(vfs, config);
      if (st.open().verdict != core::FsckVerdict::kClean) {
        std::fprintf(stderr, "FAIL: fresh store did not open clean\n");
        return false;
      }
      const auto start = std::chrono::steady_clock::now();
      for (std::uint64_t j = 0; j < intervals; ++j) {
        if (!st.ingest(make_interval(j, methods))) {
          std::fprintf(stderr, "FAIL: ingest rejected interval %llu\n",
                       static_cast<unsigned long long>(j));
          return false;
        }
      }
      st.seal_active();
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      if (rep == 0 || elapsed.count() < best_secs) best_secs = elapsed.count();
      bytes = vfs.bytes_written();
      if (st.render_top({}, kEvents, 30) != oracle) {
        std::fprintf(stderr, "FAIL: sealed-store query differs from fold\n");
        return false;
      }
      telemetry = registry.snapshot();  // taken around the timed region
    }
    const double rate = static_cast<double>(intervals) / best_secs;
    std::printf("  ingest           %9.0f intervals/sec  (%.3fs, %.1f MB)\n", rate,
                best_secs, static_cast<double>(bytes) / 1e6);
    bench::BenchRecord record;
    record.name = "ingest";
    record.iterations = reps;
    record.seconds = best_secs;
    record.ns_per_op = best_secs * 1e9 / static_cast<double>(intervals);
    record.telemetry = std::move(telemetry);
    records.push_back(std::move(record));
  }

  // Phase 2: compaction throughput at several thread counts, each checked
  // byte-identical to the fold (the determinism anchor, measured).
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    double best_secs = 0.0;
    std::size_t segments_before = 0, segments_after = 0;
    support::TelemetrySnapshot telemetry;
    for (int rep = 0; rep < reps; ++rep) {
      support::Telemetry registry;
      os::Vfs vfs;
      store::StoreConfig config = bench_config();
      config.telemetry = &registry;
      store::ProfileStore st(vfs, config);
      if (st.open().verdict != core::FsckVerdict::kClean) return false;
      for (std::uint64_t j = 0; j < intervals; ++j)
        if (!st.ingest(make_interval(j, methods))) return false;
      st.seal_active();
      segments_before = st.segment_count();

      support::ThreadPool pool(threads);
      pool.attach_telemetry(registry);
      const auto start = std::chrono::steady_clock::now();
      while (st.compact(&pool) > 0) {
      }
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      if (rep == 0 || elapsed.count() < best_secs) best_secs = elapsed.count();
      segments_after = st.segment_count();
      if (st.render_top({}, kEvents, 30) != oracle) {
        std::fprintf(stderr, "FAIL: compacted-store query differs from fold "
                             "(threads=%zu)\n", threads);
        return false;
      }
      telemetry = registry.snapshot();
    }
    const double rate = static_cast<double>(intervals) / best_secs;
    std::printf("  compact threads=%zu %8.0f intervals/sec  (%.3fs, %zu -> %zu "
                "segments)\n",
                threads, rate, best_secs, segments_before, segments_after);
    bench::BenchRecord record;
    record.name = "compact.t" + std::to_string(threads);
    record.iterations = reps;
    record.seconds = best_secs;
    record.ns_per_op = best_secs * 1e9 / static_cast<double>(intervals);
    record.telemetry = std::move(telemetry);
    records.push_back(std::move(record));
  }
  std::printf("  queries byte-identical to the canonical fold at every stage\n");

  // Phase 3: historical query latency against a fully-compacted store.
  support::Telemetry registry;
  os::Vfs vfs;
  store::StoreConfig query_config = bench_config();
  query_config.telemetry = &registry;
  store::ProfileStore st(vfs, query_config);
  if (st.open().verdict != core::FsckVerdict::kClean) return false;
  for (std::uint64_t j = 0; j < intervals; ++j)
    if (!st.ingest(make_interval(j, methods))) return false;
  st.seal_active();
  support::ThreadPool pool(2);
  pool.attach_telemetry(registry);
  while (st.compact(&pool) > 0) {
  }

  // Two windows: one session's, whose upper edge reaches at least the end
  // of the first sealed segment starting inside it (read from the built
  // store: the layout is the compactor's), so it covers that segment's
  // session fence; and every session's over a range whose edges cut
  // through segment fences, so the fold mixes whole pre-folds with raw
  // edge scans. Each is checked against the canonical fold, and for the
  // pre-folds (window_all: and scans) it must take, before it is timed.
  store::WindowSpec window{intervals / 24, intervals / 8, "vm-1"};
  for (const auto& [lo, hi] : sealed_tick_spans(st)) {
    if (lo < window.tick_lo) continue;
    window.tick_hi = std::max(window.tick_hi, hi);
    break;
  }
  const store::WindowSpec window_all{intervals / 48 + 1, intervals * 7 / 48 + 1, ""};
  struct Timed {
    const char* name;
    const store::WindowSpec* window;
  };
  for (const Timed& timed : {Timed{"query.window", &window}, Timed{"query.window_all", &window_all}}) {
    const store::WindowSpec& w = *timed.window;
    core::Profile folded;
    for (std::uint64_t j = 0; j < intervals; ++j) {
      const store::IntervalProfile iv = make_interval(j, methods);
      if (iv.tick_lo >= w.tick_lo && iv.tick_hi <= w.tick_hi &&
          (w.session.empty() || iv.session == w.session))
        folded.merge(iv.profile);
    }
    const support::TelemetrySnapshot before = registry.snapshot();
    if (st.render_top(w, kEvents, 20) != folded.render(kEvents, 20)) {
      std::fprintf(stderr, "FAIL: %s query differs from the canonical fold\n", timed.name);
      return false;
    }
    const support::TelemetrySnapshot after = registry.snapshot();
    const std::uint64_t prefolds = after.counter("store.query.prefolds") -
                                   before.counter("store.query.prefolds");
    const std::uint64_t scanned = after.counter("store.query.intervals_scanned") -
                                  before.counter("store.query.intervals_scanned");
    if (prefolds == 0) {
      std::fprintf(stderr, "FAIL: %s covers no segment fence\n", timed.name);
      return false;
    }
    if (&w == &window_all && scanned == 0) {
      std::fprintf(stderr, "FAIL: %s does not straddle a segment fence\n", timed.name);
      return false;
    }

    std::vector<double> latencies_us;
    latencies_us.reserve(static_cast<std::size_t>(query_rounds));
    for (int i = 0; i < query_rounds; ++i) {
      const auto start = std::chrono::steady_clock::now();
      const std::string answer = st.render_top(w, kEvents, 20);
      const std::chrono::duration<double, std::micro> elapsed =
          std::chrono::steady_clock::now() - start;
      if (answer.empty()) return false;
      latencies_us.push_back(elapsed.count());
    }
    const support::TelemetrySnapshot query_telemetry = registry.snapshot();
    std::sort(latencies_us.begin(), latencies_us.end());
    const double p50 = bench::percentile(latencies_us, 0.50);
    const double p99 = bench::percentile(latencies_us, 0.99);
    std::printf("  %-16s 'top 20' x%d  p50 %.1fus  p99 %.1fus  (%llu pre-folds, "
                "%llu intervals scanned per query)\n",
                timed.name, query_rounds, p50, p99,
                static_cast<unsigned long long>(prefolds),
                static_cast<unsigned long long>(scanned));
    for (const auto& [suffix, us] : {std::pair<const char*, double>{".p50", p50},
                                     {".p99", p99}}) {
      bench::BenchRecord record;
      record.name = std::string(timed.name) + suffix;
      record.iterations = query_rounds;
      record.seconds = us * 1e-6;
      record.ns_per_op = us * 1e3;
      record.telemetry = query_telemetry;
      records.push_back(std::move(record));
    }
  }

  bench::write_bench_json("store", records);
  return true;
}

}  // namespace

int main() { return run() ? 0 : 1; }
