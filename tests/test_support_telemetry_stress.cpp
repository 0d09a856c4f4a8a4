// Multi-threaded stress over the telemetry registry: concurrent
// registration of overlapping metric names plus hot-path updates through
// registered handles. Runs in the telemetry suite, which CI also executes
// under ThreadSanitizer — the assertions here are exact-count checks, the
// data-race checking is TSan's job.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "support/telemetry.hpp"

namespace viprof::support {
namespace {

constexpr int kThreads = 8;
constexpr int kOpsPerThread = 20'000;

TEST(TelemetryStress, SharedCounterCountsEveryIncrement) {
  Telemetry telemetry;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&telemetry] {
      // Half the threads re-register by name each time (registry path),
      // half bump a pre-registered handle (hot path). Both must count.
      Counter& mine = telemetry.counter("stress.shared");
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (i % 2 == 0) mine.inc();
        else telemetry.counter("stress.shared").inc();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(telemetry.counter("stress.shared").value(),
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
}

TEST(TelemetryStress, DistinctNamesRegisterConcurrently) {
  Telemetry telemetry;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&telemetry, t] {
      const std::string name = "stress.per_thread." + std::to_string(t);
      for (int i = 0; i < kOpsPerThread; ++i) telemetry.counter(name).inc();
      telemetry.gauge(name + ".gauge").set(static_cast<double>(t));
    });
  }
  for (auto& t : threads) t.join();

  const TelemetrySnapshot snap = telemetry.snapshot();
  for (int t = 0; t < kThreads; ++t) {
    const std::string name = "stress.per_thread." + std::to_string(t);
    EXPECT_EQ(snap.counter(name), static_cast<std::uint64_t>(kOpsPerThread)) << name;
    EXPECT_EQ(snap.gauge(name + ".gauge"), static_cast<double>(t));
  }
}

TEST(TelemetryStress, SharedHistogramKeepsEverySample) {
  // Lock-free adds: after the threads join, the buckets sum to the count
  // and the count to the number of adds, exactly, and the histogram equals
  // one that saw the same values from a single thread.
  Telemetry telemetry;
  const auto value_of = [](int t, int i) {
    return std::ldexp(1.0 + static_cast<double>(i % 97) / 97.0, (t * kOpsPerThread + i) % 40 - 8);
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&telemetry, &value_of, t] {
      LatencyHistogram& hist = telemetry.histogram("stress.hist");
      for (int i = 0; i < kOpsPerThread; ++i) hist.add(value_of(t, i));
    });
  }
  for (auto& t : threads) t.join();
  LatencyHistogram serial;
  for (int t = 0; t < kThreads; ++t)
    for (int i = 0; i < kOpsPerThread; ++i) serial.add(value_of(t, i));

  const HistogramSummary s = telemetry.histogram("stress.hist").summary();
  const HistogramSummary want = serial.summary();
  std::uint64_t in_buckets = 0;
  for (const HistogramBucket& b : s.buckets) in_buckets += b.count;
  EXPECT_EQ(in_buckets, s.count);
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(s.buckets, want.buckets);
  EXPECT_EQ(s.min, want.min);
  EXPECT_EQ(s.max, want.max);
  EXPECT_NEAR(s.sum, want.sum, 1e-9 * want.sum);
}

TEST(TelemetryStress, MixedWorkloadSnapshotsWhileWriting) {
  // Snapshot readers racing writers: every snapshot must be internally
  // sane (no torn names, monotone counter reads).
  Telemetry telemetry;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&telemetry, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        telemetry.counter("mixed.ctr").inc();
        telemetry.gauge("mixed.gauge").set(1.0);
        telemetry.histogram("mixed.hist").add(0.5);
      }
    });
  }
  std::uint64_t last = 0;
  for (int i = 0; i < 200; ++i) {
    const TelemetrySnapshot snap = telemetry.snapshot();
    const std::uint64_t now = snap.counter("mixed.ctr");
    EXPECT_GE(now, last);
    last = now;
    // A histogram read mid-add is still whole: its buckets sum to its count.
    if (auto it = snap.histograms.find("mixed.hist"); it != snap.histograms.end()) {
      std::uint64_t in_buckets = 0;
      for (const HistogramBucket& b : it->second.buckets) in_buckets += b.count;
      EXPECT_EQ(in_buckets, it->second.count);
    }
  }
  stop = true;
  for (auto& t : writers) t.join();
}

}  // namespace
}  // namespace viprof::support
