// Contention-instrumented locks and trace-context plumbing (DESIGN.md
// §13): the uncontended fast path counts but never clocks, genuine waits
// land in the lock.<name>.wait_ns histogram plus waiter/holder spans, and
// detached locks degrade to plain mutexes. The concurrent cases double as
// TSan subjects — the telemetry suite runs under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "support/telemetry.hpp"
#include "support/traced_mutex.hpp"

namespace viprof::support {
namespace {

TEST(TraceContext, MintIsDeterministicAndNeverZero) {
  const TraceContext a = TraceContext::mint("sess-0");
  const TraceContext b = TraceContext::mint("sess-0");
  const TraceContext c = TraceContext::mint("sess-1");
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(a.trace_id, b.trace_id);  // same session ⇒ same trace, any shard
  EXPECT_NE(a.trace_id, c.trace_id);
  EXPECT_TRUE(TraceContext::mint("").valid());
  EXPECT_FALSE(TraceContext{}.valid());
}

TEST(ThreadOrdinal, DenseDistinctAndStable) {
  EXPECT_GE(this_thread_ordinal(), 1u);
  EXPECT_EQ(this_thread_ordinal(), this_thread_ordinal());

  std::mutex mu;
  std::set<std::uint32_t> seen;
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      const std::uint32_t mine = this_thread_ordinal();
      EXPECT_EQ(mine, this_thread_ordinal());
      std::lock_guard<std::mutex> lock(mu);
      seen.insert(mine);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(seen.size(), 8u);  // every thread got its own lane
}

TEST(TracedMutex, DetachedDegradesToPlainMutex) {
  TracedMutex mu("test.detached");
  {
    std::lock_guard<TracedMutex> lock(mu);
  }
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
  EXPECT_STREQ(mu.name(), "test.detached");
}

TEST(TracedMutex, UncontendedFastPathCountsButNeverClocks) {
  Telemetry telemetry;
  TracedMutex mu("test.fast");
  mu.attach(telemetry);
  for (int i = 0; i < 100; ++i) {
    std::lock_guard<TracedMutex> lock(mu);
  }
  const TelemetrySnapshot snap = telemetry.snapshot();
  EXPECT_EQ(snap.counter("lock.test.fast.acquired"), 100u);
  EXPECT_EQ(snap.counter("lock.test.fast.contended"), 0u);
  ASSERT_EQ(snap.histograms.count("lock.test.fast.wait_ns"), 1u);
  EXPECT_EQ(snap.histograms.at("lock.test.fast.wait_ns").count, 0u);
  EXPECT_EQ(telemetry.spans().recorded(), 0u);  // no spans off the fast path
}

TEST(TracedMutex, ContendedAcquisitionRecordsWaitAndHoldSpans) {
  Telemetry telemetry;
  TracedMutex mu("test.hot");
  mu.attach(telemetry);

  // The 20 ms hold is a generous window, but a loaded scheduler can still
  // delay this thread past it — retry until the slow path actually fired.
  std::uint64_t contended = 0;
  std::uint64_t rounds = 0;
  while (contended == 0 && ++rounds <= 50) {
    std::atomic<bool> held{false};
    std::thread holder([&] {
      mu.lock();
      held.store(true);
      // Keep the lock long enough that the main thread's try_lock misses
      // and it takes the timed slow path.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      mu.unlock();
    });
    while (!held.load()) std::this_thread::yield();
    {
      std::lock_guard<TracedMutex> lock(mu);  // must wait for the holder
    }
    holder.join();
    contended = telemetry.snapshot().counter("lock.test.hot.contended");
  }
  ASSERT_GT(contended, 0u);

  const TelemetrySnapshot snap = telemetry.snapshot();
  EXPECT_EQ(snap.counter("lock.test.hot.acquired"), 2 * rounds);
  const HistogramSummary wait = snap.histograms.at("lock.test.hot.wait_ns");
  EXPECT_EQ(wait.count, contended);  // counter and histogram in lockstep
  EXPECT_GT(wait.sum, 0.0);

  // Both sides of the story: the waiter's span and the holder's span,
  // named after the lock so the contention report and the trace agree.
  bool saw_wait = false, saw_hold = false;
  for (const Span& s : telemetry.spans().spans()) {
    if (std::string(s.cat) == "lock.wait") saw_wait = true;
    if (std::string(s.cat) == "lock.hold") saw_hold = true;
    EXPECT_STREQ(s.name, "test.hot");
    EXPECT_GE(s.end_cycle, s.begin_cycle);
  }
  EXPECT_TRUE(saw_wait);
  EXPECT_TRUE(saw_hold);
}

TEST(TracedMutex, TryLockFailureIsNotAnAcquisition) {
  Telemetry telemetry;
  TracedMutex mu("test.try");
  mu.attach(telemetry);
  mu.lock();
  EXPECT_FALSE(mu.try_lock());
  mu.unlock();
  EXPECT_EQ(telemetry.snapshot().counter("lock.test.try.acquired"), 1u);
}

TEST(TracedMutex, WorksUnderConditionVariableAny) {
  // cv waits relock through TracedMutex::lock, so a slow wake-up counts as
  // real contention — exactly what the reorder buffer's applied_cv_ needs.
  Telemetry telemetry;
  TracedMutex mu("test.cv");
  mu.attach(telemetry);
  std::condition_variable_any cv;
  bool ready = false;
  std::thread signaller([&] {
    std::lock_guard<TracedMutex> lock(mu);
    ready = true;
    cv.notify_one();
  });
  {
    std::unique_lock<TracedMutex> lock(mu);
    cv.wait(lock, [&] { return ready; });
  }
  signaller.join();
  EXPECT_GE(telemetry.snapshot().counter("lock.test.cv.acquired"), 2u);
}

TEST(TracedMutexStress, EveryAcquisitionCountedUnderContention) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 5'000;
  Telemetry telemetry;
  TracedMutex mu("test.stress");
  mu.attach(telemetry);

  std::uint64_t guarded = 0;  // the payload the lock actually protects
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::lock_guard<TracedMutex> lock(mu);
        ++guarded;
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(guarded, static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  const TelemetrySnapshot snap = telemetry.snapshot();
  EXPECT_EQ(snap.counter("lock.test.stress.acquired"),
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  // Contended count and wait samples must agree exactly.
  EXPECT_EQ(snap.counter("lock.test.stress.contended"),
            snap.histograms.at("lock.test.stress.wait_ns").count);
}

TEST(SpanTracerStress, ConcurrentRecordingKeepsExactAccounting) {
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 4'000;
  constexpr std::size_t kCapacity = 1024;
  Telemetry telemetry(kCapacity);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&telemetry, t] {
      const std::uint64_t trace =
          TraceContext::mint("stress-" + std::to_string(t)).trace_id;
      for (int i = 0; i < kSpansPerThread; ++i)
        telemetry.spans().record("span.stress", "test", i, i + 1,
                                 SpanTracer::kNoArg, trace);
    });
  }
  // Concurrent readers: exports must be safe against in-flight recording.
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      (void)telemetry.spans().to_chrome_json(1000.0);
      (void)telemetry.snapshot();
    }
  });
  for (auto& t : threads) t.join();
  stop.store(true);
  reader.join();

  const std::uint64_t total =
      static_cast<std::uint64_t>(kThreads) * kSpansPerThread;
  EXPECT_EQ(telemetry.spans().recorded(), total);
  EXPECT_EQ(telemetry.spans().dropped(), total - kCapacity);
  EXPECT_EQ(telemetry.spans().spans().size(), kCapacity);
  // The drop accounting is injected into every snapshot (never silent).
  const TelemetrySnapshot snap = telemetry.snapshot();
  EXPECT_EQ(snap.counter("telemetry.spans.recorded"), total);
  EXPECT_EQ(snap.counter("telemetry.spans.dropped"), total - kCapacity);
}

TEST(SpanTracer, DisabledKillSwitchRecordsNothing) {
  Telemetry telemetry;
  telemetry.spans().set_enabled(false);
  telemetry.spans().record("span.off", "test", 0, 10);
  telemetry.spans().instant("mark.off", "test", 5);
  EXPECT_EQ(telemetry.spans().recorded(), 0u);
  telemetry.spans().set_enabled(true);
  telemetry.spans().record("span.on", "test", 0, 10);
  EXPECT_EQ(telemetry.spans().recorded(), 1u);
}

}  // namespace
}  // namespace viprof::support
