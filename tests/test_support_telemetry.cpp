#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "support/telemetry.hpp"

namespace viprof::support {
namespace {

// --- Registry basics --------------------------------------------------------

TEST(Telemetry, RegistrationIsIdempotent) {
  Telemetry tele;
  Counter& a = tele.counter("daemon.drained");
  Counter& b = tele.counter("daemon.drained");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);

  LatencyHistogram& h1 = tele.histogram("daemon.drain.backlog");
  LatencyHistogram& h2 = tele.histogram("daemon.drain.backlog");
  EXPECT_EQ(&h1, &h2);
}

TEST(Telemetry, GaugeLastWriteWins) {
  Telemetry tele;
  Gauge& g = tele.gauge("profiler.overhead_pct");
  g.set(4.5);
  g.set(5.25);
  EXPECT_DOUBLE_EQ(g.value(), 5.25);
  EXPECT_DOUBLE_EQ(tele.snapshot().gauge("profiler.overhead_pct"), 5.25);
}

TEST(Telemetry, SnapshotCapturesAllKinds) {
  Telemetry tele;
  tele.counter("a.count").inc(7);
  tele.gauge("b.gauge").set(-1.5);
  tele.histogram("c.hist").add(2.0);
  const TelemetrySnapshot snap = tele.snapshot();
  EXPECT_EQ(snap.counter("a.count"), 7u);
  EXPECT_DOUBLE_EQ(snap.gauge("b.gauge"), -1.5);
  ASSERT_EQ(snap.histograms.count("c.hist"), 1u);
  EXPECT_EQ(snap.histograms.at("c.hist").count, 1u);
  EXPECT_EQ(snap.counter("missing"), 0u);  // absent names read as zero
}

// --- Registry concurrency: a daemon thread and an agent thread hammer the
// same registry; registration races and handle increments must both be safe
// and lossless (the NMI-path contract).

TEST(Telemetry, ConcurrentCountersAreLossless) {
  Telemetry tele;
  constexpr int kPerThread = 50'000;
  auto worker = [&tele](const char* own_metric) {
    Counter& own = tele.counter(own_metric);
    Counter& shared = tele.counter("shared.total");
    LatencyHistogram& hist = tele.histogram("shared.latency");
    for (int i = 0; i < kPerThread; ++i) {
      own.inc();
      shared.inc();
      if (i % 64 == 0) hist.add(static_cast<double>(i % 1000));
    }
  };
  std::thread daemon(worker, "daemon.drained");
  std::thread agent(worker, "agent.compiles_logged");
  daemon.join();
  agent.join();

  const TelemetrySnapshot snap = tele.snapshot();
  EXPECT_EQ(snap.counter("daemon.drained"), static_cast<std::uint64_t>(kPerThread));
  EXPECT_EQ(snap.counter("agent.compiles_logged"),
            static_cast<std::uint64_t>(kPerThread));
  EXPECT_EQ(snap.counter("shared.total"), static_cast<std::uint64_t>(2 * kPerThread));
  EXPECT_EQ(snap.histograms.at("shared.latency").count,
            2u * ((kPerThread + 63) / 64));
}

// --- Histogram percentile edge cases ---------------------------------------

TEST(LatencyHistogramTest, EmptySummaryIsAllZero) {
  LatencyHistogram h;
  const HistogramSummary s = h.summary();
  EXPECT_EQ(s.count, 0u);
  EXPECT_TRUE(s.buckets.empty());
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
  EXPECT_DOUBLE_EQ(s.p50(), 0.0);
  EXPECT_DOUBLE_EQ(s.p99(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(LatencyHistogramTest, SingleSampleReportsThatSample) {
  LatencyHistogram h;
  h.add(37.0);
  const HistogramSummary s = h.summary();
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.min, 37.0);
  EXPECT_DOUBLE_EQ(s.max, 37.0);
  // Every percentile of a one-sample distribution is the sample itself, not
  // a bucket midpoint.
  EXPECT_DOUBLE_EQ(s.p50(), 37.0);
  EXPECT_DOUBLE_EQ(s.p90(), 37.0);
  EXPECT_DOUBLE_EQ(s.p99(), 37.0);
}

TEST(LatencyHistogramTest, SaturatingValuesClampToObservedMax) {
  LatencyHistogram h;  // 1e18 is beyond 2^48: it lands in the high end bucket
  for (int i = 0; i < 100; ++i) h.add(1e18);
  const HistogramSummary s = h.summary();
  EXPECT_EQ(s.count, 100u);
  ASSERT_EQ(s.buckets.size(), 1u);
  EXPECT_EQ(s.buckets[0].index, HistogramLayout::kBuckets - 1);
  // The whole mass sits in the end bucket: percentiles saturate at the
  // exact max instead of inventing a value.
  EXPECT_DOUBLE_EQ(s.p50(), 1e18);
  EXPECT_DOUBLE_EQ(s.p99(), 1e18);
  EXPECT_DOUBLE_EQ(s.max, 1e18);

  LatencyHistogram low;  // zero and negatives land in the low end bucket
  low.add(0.0, 5);
  low.add(-3.0);
  low.add(1e-9);
  const HistogramSummary l = low.summary();
  ASSERT_EQ(l.buckets.size(), 1u);
  EXPECT_EQ(l.buckets[0].index, 0u);
  EXPECT_DOUBLE_EQ(l.min, -3.0);
  EXPECT_DOUBLE_EQ(l.p50(), 0.0);
  EXPECT_DOUBLE_EQ(l.p99(), 0.0);  // the low end bucket reports 0
  EXPECT_DOUBLE_EQ(l.percentile(0.0), 0.0);
}

TEST(LatencyHistogramTest, PercentilesAreMonotoneAndClamped) {
  LatencyHistogram h;
  for (int i = 1; i <= 100; ++i) h.add(static_cast<double>(i));
  const HistogramSummary s = h.summary();
  EXPECT_LE(s.p50(), s.p90());
  EXPECT_LE(s.p90(), s.p99());
  EXPECT_GE(s.p50(), s.min);
  EXPECT_LE(s.p99(), s.max);
  // Within 1/64 of the rank-ceil(q*n) value (50, 90, 99).
  EXPECT_NEAR(s.p50(), 50.0, 50.0 / 64);
  EXPECT_NEAR(s.p90(), 90.0, 90.0 / 64);
  EXPECT_NEAR(s.p99(), 99.0, 99.0 / 64);
  EXPECT_NEAR(s.percentile(0.0), 1.0, 1.0 / 64);  // rank 1
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);     // rank n, clamped to the max
}

TEST(LatencyHistogramTest, WeightedAddEqualsRepeatedAdds) {
  LatencyHistogram weighted, repeated;
  weighted.add(0.5, 10);
  weighted.add(2.5, 5);
  for (int i = 0; i < 10; ++i) repeated.add(0.5);
  for (int i = 0; i < 5; ++i) repeated.add(2.5);
  const HistogramSummary w = weighted.summary();
  const HistogramSummary r = repeated.summary();
  EXPECT_EQ(w.count, 15u);
  EXPECT_EQ(w.buckets, r.buckets);
  EXPECT_DOUBLE_EQ(w.sum, r.sum);
  EXPECT_NEAR(w.p50(), 0.5, 0.5 / 64);  // rank 8 of 15 is a 0.5
  weighted.add(7.0, 0);        // a zero-weight add records nothing
  weighted.add(std::nan(""));  // and so does NaN
  EXPECT_EQ(weighted.summary().count, 15u);
  EXPECT_DOUBLE_EQ(weighted.summary().max, 2.5);
}

TEST(HistogramLayoutTest, BucketsSplitEachPowerOfTwoIntoThirtyTwo) {
  using L = HistogramLayout;
  EXPECT_EQ(L::bucket_of(0.0), 0u);
  EXPECT_EQ(L::bucket_of(-1.0), 0u);
  EXPECT_EQ(L::bucket_of(std::ldexp(1.0, L::kMinExp) * (1 - 1e-12)), 0u);
  EXPECT_EQ(L::bucket_of(std::ldexp(1.0, L::kMinExp)), 1u);
  EXPECT_EQ(L::bucket_of(std::nextafter(std::ldexp(1.0, L::kMaxExp), 0.0)),
            L::kBuckets - 2);
  EXPECT_EQ(L::bucket_of(std::ldexp(1.0, L::kMaxExp)), L::kBuckets - 1);
  EXPECT_EQ(L::bucket_of(std::numeric_limits<double>::infinity()), L::kBuckets - 1);
  // Every power of two [2^e, 2^(e+1)) spans exactly 32 buckets.
  EXPECT_EQ(L::bucket_of(2.0) - L::bucket_of(1.0), 32u);
  EXPECT_EQ(L::bucket_of(1.0 + 1.0 / 32) - L::bucket_of(1.0), 1u);
  EXPECT_EQ(L::bucket_of(1.0 + 1.0 / 32 - 1e-12), L::bucket_of(1.0));
  // Every in-range bucket's value is its midpoint: inside the bucket and
  // within 1/64 of any value that lands in it.
  std::uint32_t last = 0;
  for (double v = std::ldexp(1.0, L::kMinExp); v < std::ldexp(1.0, L::kMaxExp);
       v *= 1.0037) {
    const std::uint32_t b = L::bucket_of(v);
    ASSERT_GE(b, last) << v;  // monotone in the value
    last = b;
    EXPECT_EQ(L::bucket_of(L::value_of(b)), b) << v;
    EXPECT_LE(std::abs(L::value_of(b) - v), v / 64) << v;
  }
  EXPECT_EQ(last, L::kBuckets - 2);
}

// --- Span ring --------------------------------------------------------------

TEST(SpanTracerTest, OverflowDropsOldestWholeSpans) {
  SpanTracer tracer(4);
  for (std::uint64_t i = 0; i < 7; ++i) {
    tracer.record("span", "test", i * 100, i * 100 + 50);
  }
  EXPECT_EQ(tracer.recorded(), 7u);
  EXPECT_EQ(tracer.dropped(), 3u);  // the 3 oldest whole spans overwritten
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  // Survivors are the newest four, oldest first, each intact begin/end pair.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].begin_cycle, (i + 3) * 100);
    EXPECT_EQ(spans[i].end_cycle, (i + 3) * 100 + 50);
  }
}

TEST(SpanTracerTest, InstantAndArgSpans) {
  SpanTracer tracer(8);
  tracer.record("jvm.gc", "gc", 100, 900, /*arg=*/3);
  tracer.instant("daemon.crash", "daemon", 500);
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].arg, 3u);
  EXPECT_FALSE(spans[0].instant);
  EXPECT_TRUE(spans[1].instant);
  EXPECT_EQ(spans[1].arg, SpanTracer::kNoArg);
}

TEST(SpanTracerTest, ChromeTraceJsonIsWellFormed) {
  SpanTracer tracer(16);
  tracer.record("daemon.drain", "daemon", 3400, 6800);
  tracer.record("agent.map_write", "gc", 10'000, 20'000, /*arg=*/2);
  tracer.instant("daemon.crash", "daemon", 30'000);
  const std::string json = tracer.to_chrome_json(3400.0);
  EXPECT_TRUE(json_well_formed(json));
  // Chrome trace format essentials: the traceEvents array, complete-span
  // and instant phases, and the epoch argument.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"epoch\":2"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1"), std::string::npos);  // 3400 cycles = 1 µs
}

TEST(SpanTracerTest, EmptyTraceIsWellFormed) {
  SpanTracer tracer(4);
  EXPECT_TRUE(json_well_formed(tracer.to_chrome_json(3400.0)));
}

// --- Snapshot serialisation -------------------------------------------------

TEST(TelemetrySnapshotTest, JsonRoundTrip) {
  Telemetry tele;
  tele.counter("daemon.drained").inc(123);
  tele.gauge("profiler.overhead_pct").set(4.875);
  LatencyHistogram& h = tele.histogram("resolver.walkback.depth");
  h.add(0);
  h.add(1);
  h.add(5);
  const TelemetrySnapshot snap = tele.snapshot();

  const std::string json = snap.to_json();
  EXPECT_TRUE(json_well_formed(json));
  const auto loaded = TelemetrySnapshot::from_json(json);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->counters, snap.counters);
  EXPECT_EQ(loaded->gauges, snap.gauges);
  ASSERT_EQ(loaded->histograms.size(), 1u);
  const HistogramSummary& hs = loaded->histograms.at("resolver.walkback.depth");
  EXPECT_EQ(hs.count, 3u);
  EXPECT_DOUBLE_EQ(hs.min, 0.0);
  EXPECT_DOUBLE_EQ(hs.max, 5.0);
  const HistogramSummary& orig = snap.histograms.at("resolver.walkback.depth");
  EXPECT_EQ(hs.buckets, orig.buckets);
  EXPECT_DOUBLE_EQ(hs.p50(), orig.p50());
  EXPECT_EQ(loaded->to_json(), json);  // the written form is a fixed point
}

TEST(TelemetrySnapshotTest, FromJsonRejectsGarbage) {
  EXPECT_FALSE(TelemetrySnapshot::from_json("").has_value());
  EXPECT_FALSE(TelemetrySnapshot::from_json("{").has_value());
  EXPECT_FALSE(TelemetrySnapshot::from_json("[1,2]").has_value());
  EXPECT_FALSE(TelemetrySnapshot::from_json("{\"counters\": {\"x\": \"nan\"}}")
                   .has_value());
  EXPECT_FALSE(TelemetrySnapshot::from_json("{} trailing").has_value());
}

TEST(TelemetrySnapshotTest, FromJsonRejectsCountsACastWouldGetWrong) {
  const auto counter = [](const std::string& v) {
    return TelemetrySnapshot::from_json("{\"counters\": {\"x\": " + v + "}}");
  };
  ASSERT_TRUE(counter("18446744073709551615").has_value());
  EXPECT_EQ(counter("18446744073709551615")->counter("x"), ~0ull);  // exact
  for (const char* bad : {"-1", "1.5", "1e3", "18446744073709551616", "1-2", "1e999"})
    EXPECT_FALSE(counter(bad).has_value()) << bad;

  const auto hist = [](const std::string& body) {
    return TelemetrySnapshot::from_json("{\"histograms\": {\"h\": {" + body + "}}}");
  };
  const std::string ok = "\"count\": 3, \"sum\": 6, \"min\": 1, \"max\": 3, ";
  ASSERT_TRUE(hist(ok + "\"buckets\": [[513, 1], [545, 1], [561, 1]]").has_value());
  EXPECT_DOUBLE_EQ(
      hist(ok + "\"buckets\": [[513, 1], [545, 1], [561, 1]]")->histograms.at("h").p50(),
      HistogramLayout::value_of(545));
  for (const char* bad : {
           "[[513, 3]]]",                       // (syntax)
           "[[513, 2]]",                        // buckets sum below count
           "[[513, 4]]",                        // above count
           "[[513, 1], [513, 2]]",              // repeated index
           "[[545, 2], [513, 1]]",              // out of order
           "[[513, 0], [545, 3]]",              // an empty bucket
           "[[2050, 3]]",                       // beyond the layout
           "[[-1, 3]]", "[[513.5, 3]]",         // not an index
           "[[513, 1.5], [545, 1.5]]",          // fractional counts
           "[[513, 3, 0]]", "[513, 3]",         // wrong shape
       })
    EXPECT_FALSE(hist(ok + "\"buckets\": " + bad).has_value()) << bad;
  EXPECT_FALSE(hist("\"count\": 3, \"sum\": 6, \"min\": 1, \"max\": 3").has_value());
  EXPECT_FALSE(hist("\"count\": -3, \"sum\": 6, \"min\": 1, \"max\": 3, "
                    "\"buckets\": []").has_value());
  EXPECT_FALSE(hist("\"count\": 1, \"sum\": 6, \"min\": 3, \"max\": 1, "
                    "\"buckets\": [[513, 1]]").has_value());  // min above max
  EXPECT_FALSE(hist("\"count\": 0, \"sum\": 6, \"min\": 0, \"max\": 0, "
                    "\"buckets\": []").has_value());  // an empty one with a sum
  EXPECT_TRUE(hist("\"count\": 0, \"sum\": 0, \"min\": 0, \"max\": 0, "
                   "\"buckets\": []").has_value());
}

TEST(TelemetrySnapshotTest, RenderTextFiltersByPrefix) {
  Telemetry tele;
  tele.counter("daemon.drained").inc(5);
  tele.counter("agent.maps_written").inc(2);
  const TelemetrySnapshot snap = tele.snapshot();
  const std::string all = snap.render_text();
  EXPECT_NE(all.find("daemon.drained"), std::string::npos);
  EXPECT_NE(all.find("agent.maps_written"), std::string::npos);
  const std::string only_daemon = snap.render_text("daemon.");
  EXPECT_NE(only_daemon.find("daemon.drained"), std::string::npos);
  EXPECT_EQ(only_daemon.find("agent.maps_written"), std::string::npos);
}

TEST(TelemetrySnapshotTest, DiffShowsOnlyChangedMetrics) {
  Telemetry tele;
  Counter& changed = tele.counter("daemon.drained");
  tele.counter("daemon.crashes");  // stays zero
  changed.inc(10);
  const TelemetrySnapshot before = tele.snapshot();
  changed.inc(5);
  tele.gauge("profiler.overhead_pct").set(4.5);
  const TelemetrySnapshot after = tele.snapshot();

  const std::string diff = TelemetrySnapshot::render_diff(before, after);
  EXPECT_NE(diff.find("daemon.drained"), std::string::npos);
  EXPECT_NE(diff.find("+5"), std::string::npos);
  EXPECT_NE(diff.find("profiler.overhead_pct"), std::string::npos);
  EXPECT_EQ(diff.find("daemon.crashes"), std::string::npos);

  EXPECT_EQ(TelemetrySnapshot::render_diff(after, after), "(no differences)\n");
}

// --- Summary merging (the contention report's fold) -------------------------

TEST(HistogramSummaryTest, MergedFoldsCountsExactlyAndClampsPercentiles) {
  LatencyHistogram a, b, both;
  for (int i = 0; i < 10; ++i) a.add(5.0);
  for (int i = 0; i < 30; ++i) b.add(50.0);
  both.add(5.0, 10);
  both.add(50.0, 30);
  const HistogramSummary m = HistogramSummary::merged(a.summary(), b.summary());
  EXPECT_EQ(m.count, 40u);
  EXPECT_DOUBLE_EQ(m.sum, 10 * 5.0 + 30 * 50.0);
  EXPECT_DOUBLE_EQ(m.min, 5.0);   // min/max combine exactly, not estimated
  EXPECT_DOUBLE_EQ(m.max, 50.0);
  // A bucket-wise sum: the merge is the histogram that saw both inputs.
  EXPECT_EQ(m.buckets, both.summary().buckets);
  EXPECT_DOUBLE_EQ(m.p50(), 50.0);  // rank 20 is a 50, clamped to the max
  EXPECT_NEAR(m.percentile(0.25), 5.0, 5.0 / 64);
  EXPECT_DOUBLE_EQ(m.p99(), both.summary().p99());

  // Merging with an empty summary is the identity.
  const HistogramSummary id = HistogramSummary::merged(a.summary(), HistogramSummary{});
  EXPECT_EQ(id.count, 10u);
  EXPECT_DOUBLE_EQ(id.max, a.summary().max);
}

TEST(LatencyHistogramTest, BucketMidpointNeverEscapesObservedRange) {
  // Regression for the clamp: all mass in the bucket [7, 7.125), whose
  // midpoint (7.0625) no sample took — the estimate must clamp to the
  // exact min/max, not report the midpoint.
  LatencyHistogram h;
  h.add(7.0);
  h.add(7.0);
  h.add(7.0);
  const HistogramSummary s = h.summary();
  EXPECT_DOUBLE_EQ(s.min, 7.0);
  EXPECT_DOUBLE_EQ(s.max, 7.0);
  EXPECT_DOUBLE_EQ(s.p50(), 7.0);
  EXPECT_DOUBLE_EQ(s.p90(), 7.0);
  EXPECT_DOUBLE_EQ(s.p99(), 7.0);
}

// --- Chrome trace parse + merge ---------------------------------------------

TEST(ChromeTraceTest, ParseReadsBackEveryEvent) {
  SpanTracer tracer(16);
  tracer.record("service.batch.apply", "service", 1000, 4000, /*arg=*/7,
                /*trace=*/0xabcdef);
  tracer.instant("daemon.crash", "daemon", 9000);
  const std::optional<ChromeTrace> trace =
      parse_chrome_trace(tracer.to_chrome_json(1000.0));
  ASSERT_TRUE(trace.has_value());
  ASSERT_EQ(trace->events.size(), 2u);
  const ChromeTraceEvent& x = trace->events[0];
  EXPECT_EQ(x.name, "service.batch.apply");
  EXPECT_EQ(x.ph, "X");
  EXPECT_EQ(x.pid, 1);
  EXPECT_EQ(x.tid, this_thread_ordinal());
  EXPECT_DOUBLE_EQ(x.ts, 1.0);   // 1000 ns at 1000 cycles/µs
  EXPECT_DOUBLE_EQ(x.dur, 3.0);
  // args survive verbatim (trace tag included) for a lossless re-emit.
  EXPECT_NE(x.args_json.find("\"epoch\":7"), std::string::npos);
  EXPECT_NE(x.args_json.find("abcdef"), std::string::npos);
  EXPECT_EQ(trace->events[1].ph, "i");
}

TEST(ChromeTraceTest, ParseRejectsNonTraces) {
  EXPECT_FALSE(parse_chrome_trace("not json").has_value());
  EXPECT_FALSE(parse_chrome_trace("{}").has_value());
  EXPECT_FALSE(parse_chrome_trace("{\"traceEvents\":7}").has_value());
  const auto empty = parse_chrome_trace("{\"traceEvents\":[]}");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->events.empty());
}

TEST(ChromeTraceTest, TraceMergeDecodesUnicodeEscapesAndRoundTrips) {
  // `viprof_stat trace-merge` of a trace another tool wrote with \u
  // escapes: "café" as café comes out as the UTF-8 text "café", and
  // reading and merging that again changes nothing.
  const auto named = [](const std::string& name) {
    return parse_chrome_trace("{\"traceEvents\":[{\"name\":\"" + name +
                              "\",\"ph\":\"X\",\"ts\":1,\"dur\":2}]}");
  };
  const auto cafe = named("caf\\u00e9");
  ASSERT_TRUE(cafe.has_value());
  EXPECT_EQ(cafe->events[0].name, "caf\xc3\xa9");
  const std::string merged = merge_chrome_traces({{"shard", *cafe}});
  EXPECT_TRUE(json_well_formed(merged));
  EXPECT_NE(merged.find("\"caf\xc3\xa9\""), std::string::npos) << merged;
  const auto again = parse_chrome_trace(merged);
  ASSERT_TRUE(again.has_value());
  bool found = false;
  for (const ChromeTraceEvent& e : again->events) found |= e.name == "caf\xc3\xa9";
  EXPECT_TRUE(found);
  EXPECT_EQ(merge_chrome_traces({{"shard", *again}}), merged);

  // Every code point width, a surrogate pair included.
  ASSERT_TRUE(named("\\u0041\\u00e9\\u20ac\\ud83d\\ude00").has_value());
  EXPECT_EQ(named("\\u0041\\u00e9\\u20ac\\ud83d\\ude00")->events[0].name,
            "A\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80");
  // Lone or mismatched surrogates and short or non-hex escapes are rejected.
  for (const char* bad : {"\\ud83d", "\\ude00", "\\ud83dx", "\\ud83d\\u0041", "\\ud83d\\ud83d",
                          "\\u00e", "\\u00zz", "\\u"})
    EXPECT_FALSE(named(bad).has_value()) << bad;
}

TEST(ChromeTraceTest, ControlBytesAreWrittenAsUnicodeEscapes) {
  ChromeTrace trace;
  ChromeTraceEvent e;
  e.name = std::string("a\x01" "b\x1f" "c\n\t\r\"\\", 10) + std::string(1, '\0');
  e.cat = "t";
  e.ph = "X";
  trace.events.push_back(e);
  const std::string merged = merge_chrome_traces({{"shard", trace}});
  EXPECT_TRUE(json_well_formed(merged));
  EXPECT_NE(merged.find("a\\u0001b\\u001fc\\n\\t\\r\\\"\\\\\\u0000"), std::string::npos)
      << merged;
  // No raw control byte but the writer's own line breaks.
  EXPECT_EQ(std::count_if(merged.begin(), merged.end(),
                          [](char c) { return static_cast<unsigned char>(c) < 0x20 && c != '\n'; }),
            0)
      << merged;
  const auto again = parse_chrome_trace(merged);
  ASSERT_TRUE(again.has_value());
  bool found = false;
  for (const ChromeTraceEvent& ev : again->events) found |= ev.name == e.name;
  EXPECT_TRUE(found);
}

TEST(ChromeTraceTest, ParseRejectsIdsACastWouldGetWrong) {
  const auto event = [](const std::string& fields) {
    return parse_chrome_trace("{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\"" +
                              fields + "}]}");
  };
  const auto ok = event(",\"pid\":2147483647,\"tid\":4294967295,\"ts\":-1.5");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->events[0].pid, 2147483647);
  EXPECT_EQ(ok->events[0].tid, 4294967295u);
  EXPECT_DOUBLE_EQ(ok->events[0].ts, -1.5);  // timestamps may be any number
  ASSERT_TRUE(event("").has_value());
  EXPECT_EQ(event("")->events[0].pid, 1);  // absent ids keep the default
  for (const char* bad : {",\"pid\":-1", ",\"pid\":1.5", ",\"pid\":2147483648",
                          ",\"pid\":1e3", ",\"tid\":-2", ",\"tid\":4294967296",
                          ",\"tid\":0.25", ",\"tid\":\"7\"", ",\"pid\":1e999"})
    EXPECT_FALSE(event(bad).has_value()) << bad;
}

TEST(ChromeTraceTest, MergeAssignsPidsNamesProcessesAndRebasesTime) {
  // Two shard rings with different time origins: the merge must give each
  // its own pid lane, name the lanes, and rebase to a common zero.
  SpanTracer early(8), late(8);
  early.record("service.batch.parse", "service", 5'000, 6'000);
  late.record("service.flush", "service", 905'000, 909'000);
  late.instant("mark", "service", 910'000);

  std::vector<std::pair<std::string, ChromeTrace>> inputs;
  inputs.emplace_back("shard-0", *parse_chrome_trace(early.to_chrome_json(1000.0)));
  inputs.emplace_back("shard-1", *parse_chrome_trace(late.to_chrome_json(1000.0)));
  const std::string merged = merge_chrome_traces(inputs);
  EXPECT_TRUE(json_well_formed(merged));

  const std::optional<ChromeTrace> out = parse_chrome_trace(merged);
  ASSERT_TRUE(out.has_value());
  // 2 process_name metadata + 3 events.
  ASSERT_EQ(out->events.size(), 5u);
  int meta = 0;
  double min_ts = 1e18;
  for (const ChromeTraceEvent& e : out->events) {
    EXPECT_FALSE(e.name.empty());
    EXPECT_GE(e.pid, 1);
    EXPECT_LE(e.pid, 2);
    if (e.ph == "M") {
      ++meta;
      EXPECT_EQ(e.name, "process_name");
      continue;
    }
    min_ts = std::min(min_ts, e.ts);
    EXPECT_GE(e.ts, 0.0);
    if (e.ph == "X") {
      EXPECT_GT(e.dur, 0.0);
    }
  }
  EXPECT_EQ(meta, 2);
  EXPECT_DOUBLE_EQ(min_ts, 0.0);  // rebased: earliest event sits at zero
  EXPECT_NE(merged.find("\"shard-0\""), std::string::npos);
  EXPECT_NE(merged.find("\"shard-1\""), std::string::npos);

  // Lane identity: shard-0's event is pid 1, shard-1's pid 2.
  for (const ChromeTraceEvent& e : out->events) {
    if (e.name == "service.batch.parse") {
      EXPECT_EQ(e.pid, 1);
    }
    if (e.name == "service.flush") {
      EXPECT_EQ(e.pid, 2);
    }
  }
}

TEST(ChromeTraceTest, MergeSkipsIncomingMetadataAndKeepsTids) {
  // A merged trace re-merged must not duplicate process_name records, and
  // per-thread lanes survive both hops.
  SpanTracer tracer(8);
  tracer.record("a", "t", 0, 1000);
  std::vector<std::pair<std::string, ChromeTrace>> first;
  first.emplace_back("inner", *parse_chrome_trace(tracer.to_chrome_json(1000.0)));
  const std::string once = merge_chrome_traces(first);

  std::vector<std::pair<std::string, ChromeTrace>> second;
  second.emplace_back("outer", *parse_chrome_trace(once));
  const std::optional<ChromeTrace> out = parse_chrome_trace(merge_chrome_traces(second));
  ASSERT_TRUE(out.has_value());
  int meta = 0;
  for (const ChromeTraceEvent& e : out->events)
    if (e.ph == "M") ++meta;
  EXPECT_EQ(meta, 1);  // one fresh "outer" label, the stale one dropped
  ASSERT_EQ(out->events.size(), 2u);
  EXPECT_EQ(out->events[1].tid, this_thread_ordinal());
}

TEST(TelemetrySnapshotTest, SnapshotSurfacesSpanRingDrops) {
  Telemetry tele(4);
  for (int i = 0; i < 7; ++i) tele.spans().record("s", "t", i, i + 1);
  const TelemetrySnapshot snap = tele.snapshot();
  EXPECT_EQ(snap.counter("telemetry.spans.recorded"), 7u);
  EXPECT_EQ(snap.counter("telemetry.spans.dropped"), 3u);
}

}  // namespace
}  // namespace viprof::support
