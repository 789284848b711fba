// Metrics and tracing unit suite: histogram bucket boundaries and quantile
// extraction on known distributions, counter/gauge behavior under
// concurrent writers (the TSan CI job runs this binary), registry
// sharing/snapshot isolation, span-tree assembly from lexical nesting, and
// the disabled-tracer fast path that the overhead contract depends on.

#include "common/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/trace.h"

namespace stmaker {
namespace {

// --------------------------------------------------------------------------
// Counter / Gauge
// --------------------------------------------------------------------------

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(CounterTest, ConcurrentIncrementsLoseNothing) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetAndAddFromManyThreads) {
  Gauge g;
  g.Set(100);
  EXPECT_EQ(g.value(), 100);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&g] {
      for (int i = 0; i < 1000; ++i) g.Add(1);
      for (int i = 0; i < 1000; ++i) g.Add(-1);
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(g.value(), 100);  // adds and subtracts cancel exactly
}

// --------------------------------------------------------------------------
// Histogram: bucket boundaries
// --------------------------------------------------------------------------

TEST(HistogramTest, ValuesLandInTheRightBuckets) {
  // Bucket i holds v with bounds[i-1] < v <= bounds[i]; an upper bound is
  // inclusive, matching the snapshot's interpolation assumptions.
  Histogram h({1.0, 10.0, 100.0});
  h.Observe(0.5);    // bucket 0 (v <= 1)
  h.Observe(1.0);    // bucket 0 (upper bound inclusive)
  h.Observe(1.001);  // bucket 1
  h.Observe(10.0);   // bucket 1
  h.Observe(99.9);   // bucket 2
  h.Observe(100.0);  // bucket 2
  h.Observe(100.1);  // overflow
  h.Observe(1e9);    // overflow

  HistogramSnapshot s = h.Snapshot();
  ASSERT_EQ(s.counts.size(), 4u);  // 3 finite + overflow
  EXPECT_EQ(s.counts[0], 2u);
  EXPECT_EQ(s.counts[1], 2u);
  EXPECT_EQ(s.counts[2], 2u);
  EXPECT_EQ(s.counts[3], 2u);
  EXPECT_EQ(s.count, 8u);
}

TEST(HistogramTest, SumAndMeanTrackObservations) {
  Histogram h({1.0, 2.0});
  h.Observe(0.5);
  h.Observe(1.5);
  h.Observe(4.0);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_DOUBLE_EQ(s.sum, 6.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
}

TEST(HistogramTest, DefaultLatencyBoundsAreStrictlyIncreasing) {
  std::vector<double> bounds = Histogram::DefaultLatencyBoundsMs();
  ASSERT_FALSE(bounds.empty());
  ASSERT_LE(bounds.size(), Histogram::kMaxBuckets);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
  // The finite range must comfortably cover sub-ms stage latencies up to
  // multi-second outliers.
  EXPECT_LE(bounds.front(), 0.01);
  EXPECT_GE(bounds.back(), 1000.0);
}

TEST(HistogramTest, ConcurrentObservationsLoseNothing) {
  Histogram h({1.0, 10.0, 100.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Observe(static_cast<double>((t + i) % 120));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kPerThread);
  HistogramSnapshot s = h.Snapshot();
  uint64_t bucket_total = 0;
  for (uint64_t c : s.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, s.count);
}

// --------------------------------------------------------------------------
// Histogram: quantiles on known distributions
// --------------------------------------------------------------------------

TEST(HistogramQuantileTest, EmptyHistogramReportsZero) {
  Histogram h({1.0, 2.0});
  HistogramSnapshot s = h.Snapshot();
  EXPECT_DOUBLE_EQ(s.p50(), 0.0);
  EXPECT_DOUBLE_EQ(s.p99(), 0.0);
}

TEST(HistogramQuantileTest, UniformDistributionInterpolatesLinearly) {
  // 100 observations spread uniformly through the single bucket (0, 100]:
  // the interpolation estimator should report q*100 to within one step.
  Histogram h({100.0, 200.0});
  for (int i = 1; i <= 100; ++i) h.Observe(static_cast<double>(i));
  HistogramSnapshot s = h.Snapshot();
  EXPECT_NEAR(s.Quantile(0.50), 50.0, 2.0);
  EXPECT_NEAR(s.Quantile(0.95), 95.0, 2.0);
  EXPECT_NEAR(s.Quantile(0.99), 99.0, 2.0);
  EXPECT_NEAR(s.Quantile(1.00), 100.0, 1e-9);
}

TEST(HistogramQuantileTest, QuantileCrossesBuckets) {
  // 90 observations in (0, 1], 10 in (1, 10]: p50 sits inside the first
  // bucket, p99 inside the second.
  Histogram h({1.0, 10.0});
  for (int i = 0; i < 90; ++i) h.Observe(0.5);
  for (int i = 0; i < 10; ++i) h.Observe(5.0);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_GT(s.p50(), 0.0);
  EXPECT_LE(s.p50(), 1.0);
  EXPECT_GT(s.p99(), 1.0);
  EXPECT_LE(s.p99(), 10.0);
}

TEST(HistogramQuantileTest, OverflowBucketReportsLastFiniteBound) {
  // All mass past the last bound: the estimator cannot invent an upper
  // edge, so every quantile saturates at the last finite bound.
  Histogram h({1.0, 10.0});
  for (int i = 0; i < 50; ++i) h.Observe(1e6);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_DOUBLE_EQ(s.p50(), 10.0);
  EXPECT_DOUBLE_EQ(s.p99(), 10.0);
}

// --------------------------------------------------------------------------
// Registry
// --------------------------------------------------------------------------

TEST(MetricsRegistryTest, SameNameReturnsSameObject) {
  MetricsRegistry registry;
  Counter& a = registry.counter("reg.same");
  Counter& b = registry.counter("reg.same");
  EXPECT_EQ(&a, &b);
  a.Increment();
  EXPECT_EQ(b.value(), 1u);
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndIsolated) {
  MetricsRegistry registry;
  registry.counter("z.last").Increment(3);
  registry.counter("a.first").Increment(1);
  registry.gauge("m.middle").Set(-5);
  registry.histogram("h.lat").Observe(0.5);

  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a.first");
  EXPECT_EQ(snap.counters[1].first, "z.last");
  EXPECT_EQ(snap.counter("a.first"), 1u);
  EXPECT_EQ(snap.counter("z.last"), 3u);
  EXPECT_EQ(snap.counter("never.registered"), 0u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, -5);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count, 1u);

  // A snapshot is a copy: later increments must not leak into it.
  registry.counter("a.first").Increment(100);
  registry.histogram("h.lat").Observe(2.0);
  EXPECT_EQ(snap.counter("a.first"), 1u);
  EXPECT_EQ(snap.histograms[0].second.count, 1u);
}

TEST(MetricsRegistryTest, ConcurrentRegistrationAndRecording) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry, t] {
      // Every thread touches a private name and a shared one, exercising
      // shard registration races and recording races at once.
      Counter& mine =
          registry.counter("conc.private." + std::to_string(t));
      Counter& ours = registry.counter("conc.shared");
      for (int i = 0; i < 1000; ++i) {
        mine.Increment();
        ours.Increment();
        registry.histogram("conc.lat").Observe(0.1 * t);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counter("conc.shared"), kThreads * 1000u);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(snap.counter("conc.private." + std::to_string(t)), 1000u);
  }
}

TEST(MetricsRegistryTest, ToJsonIsOneLineWithAllSections) {
  MetricsRegistry registry;
  registry.counter("c.one").Increment(7);
  registry.gauge("g.one").Set(9);
  registry.histogram("h.one").Observe(1.5);
  std::string json = registry.Snapshot().ToJson();
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"c.one\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"g.one\": 9"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"h.one\""), std::string::npos);
}

TEST(MetricsRegistryTest, ScopedLatencyTimerObservesOnce) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("timer.lat");
  { ScopedLatencyTimer timer(&h); }
  EXPECT_EQ(h.count(), 1u);
  { ScopedLatencyTimer disabled(nullptr); }  // must not crash
  EXPECT_EQ(h.count(), 1u);
}

// --------------------------------------------------------------------------
// Trace / ScopedSpan
// --------------------------------------------------------------------------

TEST(TraceTest, LexicalNestingBecomesParentChild) {
  Trace trace;
  {
    ScopedSpan root(&trace, "root");
    {
      ScopedSpan child(&trace, "child");
      { ScopedSpan grandchild(&trace, "grandchild"); }
    }
    { ScopedSpan sibling(&trace, "sibling"); }
  }
  std::vector<TraceEvent> events = trace.Events();
  ASSERT_EQ(events.size(), 4u);

  // Completion order: innermost destructors run first.
  EXPECT_EQ(events[0].name, "grandchild");
  EXPECT_EQ(events[1].name, "child");
  EXPECT_EQ(events[2].name, "sibling");
  EXPECT_EQ(events[3].name, "root");

  auto find = [&](const std::string& name) -> const TraceEvent& {
    for (const TraceEvent& e : events) {
      if (e.name == name) return e;
    }
    ADD_FAILURE() << "span not found: " << name;
    return events[0];
  };
  const TraceEvent& root = find("root");
  EXPECT_EQ(root.parent, 0u);
  EXPECT_EQ(find("child").parent, root.id);
  EXPECT_EQ(find("grandchild").parent, find("child").id);
  EXPECT_EQ(find("sibling").parent, root.id);

  // Span intervals nest: a child's window sits inside its parent's.
  EXPECT_GE(find("child").start_ms, root.start_ms);
  EXPECT_LE(find("child").end_ms, root.end_ms);
  EXPECT_LE(find("grandchild").end_ms, find("child").end_ms);
}

TEST(TraceTest, DisabledSpanRecordsNothing) {
  // The fast path the overhead contract promises: null trace and null
  // histogram must record nothing anywhere.
  { ScopedSpan off(nullptr, "invisible"); }
  Trace trace;
  { ScopedSpan on(&trace, "visible"); }
  std::vector<TraceEvent> events = trace.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "visible");
}

TEST(TraceTest, HistogramOnlySpanTimesWithoutTracing) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("span.lat");
  { ScopedSpan timing_only(nullptr, "timed", &h); }
  EXPECT_EQ(h.count(), 1u);
}

TEST(TraceTest, SpansOfAnotherTraceDoNotBecomeParents) {
  // Two interleaved traces on one thread: each span must parent only
  // within its own trace, never across.
  Trace a;
  Trace b;
  {
    ScopedSpan outer_a(&a, "outer_a");
    {
      ScopedSpan inner_b(&b, "inner_b");
      { ScopedSpan inner_a(&a, "inner_a"); }
    }
  }
  std::vector<TraceEvent> events_a = a.Events();
  std::vector<TraceEvent> events_b = b.Events();
  ASSERT_EQ(events_a.size(), 2u);
  ASSERT_EQ(events_b.size(), 1u);
  EXPECT_EQ(events_b[0].parent, 0u);  // outer_a is not its parent
  // inner_a's parent is outer_a even though inner_b sits lexically between.
  EXPECT_EQ(events_a[0].name, "inner_a");
  EXPECT_EQ(events_a[1].name, "outer_a");
  EXPECT_EQ(events_a[0].parent, events_a[1].id);
}

TEST(TraceTest, CrossThreadSpansBecomeExtraRoots) {
  Trace trace;
  {
    ScopedSpan root(&trace, "root");
    std::thread worker([&trace] { ScopedSpan span(&trace, "worker"); });
    worker.join();
  }
  std::vector<TraceEvent> events = trace.Events();
  ASSERT_EQ(events.size(), 2u);
  for (const TraceEvent& e : events) {
    EXPECT_EQ(e.parent, 0u) << e.name;  // both are roots
  }
}

TEST(TraceTest, ConcurrentSpansRecordSafely) {
  Trace trace;
  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&trace] {
      for (int i = 0; i < 200; ++i) {
        ScopedSpan outer(&trace, "outer");
        ScopedSpan inner(&trace, "inner");
      }
    });
  }
  for (std::thread& w : workers) w.join();
  std::vector<TraceEvent> events = trace.Events();
  EXPECT_EQ(events.size(), kThreads * 400u);
  // Ids are unique.
  std::vector<uint64_t> ids;
  ids.reserve(events.size());
  for (const TraceEvent& e : events) ids.push_back(e.id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST(TraceTest, ToJsonAssemblesTheTree) {
  Trace trace;
  {
    ScopedSpan root(&trace, "summarize");
    { ScopedSpan a(&trace, "sanitize"); }
    { ScopedSpan b(&trace, "partition"); }
  }
  std::string json = trace.ToJson();
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
  // "sanitize" must appear before "partition" (children sorted by start).
  size_t pos_sanitize = json.find("\"sanitize\"");
  size_t pos_partition = json.find("\"partition\"");
  ASSERT_NE(pos_sanitize, std::string::npos);
  ASSERT_NE(pos_partition, std::string::npos);
  EXPECT_LT(pos_sanitize, pos_partition);
  // Both are inside summarize's children array.
  size_t pos_children = json.find("\"children\"");
  ASSERT_NE(pos_children, std::string::npos);
  EXPECT_LT(pos_children, pos_sanitize);
}

}  // namespace
}  // namespace stmaker
