#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "util/json_parse.hpp"

namespace mocha::obs {
namespace {

TEST(Metrics, CountersSumAcrossThreadsExactly) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < kIncrements; ++i) {
        registry.counter_add("shared.count", 1);
        registry.histogram_record("shared.hist", i % 100);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("shared.count"),
            static_cast<std::int64_t>(kThreads) * kIncrements);
  const HistogramData& hist = snap.histograms.at("shared.hist");
  EXPECT_EQ(hist.count, static_cast<std::uint64_t>(kThreads) * kIncrements);
  EXPECT_EQ(hist.min, 0);
  EXPECT_EQ(hist.max, 99);
}

TEST(Metrics, SnapshotWhileUpdatingIsSafe) {
  MetricsRegistry registry;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      do {
        registry.counter_add("racing.count", 1);
      } while (!stop.load());
    });
  }
  for (int i = 0; i < 50; ++i) {
    const MetricsSnapshot snap = registry.snapshot();
    if (const auto it = snap.counters.find("racing.count");
        it != snap.counters.end()) {
      EXPECT_GE(it->second, 0);
    }
  }
  stop.store(true);
  for (std::thread& t : writers) t.join();
  EXPECT_GT(registry.snapshot().counters.at("racing.count"), 0);
}

TEST(Metrics, GaugeLastWriteWinsAcrossShards) {
  MetricsRegistry registry;
  // Two different threads touch the gauge (two different shards); the
  // later write must win in the merged snapshot regardless of shard order.
  std::thread([&] { registry.gauge_set("g.value", 1); }).join();
  std::thread([&] { registry.gauge_set("g.value", 2); }).join();
  EXPECT_EQ(registry.snapshot().gauges.at("g.value"), 2);
  registry.gauge_set("g.value", 7);
  EXPECT_EQ(registry.snapshot().gauges.at("g.value"), 7);
}

TEST(Metrics, HistogramBucketsAndMerge) {
  EXPECT_EQ(HistogramData::bucket_of(-5), 0);
  EXPECT_EQ(HistogramData::bucket_of(0), 0);
  EXPECT_EQ(HistogramData::bucket_of(1), 1);
  EXPECT_EQ(HistogramData::bucket_of(2), 2);
  EXPECT_EQ(HistogramData::bucket_of(3), 2);
  EXPECT_EQ(HistogramData::bucket_of(4), 3);

  HistogramData a;
  a.add(1);
  a.add(10);
  HistogramData b;
  b.add(100);
  a.merge(b);
  EXPECT_EQ(a.count, 3u);
  EXPECT_EQ(a.sum, 111);
  EXPECT_EQ(a.min, 1);
  EXPECT_EQ(a.max, 100);
  EXPECT_DOUBLE_EQ(a.mean(), 37.0);
}

TEST(Metrics, HistogramPercentiles) {
  HistogramData empty;
  EXPECT_DOUBLE_EQ(empty.percentile(50), 0.0);

  HistogramData h;
  for (int v : {10, 20, 40, 80, 160}) h.add(v);
  // Clamped to the observed range at the extremes.
  EXPECT_DOUBLE_EQ(h.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 160.0);
  // Interpolated estimates stay inside the range and are monotone in p.
  double prev = h.percentile(0);
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    const double value = h.percentile(p);
    EXPECT_GE(value, 10.0);
    EXPECT_LE(value, 160.0);
    EXPECT_GE(value, prev) << "p" << p;
    prev = value;
  }
  // The estimate's error is bounded by one log2 bucket: the median rank
  // lands in bucket [32, 64), so p50 must too.
  EXPECT_GE(h.percentile(50), 32.0);
  EXPECT_LE(h.percentile(50), 64.0);

  // A single value collapses every percentile onto it.
  HistogramData one;
  one.add(1000);
  EXPECT_DOUBLE_EQ(one.percentile(0), 1000.0);
  EXPECT_DOUBLE_EQ(one.percentile(50), 1000.0);
  EXPECT_DOUBLE_EQ(one.percentile(100), 1000.0);
}

TEST(Metrics, ResetDropsValues) {
  MetricsRegistry registry;
  registry.counter_add("c", 3);
  registry.gauge_set("g", 5);
  registry.histogram_record("h", 9);
  registry.reset();
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.histograms.empty());
}

TEST(Metrics, MacrosAreGatedByEnabledFlag) {
  MetricsRegistry& global = MetricsRegistry::global();
  global.reset();
  global.set_enabled(false);
  MOCHA_METRIC_ADD("gated.count", 1);
  MOCHA_METRIC_GAUGE("gated.gauge", 1);
  MOCHA_METRIC_HIST("gated.hist", 1);
  EXPECT_TRUE(global.snapshot().counters.empty());
  global.set_enabled(true);
  MOCHA_METRIC_ADD("gated.count", 2);
  MOCHA_METRIC_GAUGE("gated.gauge", 3);
  MOCHA_METRIC_HIST("gated.hist", 4);
  global.set_enabled(false);
  const MetricsSnapshot snap = global.snapshot();
  EXPECT_EQ(snap.counters.at("gated.count"), 2);
  EXPECT_EQ(snap.gauges.at("gated.gauge"), 3);
  EXPECT_EQ(snap.histograms.at("gated.hist").count, 1u);
  global.reset();
}

TEST(Metrics, SnapshotJsonRoundTrips) {
  MetricsRegistry registry;
  registry.counter_add("sub.count", 42);
  registry.gauge_set("sub.gauge", -3);
  registry.histogram_record("sub.hist_cycles", 7);
  registry.histogram_record("sub.hist_cycles", 9);

  const util::JsonValue doc =
      util::parse_json(registry.snapshot().to_json());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("counters").at("sub.count").number, 42.0);
  EXPECT_EQ(doc.at("gauges").at("sub.gauge").number, -3.0);
  const util::JsonValue& hist = doc.at("histograms").at("sub.hist_cycles");
  EXPECT_EQ(hist.at("count").number, 2.0);
  EXPECT_EQ(hist.at("sum").number, 16.0);
  EXPECT_EQ(hist.at("min").number, 7.0);
  EXPECT_EQ(hist.at("max").number, 9.0);
  EXPECT_DOUBLE_EQ(hist.at("mean").number, 8.0);
  ASSERT_TRUE(hist.at("log2_buckets").is_array());
  EXPECT_FALSE(hist.at("log2_buckets").array.empty());
  // Derived percentiles ride along so consumers (mocha_serve's SLO
  // report, dashboards) never re-implement the estimator.
  const HistogramData expected = [] {
    HistogramData h;
    h.add(7);
    h.add(9);
    return h;
  }();
  EXPECT_DOUBLE_EQ(hist.at("p50").number, expected.percentile(50));
  EXPECT_DOUBLE_EQ(hist.at("p90").number, expected.percentile(90));
  EXPECT_DOUBLE_EQ(hist.at("p99").number, expected.percentile(99));
}

}  // namespace
}  // namespace mocha::obs
