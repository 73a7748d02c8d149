// Tests for base/metrics: LatencyHistogram percentile edge cases (empty,
// single sample, sub-microsecond bucket 0, exact max vs bucket-approximate
// percentiles), Reset racing concurrent Record calls, the Gauge, and the
// Prometheus text exposition.

#include "base/metrics.h"

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace aqv {
namespace {

TEST(LatencyHistogramTest, EmptyHistogramReportsZeros) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum_micros(), 0u);
  EXPECT_EQ(h.max_micros(), 0u);
  EXPECT_EQ(h.mean_micros(), 0.0);
  EXPECT_EQ(h.PercentileMicros(0.5), 0.0);
  EXPECT_EQ(h.PercentileMicros(0.99), 0.0);
  EXPECT_EQ(h.PercentileMicros(1.0), 0.0);
}

TEST(LatencyHistogramTest, SingleSample) {
  LatencyHistogram h;
  h.Record(100);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum_micros(), 100u);
  EXPECT_EQ(h.max_micros(), 100u);  // exact, not bucket-rounded
  EXPECT_EQ(h.mean_micros(), 100.0);
  // 100us lands in the [64, 128) bucket; every percentile interpolates
  // inside it.
  for (double q : {0.5, 0.99, 1.0}) {
    double p = h.PercentileMicros(q);
    EXPECT_GE(p, 64.0) << "q=" << q;
    EXPECT_LE(p, 128.0) << "q=" << q;
  }
}

TEST(LatencyHistogramTest, SingleSamplePercentilesClampToTheExactMax) {
  LatencyHistogram h;
  h.Record(48);  // bucket [32, 63]: its upper edge lies above the sample
  EXPECT_EQ(h.max_micros(), 48u);
  EXPECT_EQ(h.PercentileMicros(0.5), 48.0);
  EXPECT_EQ(h.PercentileMicros(0.99), 48.0);
  EXPECT_EQ(h.PercentileMicros(1.0), 48.0);
}

TEST(LatencyHistogramTest, SubMicrosecondSamplesLandInBucketZero) {
  LatencyHistogram h;
  h.Record(0);
  h.Record(0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.sum_micros(), 0u);
  EXPECT_EQ(h.max_micros(), 0u);
  EXPECT_LE(h.PercentileMicros(0.5), 1.0);
  EXPECT_LE(h.PercentileMicros(0.99), 1.0);
}

TEST(LatencyHistogramTest, MaxIsExactWhilePercentilesAreApproximate) {
  LatencyHistogram h;
  h.Record(3);
  h.Record(5);
  h.Record(159);
  EXPECT_EQ(h.max_micros(), 159u);
  double p99 = h.PercentileMicros(0.99);
  EXPECT_GE(p99, 128.0);  // 159 is in [128, 256)
  EXPECT_LE(p99, 256.0);
  double p50 = h.PercentileMicros(0.5);
  EXPECT_LE(p50, 8.0);  // the median sample, 5, is in [4, 8)
}

TEST(LatencyHistogramTest, MaxTracksTheLargestOfManySamples) {
  LatencyHistogram h;
  for (uint64_t v : {7u, 900u, 12u, 900u, 3u}) h.Record(v);
  EXPECT_EQ(h.max_micros(), 900u);
}

TEST(LatencyHistogramTest, ResetClearsEverything) {
  LatencyHistogram h;
  h.Record(42);
  h.Record(7);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum_micros(), 0u);
  EXPECT_EQ(h.max_micros(), 0u);
  EXPECT_EQ(h.PercentileMicros(0.5), 0.0);
}

// Reset racing concurrent Record calls must stay data-race free (the
// sanitizer job runs this under TSan) and leave the histogram consistent
// enough to keep serving queries.
TEST(LatencyHistogramTest, ResetWhileRecordingIsSafe) {
  LatencyHistogram h;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&h, &stop] {
      uint64_t v = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        h.Record(v);
        v = v * 1664525 + 1013904223;  // LCG: spread across buckets
        v %= 1 << 20;
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    h.Reset();
    (void)h.PercentileMicros(0.5);
    (void)h.max_micros();
  }
  stop.store(true);
  for (auto& w : writers) w.join();
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max_micros(), 0u);
}

TEST(GaugeTest, SetAddReset) {
  Gauge g;
  EXPECT_EQ(g.value(), 0);
  g.Set(42);
  EXPECT_EQ(g.value(), 42);
  g.Add(-50);
  EXPECT_EQ(g.value(), -8);
  g.Reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(MetricsRegistryTest, GaugeIsRegisteredAndReset) {
  MetricsRegistry registry;
  Gauge& g = registry.GetGauge("cache.size");
  g.Set(7);
  EXPECT_EQ(&registry.GetGauge("cache.size"), &g);  // same object on reuse
  EXPECT_NE(registry.Report().find("cache.size"), std::string::npos);
  registry.ResetAll();
  EXPECT_EQ(g.value(), 0);
}

TEST(MetricsRegistryTest, PromTextExposition) {
  MetricsRegistry registry;
  registry.GetCounter("svc.requests-total").Increment(3);
  registry.GetGauge("svc.queue_depth").Set(5);
  LatencyHistogram& h = registry.GetHistogram("svc.latency");
  h.Record(10);   // [8, 16)  -> inclusive upper bound le="15"
  h.Record(200);  // [128, 256) -> le="255"

  std::string text = registry.PromText();
  // Names are prefixed and sanitized to [a-z0-9_].
  EXPECT_NE(text.find("# TYPE aqv_svc_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("aqv_svc_requests_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE aqv_svc_queue_depth gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("aqv_svc_queue_depth 5\n"), std::string::npos);
  // Histograms export natively: cumulative buckets at the power-of-two
  // inclusive bounds, the empty tail collapsed into +Inf.
  EXPECT_NE(text.find("# TYPE aqv_svc_latency histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("aqv_svc_latency_bucket{le=\"7\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("aqv_svc_latency_bucket{le=\"15\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("aqv_svc_latency_bucket{le=\"127\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("aqv_svc_latency_bucket{le=\"255\"} 2\n"),
            std::string::npos);
  EXPECT_EQ(text.find("aqv_svc_latency_bucket{le=\"511\"}"),
            std::string::npos);  // tail collapsed
  EXPECT_NE(text.find("aqv_svc_latency_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("aqv_svc_latency_sum 210\n"), std::string::npos);
  EXPECT_NE(text.find("aqv_svc_latency_count 2\n"), std::string::npos);
}

TEST(MetricsRegistryTest, PromTextEmitsHelpOncePerFamily) {
  MetricsRegistry registry;
  registry.SetHelp("reqs_total", "requests served by the service");
  registry.GetCounter("reqs_total").Increment();
  registry.GetCounter("other").Increment();
  std::string text = registry.PromText();
  EXPECT_NE(
      text.find("# HELP aqv_reqs_total requests served by the service\n"),
      std::string::npos);
  // A family without registered help still self-describes.
  EXPECT_NE(text.find("# HELP aqv_other "), std::string::npos);
  // Exactly one HELP and one TYPE line per family.
  size_t first = text.find("# TYPE aqv_reqs_total counter");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE aqv_reqs_total counter", first + 1),
            std::string::npos);
}

TEST(MetricsRegistryTest, PromBucketsAreCumulativeAndMonotone) {
  MetricsRegistry registry;
  LatencyHistogram& h = registry.GetHistogram("lat");
  // Spread samples over many buckets, including duplicates.
  for (uint64_t v : {0u, 1u, 2u, 3u, 900u, 900u, 5000u, 70000u}) h.Record(v);
  std::string text = registry.PromText();

  // Parse every le bucket in order and check cumulative counts never
  // decrease and end at the +Inf total.
  std::vector<uint64_t> cumulative;
  size_t pos = 0;
  const std::string needle = "aqv_lat_bucket{le=\"";
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    size_t value_at = text.find("} ", pos);
    ASSERT_NE(value_at, std::string::npos);
    cumulative.push_back(std::strtoull(text.c_str() + value_at + 2,
                                       nullptr, 10));
    pos = value_at;
  }
  ASSERT_GE(cumulative.size(), 3u);  // at least a few buckets plus +Inf
  for (size_t i = 1; i < cumulative.size(); ++i) {
    EXPECT_GE(cumulative[i], cumulative[i - 1]) << "bucket " << i;
  }
  EXPECT_EQ(cumulative.back(), 8u);  // +Inf == _count
  EXPECT_NE(text.find("aqv_lat_count 8\n"), std::string::npos);
}

TEST(MetricsRegistryTest, PromLabeledNameEscapesLabelValues) {
  // Label values with quotes, backslashes, and newlines must be escaped at
  // name-construction time; the exposition emits label blocks verbatim.
  std::string name = PromLabeledName("fp.hits", "site", "a\"b\\c\nd");
  EXPECT_EQ(name, "fp.hits{site=\"a\\\"b\\\\c\\nd\"}");

  MetricsRegistry registry;
  registry.GetCounter(name).Increment(2);
  std::string text = registry.PromText();
  EXPECT_NE(text.find("aqv_fp_hits{site=\"a\\\"b\\\\c\\nd\"} 2\n"),
            std::string::npos);
}

TEST(LatencyHistogramTest, BucketUpperBoundsAndTopBucket) {
  // Inclusive integer upper bounds: 0, 1, 3, 7, ... (2^i - 1).
  EXPECT_EQ(LatencyHistogram::BucketUpperMicros(0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketUpperMicros(1), 1u);
  EXPECT_EQ(LatencyHistogram::BucketUpperMicros(4), 15u);
  EXPECT_EQ(LatencyHistogram::BucketUpperMicros(8), 255u);

  // A sample beyond the last finite bucket lands in the top bucket and the
  // percentile stays finite (clamped to the max sample, never overflowing).
  LatencyHistogram h;
  h.Record(UINT64_MAX);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max_micros(), UINT64_MAX);
  double p99 = h.PercentileMicros(0.99);
  EXPECT_GT(p99, 0.0);
  std::vector<uint64_t> counts = h.BucketCounts();
  EXPECT_EQ(counts.back(), 1u);
}

TEST(MetricsRegistryTest, ConcurrentRegistrationAndUse) {
  MetricsRegistry registry;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < 200; ++i) {
        registry.GetCounter("shared").Increment();
        registry.GetHistogram("lat").Record(static_cast<uint64_t>(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(registry.GetCounter("shared").value(), 800u);
  EXPECT_EQ(registry.GetHistogram("lat").count(), 800u);
  EXPECT_EQ(registry.GetHistogram("lat").max_micros(), 199u);
}

}  // namespace
}  // namespace aqv
