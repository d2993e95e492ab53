#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace flexran::obs {
namespace {

// ---------------------------------------------------------- instruments --

TEST(HistogramTest, BucketEdgesAreInclusiveUpper) {
  // Bucket i counts samples in (bounds[i-1], bounds[i]]; the boundary
  // sample lands in the bucket it bounds, one past it in the next.
  // A one-sample histogram's 0-quantile is the lower edge of the bucket
  // the sample landed in (the last bound for the overflow bucket).
  const std::pair<double, double> sample_to_lower_edge[] = {
      {10.0, 0.0},   // bucket 0 (<= 10)
      {10.1, 10.0},  // bucket 1
      {20.0, 10.0},  // bucket 1 (<= 20)
      {40.0, 20.0},  // bucket 2
      {41.0, 40.0},  // overflow bucket
  };
  Histogram h({10.0, 20.0, 40.0});
  for (const auto& [sample, lower_edge] : sample_to_lower_edge) {
    Histogram one({10.0, 20.0, 40.0});
    one.observe(sample);
    EXPECT_EQ(one.quantile(0.0), lower_edge) << "sample=" << sample;
    h.observe(sample);
  }
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 10.0 + 10.1 + 20.0 + 40.0 + 41.0);
}

TEST(HistogramTest, QuantileOnEmptyIsZero) {
  Histogram h({1.0, 2.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.p99(), 0.0);
  EXPECT_EQ(h.sum(), 0.0);
}

TEST(HistogramTest, QuantileSingleSample) {
  Histogram h({10.0, 100.0, 1000.0});
  h.observe(50.0);
  // Every quantile of a one-sample distribution selects that sample's
  // bucket; the estimate must stay within the bucket's range.
  for (double q : {0.0, 0.5, 0.95, 1.0}) {
    EXPECT_GE(h.quantile(q), 10.0) << "q=" << q;
    EXPECT_LE(h.quantile(q), 100.0) << "q=" << q;
  }
}

TEST(HistogramTest, QuantileUniformSpread) {
  // 100 samples uniformly over (0, 100]; with bounds at every 10 the
  // nearest-rank + interpolation estimate should track q * 100 closely.
  Histogram h({10, 20, 30, 40, 50, 60, 70, 80, 90, 100});
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  EXPECT_NEAR(h.p50(), 50.0, 10.0);
  EXPECT_NEAR(h.p95(), 95.0, 10.0);
  EXPECT_NEAR(h.p99(), 99.0, 10.0);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
}

TEST(HistogramTest, OverflowQuantileClampsToLastBound) {
  Histogram h({1.0, 2.0});
  for (int i = 0; i < 10; ++i) h.observe(1000.0);
  // The histogram cannot resolve beyond its last bound.
  EXPECT_EQ(h.p50(), 2.0);
  EXPECT_EQ(h.p99(), 2.0);
}

TEST(HistogramTest, ExponentialBounds) {
  const auto bounds = exponential_bounds(250.0, 2.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 250.0);
  EXPECT_DOUBLE_EQ(bounds[1], 500.0);
  EXPECT_DOUBLE_EQ(bounds[2], 1000.0);
  EXPECT_DOUBLE_EQ(bounds[3], 2000.0);
}

TEST(LabeledTest, RendersLabelBlock) {
  // A series' JSON key is its identity: `name{k=v,...}`, bare when unlabeled.
  MetricsRegistry registry;
  auto collector = registry.add_collector([](Sink& out) {
    out.value("x", {}, 1.0);
    out.value("x", {{"a", "1"}}, 2.0);
    out.value("x", {{"a", "1"}, {"b", "two"}}, 3.0);
  });
  EXPECT_EQ(registry.json(), "{\"x\":1,\"x{a=1}\":2,\"x{a=1,b=two}\":3}");
}

// ------------------------------------------------------------- registry --

TEST(RegistryTest, SizeCountsInstrumentsAndProbes) {
  // size() counts the series the collectors export right now; a histogram
  // is one series however many lines it renders.
  MetricsRegistry registry;
  Histogram histogram({1.0});
  auto first = registry.add_collector([&histogram](Sink& out) {
    out.value("a", {}, 1.0);
    out.value("b", {{"k", "v"}}, 2.0);
    out.histogram("c", {}, histogram);
  });
  EXPECT_EQ(registry.size(), 3u);
  {
    auto second = registry.add_collector([](Sink& out) { out.value("d", {}, 4.0); });
    EXPECT_EQ(registry.size(), 4u);
  }
  EXPECT_EQ(registry.size(), 3u);
}

TEST(RegistryTest, RegistrationUnregistersOnDestructionOnly) {
  MetricsRegistry registry;
  MetricsRegistry::Registration kept;
  {
    auto moved = registry.add_collector([](Sink& out) { out.value("x", {}, 1.0); });
    kept = std::move(moved);  // the moved-from handle unregisters nothing
  }
  EXPECT_EQ(registry.size(), 1u);
  kept = registry.add_collector([](Sink& out) { out.value("y", {}, 2.0); });
  EXPECT_EQ(registry.prometheus_text(), "y 2\n");  // reassigning dropped "x"
  kept = {};
  EXPECT_EQ(registry.size(), 0u);
}

TEST(RegistryTest, PrometheusTextFormat) {
  MetricsRegistry registry;
  Histogram latency({10.0, 100.0});
  latency.observe(5.0);
  latency.observe(50.0);
  Histogram agent_latency({10.0});
  agent_latency.observe(4.0);
  auto plain = registry.add_collector([&](Sink& out) {
    out.value("requests_total", {{"agent", "1"}}, 3.0);
    out.value("load", {}, 0.5);
    out.histogram("lat_us", {}, latency);
    out.histogram("agent_lat_us", {{"agent", "1"}}, agent_latency);
  });
  auto sharded = registry.add_collector(
      [](Sink& out) { out.value("applied", {{"agent", "2"}}, 7.0); }, {{"shard", "1"}});

  const std::string text = registry.prometheus_text();
  EXPECT_NE(text.find("requests_total{agent=\"1\"} 3\n"), std::string::npos) << text;
  EXPECT_NE(text.find("load 0.5\n"), std::string::npos) << text;
  EXPECT_NE(text.find("lat_us_count 2\n"), std::string::npos) << text;
  EXPECT_NE(text.find("lat_us_sum 55\n"), std::string::npos) << text;
  EXPECT_NE(text.find("lat_us{quantile=\"0.5\"}"), std::string::npos) << text;
  EXPECT_NE(text.find("lat_us{quantile=\"0.99\"}"), std::string::npos) << text;
  // A labeled histogram: the suffix goes on the name, before the labels.
  EXPECT_NE(text.find("agent_lat_us_count{agent=\"1\"} 1\n"), std::string::npos) << text;
  EXPECT_NE(text.find("agent_lat_us_sum{agent=\"1\"} 4\n"), std::string::npos) << text;
  EXPECT_NE(text.find("agent_lat_us{agent=\"1\",quantile=\"0.95\"}"), std::string::npos)
      << text;
  // The collector's own labels follow the series' labels.
  EXPECT_NE(text.find("applied{agent=\"2\",shard=\"1\"} 7\n"), std::string::npos) << text;
}

TEST(RegistryTest, JsonFormat) {
  MetricsRegistry registry;
  Histogram histogram({10.0});
  histogram.observe(4.0);
  auto handle = registry.add_collector([&histogram](Sink& out) {
    out.value("c", {}, 2.0);
    out.value("g", {{"k", "v"}}, 1.5);
    out.histogram("h", {}, histogram);
  });
  auto sharded =
      registry.add_collector([](Sink& out) { out.value("p", {}, 9.0); }, {{"shard", "0"}});

  const std::string json = registry.json(/*t_us=*/1234);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"t_us\":1234,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"c\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"g{k=v}\":1.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p{shard=0}\":9"), std::string::npos) << json;
  EXPECT_NE(json.find("\"h\":{\"count\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p50\":"), std::string::npos) << json;

  // No timestamp member unless requested.
  EXPECT_EQ(registry.json().find("t_us"), std::string::npos);
  EXPECT_EQ(registry.json().rfind("{\"c\":2,", 0), 0u);
  EXPECT_EQ(MetricsRegistry().json(), "{}");
}

TEST(RegistryTest, ProbesEvaluatedAtExportTime) {
  // Collectors are pull-model: they run on every export and never at
  // registration.
  MetricsRegistry registry;
  int calls = 0;
  auto handle = registry.add_collector(
      [&calls](Sink& out) { out.value("live", {}, static_cast<double>(++calls)); });
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(registry.json(), "{\"live\":1}");
  EXPECT_EQ(registry.prometheus_text(), "live 2\n");
  EXPECT_EQ(calls, 2);
}

// ---------------------------------------------------------- concurrency --

TEST(ConcurrencyTest, CountersAndHistogramsUnderContention) {
  // Exercised under TSan by tools/check.sh thread: concurrent increments
  // and observes must be race-free against a concurrent export, and no
  // increment may be lost.
  MetricsRegistry registry;
  std::atomic<std::uint64_t> counter{0};
  Histogram histogram(exponential_bounds(1.0, 2.0, 10));
  auto handle = registry.add_collector([&counter, &histogram](Sink& out) {
    out.value("contended", {}, static_cast<double>(counter.load(std::memory_order_relaxed)));
    out.histogram("contended_lat", {}, histogram);
  });
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &histogram, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        counter.fetch_add(1, std::memory_order_relaxed);
        histogram.observe(static_cast<double>((t * 37 + i) % 600));
      }
    });
  }
  std::atomic<bool> stop{false};
  std::thread reader([&registry, &stop] {
    while (!stop.load(std::memory_order_relaxed)) (void)registry.json();
  });
  for (auto& thread : threads) thread.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(counter.load(), static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(histogram.count(), static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
}

}  // namespace
}  // namespace flexran::obs
