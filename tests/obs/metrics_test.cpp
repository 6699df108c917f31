#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

namespace flo::obs {
namespace {

TEST(CounterTest, AddsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(CounterTest, ConcurrentAddsSumExactly) {
  Counter c;
  std::vector<std::thread> pool;
  for (int t = 0; t < 8; ++t) {
    pool.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) c.add();
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(c.value(), 80000u);
}

TEST(GaugeTest, SetAddReset) {
  Gauge g;
  g.set(7);
  EXPECT_EQ(g.add(-10), -3);
  EXPECT_EQ(g.value(), -3);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(HistogramTest, SummarizesSamples) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  h.observe(2.0);
  h.observe(-1.0);
  h.observe(5.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 6.0);
  EXPECT_DOUBLE_EQ(h.min(), -1.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(RegistryTest, CreatesOnFirstUseAndKeepsHandles) {
  Registry reg;
  Counter& c = reg.counter("a.counter");
  c.add(3);
  // Same name returns the same object.
  EXPECT_EQ(&reg.counter("a.counter"), &c);
  EXPECT_EQ(reg.counter("a.counter").value(), 3u);
  // reset() zeroes values but the handle stays valid.
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(1);
  EXPECT_EQ(reg.counter("a.counter").value(), 1u);
}

TEST(RegistryTest, KindClashThrows) {
  Registry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::logic_error);
  EXPECT_THROW(reg.histogram("x"), std::logic_error);
  reg.histogram("h");
  EXPECT_THROW(reg.counter("h"), std::logic_error);
}

TEST(RegistryTest, SnapshotIsNameSorted) {
  Registry reg;
  reg.counter("z.last").add(1);
  reg.gauge("a.first").set(2);
  reg.histogram("m.middle").observe(3.0);
  const auto samples = reg.snapshot();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "a.first");
  EXPECT_EQ(samples[0].kind, MetricKind::kGauge);
  EXPECT_EQ(samples[0].value, 2.0);
  EXPECT_EQ(samples[1].name, "m.middle");
  EXPECT_EQ(samples[1].kind, MetricKind::kHistogram);
  EXPECT_EQ(samples[1].count, 1u);
  EXPECT_EQ(samples[1].sum, 3.0);
  EXPECT_EQ(samples[2].name, "z.last");
  EXPECT_EQ(samples[2].kind, MetricKind::kCounter);
  EXPECT_EQ(samples[2].value, 1.0);
}

TEST(EnabledTest, DefaultsOffAndToggles) {
  // The suite never leaves this on; instrumented code paths treat it as a
  // process-wide switch.
  EXPECT_FALSE(enabled());
  set_enabled(true);
  EXPECT_TRUE(enabled());
  set_enabled(false);
  EXPECT_FALSE(enabled());
}

}  // namespace
}  // namespace flo::obs
