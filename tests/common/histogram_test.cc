#include "src/common/histogram.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace atropos {
namespace {

TEST(LatencyHistogramTest, EmptyReturnsZeros) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.P99(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(LatencyHistogramTest, SingleValue) {
  LatencyHistogram h;
  h.Record(1234);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1234u);
  EXPECT_EQ(h.max(), 1234u);
  // Percentile bounded by exact min/max.
  EXPECT_EQ(h.P50(), 1234u);
  EXPECT_EQ(h.P99(), 1234u);
}

TEST(LatencyHistogramTest, SmallValuesAreExact) {
  LatencyHistogram h;
  for (uint64_t v = 0; v < 60; v++) {
    h.Record(v);
  }
  EXPECT_EQ(h.Percentile(0.0), 0u);
  EXPECT_EQ(h.Percentile(0.5), 30u);
  EXPECT_EQ(h.Percentile(1.0), 59u);
}

TEST(LatencyHistogramTest, PercentileRelativeErrorBounded) {
  LatencyHistogram h;
  Rng rng(7);
  std::vector<uint64_t> values;
  for (int i = 0; i < 100000; i++) {
    uint64_t v = 10 + rng.NextBounded(1000000);
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    uint64_t exact = values[static_cast<size_t>(q * static_cast<double>(values.size()))];
    uint64_t approx = h.Percentile(q);
    double rel = std::abs(static_cast<double>(approx) - static_cast<double>(exact)) /
                 static_cast<double>(exact);
    EXPECT_LT(rel, 0.03) << "q=" << q << " exact=" << exact << " approx=" << approx;
  }
}

TEST(LatencyHistogramTest, MergeEqualsCombinedRecording) {
  LatencyHistogram a;
  LatencyHistogram b;
  LatencyHistogram both;
  Rng rng(11);
  for (int i = 0; i < 5000; i++) {
    uint64_t v = rng.NextBounded(100000);
    if (i % 2 == 0) {
      a.Record(v);
    } else {
      b.Record(v);
    }
    both.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.min(), both.min());
  EXPECT_EQ(a.max(), both.max());
  EXPECT_EQ(a.P99(), both.P99());
}

TEST(LatencyHistogramTest, ResetClearsEverything) {
  LatencyHistogram h;
  h.Record(5);
  h.Record(1000);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.P99(), 0u);
}

}  // namespace
}  // namespace atropos
