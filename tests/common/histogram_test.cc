#include "src/common/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

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

// Percentile by the full scan from bucket 0 that Percentile's min-bucket
// start replaced, over the values a histogram holds.
TimeMicros FullScanPercentile(const std::vector<uint64_t>& values, double q) {
  if (values.empty()) {
    return 0;
  }
  const uint64_t lo = *std::min_element(values.begin(), values.end());
  const uint64_t hi = *std::max_element(values.begin(), values.end());
  if (q <= 0.0) {
    return lo;
  }
  if (q >= 1.0) {
    return hi;
  }
  std::vector<uint64_t> buckets(hist_detail::kBucketCount, 0);
  for (uint64_t v : values) {
    buckets[std::min<size_t>(static_cast<size_t>(hist_detail::BucketIndex(v)),
                             buckets.size() - 1)]++;
  }
  const uint64_t count = values.size();
  uint64_t target = static_cast<uint64_t>(q * static_cast<double>(count));
  target = std::min(target, count - 1);
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); i++) {
    seen += buckets[i];
    if (seen > target) {
      return std::clamp<uint64_t>(hist_detail::BucketMidpoint(static_cast<int>(i)), lo, hi);
    }
  }
  return hi;
}

// Values from each magnitude class, so the minimum's bucket ranges from 0
// (the exact small-value buckets) to far above 2^40.
uint64_t DrawValue(Rng& rng, int shape) {
  switch (shape) {
    case 0:
      return rng.NextBounded(64);
    case 1:
      return (1ull << 40) + rng.NextBounded(1ull << 50);
    default:
      switch (rng.NextBounded(4)) {
        case 0:
          return 0;
        case 1:
          return rng.NextBounded(64);
        case 2:
          return (1ull << 40) + rng.NextBounded(1ull << 50);
        default:
          return 64 + rng.NextBounded(1'000'000);
      }
  }
}

constexpr double kQuantiles[] = {0.0, 1e-6, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 0.999999, 1.0};

template <typename Histogram>
void ExpectMatchesFullScan(const Histogram& h, const std::vector<uint64_t>& values,
                           const std::string& where) {
  ASSERT_EQ(h.count(), values.size()) << where;
  for (double q : kQuantiles) {
    EXPECT_EQ(h.Percentile(q), FullScanPercentile(values, q)) << where << " q=" << q;
  }
}

TEST(LatencyHistogramTest, PercentileMatchesFullScan) {
  Rng rng(24);
  for (int shape = 0; shape < 3; shape++) {
    LatencyHistogram h;
    for (int epoch = 0; epoch < 4; epoch++) {
      LatencyHistogram other;
      std::vector<uint64_t> values;
      const int n = 1 + static_cast<int>(rng.NextBounded(2000));
      for (int i = 0; i < n; i++) {
        const uint64_t v = DrawValue(rng, shape);
        values.push_back(v);
        h.Record(v);
      }
      const std::string where = "shape " + std::to_string(shape) + " epoch " +
                                std::to_string(epoch);
      ExpectMatchesFullScan(h, values, where);
      // Merge in values of another shape: the merged minimum may move down.
      for (int i = 0; i < n; i++) {
        const uint64_t v = DrawValue(rng, (shape + 1) % 3);
        values.push_back(v);
        other.Record(v);
      }
      h.Merge(other);
      ExpectMatchesFullScan(h, values, where + " after Merge");
      h.Reset();
    }
  }
}

TEST(EpochLatencyHistogramTest, PercentileMatchesFullScan) {
  Rng rng(25);
  EpochLatencyHistogram h;
  // Shapes rotate across epochs, so a later window's minimum sits below,
  // above and level with the stale counts an earlier window left behind.
  for (int epoch = 0; epoch < 9; epoch++) {
    std::vector<uint64_t> values;
    const int n = 1 + static_cast<int>(rng.NextBounded(2000));
    for (int i = 0; i < n; i++) {
      const uint64_t v = DrawValue(rng, epoch % 3);
      values.push_back(v);
      h.Record(v);
    }
    ExpectMatchesFullScan(h, values, "epoch " + std::to_string(epoch));
    h.Reset();
  }
}

}  // namespace
}  // namespace atropos
