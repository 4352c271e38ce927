#include "src/common/rng.h"

#include <gtest/gtest.h>

namespace atropos {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; i++) {
    if (a.NextUint64() == b.NextUint64()) {
      same++;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; i++) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(4);
  for (int i = 0; i < 10000; i++) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng rng(5);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; i++) {
    sum += rng.NextExponential(250.0);
  }
  EXPECT_NEAR(sum / n, 250.0, 5.0);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(6);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; i++) {
    hits += rng.NextBernoulli(0.2) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.2, 0.01);
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(7);
  const uint64_t n = 1000;
  std::vector<int> counts(n, 0);
  for (int i = 0; i < 100000; i++) {
    uint64_t r = rng.NextZipf(n, 0.9);
    ASSERT_LT(r, n);
    counts[r]++;
  }
  // Rank 0 should be far more popular than rank 500.
  EXPECT_GT(counts[0], counts[500] * 10);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(9);
  Rng child = parent.Fork();
  // Child stream should not replay the parent stream.
  EXPECT_NE(parent.NextUint64(), child.NextUint64());
}

}  // namespace
}  // namespace atropos
