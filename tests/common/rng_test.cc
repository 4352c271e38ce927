#include "src/common/rng.h"

#include <gtest/gtest.h>

#include <vector>

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

// FNV-1a over `draws` Zipf ranks of (n, theta) from `rng`.
uint64_t ZipfFingerprint(Rng& rng, uint64_t n, double theta, int draws) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (int i = 0; i < draws; i++) {
    h = (h ^ rng.NextZipf(n, theta)) * 0x100000001b3ull;
  }
  return h;
}

// NextZipf caches its per-(n, theta) constants. The expected values were
// printed by the version that recomputed pow(0.5, theta) on every draw. The
// later phases change n, then theta, on the same generator, so a constant
// that is not refreshed with its key shows (a stale pow(0.5, theta) moves
// draws only once theta rises, as in the last phase).
TEST(RngTest, ZipfDrawsMatchParent) {
  Rng rng(2024);
  std::vector<uint64_t> first;
  for (int i = 0; i < 8; i++) {
    first.push_back(rng.NextZipf(256, 0.9));
  }
  EXPECT_EQ(first, (std::vector<uint64_t>{0, 85, 0, 1, 81, 2, 8, 3}));
  EXPECT_EQ(ZipfFingerprint(rng, 256, 0.9, 1000), 3774570548529240266ull);
  EXPECT_EQ(ZipfFingerprint(rng, 4096, 0.9, 1000), 18397632970705209312ull);
  EXPECT_EQ(ZipfFingerprint(rng, 256, 0.3, 1000), 9263813749328730659ull);
  EXPECT_EQ(ZipfFingerprint(rng, 256, 0.99, 1000), 8320267301304965529ull);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(9);
  Rng child = parent.Fork();
  // Child stream should not replay the parent stream.
  EXPECT_NE(parent.NextUint64(), child.NextUint64());
}

}  // namespace
}  // namespace atropos
