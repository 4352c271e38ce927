// Log-linear latency histogram (HdrHistogram-style) and its windowed variant.
//
// LatencyHistogram records microsecond values into log-linear buckets with
// bounded relative error, supporting cheap percentile queries. It is the
// measurement primitive behind every throughput/p99 series in the benchmark
// harnesses.
//
// EpochLatencyHistogram is the windowed variant used on the runtime hot path
// (DESIGN.md §17): Reset() is an O(1) epoch bump instead of an O(buckets)
// memset, and stale buckets are lazily cleared on the next Record that lands
// in them. Both classes share the exact bucket geometry (hist_detail), so for
// the same recorded values their percentile output is byte-identical.

#ifndef SRC_COMMON_HISTOGRAM_H_
#define SRC_COMMON_HISTOGRAM_H_

#include <cstdint>
#include <vector>

#include "src/common/clock.h"

namespace atropos {

// Shared bucket geometry: 64 ranges by leading bit, each split into
// kSubBuckets linear sub-buckets => ~1.6% max relative error.
namespace hist_detail {
inline constexpr int kSubBucketBits = 6;
inline constexpr int kSubBuckets = 1 << kSubBucketBits;
inline constexpr size_t kBucketCount = 64 * kSubBuckets;

int BucketIndex(uint64_t value);
uint64_t BucketMidpoint(int index);
}  // namespace hist_detail

class LatencyHistogram {
 public:
  LatencyHistogram();

  void Record(TimeMicros value);
  void Merge(const LatencyHistogram& other);
  void Reset();

  uint64_t count() const { return count_; }
  TimeMicros min() const { return count_ == 0 ? 0 : min_; }
  TimeMicros max() const { return max_; }
  double Mean() const;

  // Value at quantile q in [0, 1]; returns 0 for an empty histogram.
  TimeMicros Percentile(double q) const;

  TimeMicros P50() const { return Percentile(0.50); }
  TimeMicros P99() const { return Percentile(0.99); }
  TimeMicros P999() const { return Percentile(0.999); }

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  TimeMicros min_ = 0;
  TimeMicros max_ = 0;
};

// Windowed histogram with O(1) reset. A bucket's count is valid only when its
// epoch stamp matches the current epoch; Reset() bumps the epoch, logically
// zeroing every bucket at once, and Record() re-stamps (and re-zeroes) the one
// bucket it touches. Percentile/Mean treat stale buckets as empty, so the
// observable behaviour matches a LatencyHistogram that was Reset() eagerly —
// the two share hist_detail's bucket math, making percentiles byte-identical.
class EpochLatencyHistogram {
 public:
  EpochLatencyHistogram();

  void Record(TimeMicros value);
  void Reset();  // O(1): epoch bump

  uint64_t count() const { return count_; }
  TimeMicros min() const { return count_ == 0 ? 0 : min_; }
  TimeMicros max() const { return max_; }
  double Mean() const;

  // Value at quantile q in [0, 1]; returns 0 for an empty histogram. Walks
  // buckets in the same order, with the same midpoint math and the same
  // `seen > target` stop rule as LatencyHistogram::Percentile.
  TimeMicros Percentile(double q) const;

  TimeMicros P50() const { return Percentile(0.50); }
  TimeMicros P99() const { return Percentile(0.99); }
  TimeMicros P999() const { return Percentile(0.999); }

 private:
  std::vector<uint64_t> buckets_;
  // 64-bit epochs never wrap in practice, so a stale stamp can never collide
  // with a re-used epoch value.
  std::vector<uint64_t> bucket_epoch_;
  uint64_t epoch_ = 1;  // bucket_epoch_ initializes to 0 == "always stale"
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  TimeMicros min_ = 0;
  TimeMicros max_ = 0;
};

}  // namespace atropos

#endif  // SRC_COMMON_HISTOGRAM_H_
