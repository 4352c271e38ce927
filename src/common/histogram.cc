#include "src/common/histogram.h"

#include <algorithm>
#include <bit>

namespace atropos {

namespace hist_detail {

int BucketIndex(uint64_t value) {
  if (value < kSubBuckets) {
    return static_cast<int>(value);
  }
  int msb = 63 - std::countl_zero(value);
  int shift = msb - kSubBucketBits;
  int sub = static_cast<int>(value >> shift) - kSubBuckets;  // in [0, kSubBuckets)
  return (shift + 1) * kSubBuckets + sub;
}

uint64_t BucketMidpoint(int index) {
  if (index < kSubBuckets) {
    return static_cast<uint64_t>(index);
  }
  int shift = index / kSubBuckets - 1;
  int sub = index % kSubBuckets;
  uint64_t lo = (static_cast<uint64_t>(kSubBuckets + sub)) << shift;
  uint64_t width = 1ull << shift;
  return lo + width / 2;
}

}  // namespace hist_detail

namespace {

// The bucket that holds `min`, clamped as Record clamps. BucketIndex is
// monotone, so no lower bucket holds a count: Percentile starts its scan here.
size_t FirstBucket(TimeMicros min) {
  return std::min<size_t>(static_cast<size_t>(hist_detail::BucketIndex(min)),
                          hist_detail::kBucketCount - 1);
}

}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(hist_detail::kBucketCount, 0) {}

void LatencyHistogram::Record(TimeMicros value) {
  if (count_ == 0 || value < min_) {
    min_ = value;
  }
  if (value > max_) {
    max_ = value;
  }
  count_++;
  sum_ += value;
  int idx = hist_detail::BucketIndex(value);
  if (idx >= static_cast<int>(buckets_.size())) {
    idx = static_cast<int>(buckets_.size()) - 1;
  }
  buckets_[static_cast<size_t>(idx)]++;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0 || other.min_ < min_) {
    min_ = other.min_;
  }
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
  for (size_t i = 0; i < buckets_.size(); i++) {
    buckets_[i] += other.buckets_[i];
  }
}

void LatencyHistogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = 0;
  max_ = 0;
}

double LatencyHistogram::Mean() const {
  return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
}

TimeMicros LatencyHistogram::Percentile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  if (q <= 0.0) {
    return min_;
  }
  if (q >= 1.0) {
    return max_;
  }
  uint64_t target = static_cast<uint64_t>(q * static_cast<double>(count_));
  if (target >= count_) {
    target = count_ - 1;
  }
  uint64_t seen = 0;
  for (size_t i = FirstBucket(min_); i < buckets_.size(); i++) {
    seen += buckets_[i];
    if (seen > target) {
      uint64_t mid = hist_detail::BucketMidpoint(static_cast<int>(i));
      return std::clamp<uint64_t>(mid, min_, max_);
    }
  }
  return max_;
}

EpochLatencyHistogram::EpochLatencyHistogram()
    : buckets_(hist_detail::kBucketCount, 0),
      bucket_epoch_(hist_detail::kBucketCount, 0) {}

void EpochLatencyHistogram::Record(TimeMicros value) {
  if (count_ == 0 || value < min_) {
    min_ = value;
  }
  if (value > max_) {
    max_ = value;
  }
  count_++;
  sum_ += value;
  int idx = hist_detail::BucketIndex(value);
  if (idx >= static_cast<int>(buckets_.size())) {
    idx = static_cast<int>(buckets_.size()) - 1;
  }
  const size_t i = static_cast<size_t>(idx);
  if (bucket_epoch_[i] != epoch_) {
    // First touch since the last Reset: the count is left over from an
    // earlier window; clear it before counting into the new one.
    bucket_epoch_[i] = epoch_;
    buckets_[i] = 0;
  }
  buckets_[i]++;
}

void EpochLatencyHistogram::Reset() {
  epoch_++;
  count_ = 0;
  sum_ = 0;
  min_ = 0;
  max_ = 0;
}

double EpochLatencyHistogram::Mean() const {
  return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
}

TimeMicros EpochLatencyHistogram::Percentile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  if (q <= 0.0) {
    return min_;
  }
  if (q >= 1.0) {
    return max_;
  }
  uint64_t target = static_cast<uint64_t>(q * static_cast<double>(count_));
  if (target >= count_) {
    target = count_ - 1;
  }
  uint64_t seen = 0;
  for (size_t i = FirstBucket(min_); i < buckets_.size(); i++) {
    if (bucket_epoch_[i] != epoch_) {
      continue;  // stale bucket: logically zero this window
    }
    seen += buckets_[i];
    if (seen > target) {
      uint64_t mid = hist_detail::BucketMidpoint(static_cast<int>(i));
      return std::clamp<uint64_t>(mid, min_, max_);
    }
  }
  return max_;
}

}  // namespace atropos
