#include "src/baselines/darc.h"

#include <algorithm>
#include <cmath>

namespace atropos {

namespace {

// A type is "short" when its mean service time is below this multiple of the
// global minimum mean.
constexpr double kShortTypeFactor = 8.0;
// Fraction of workers reserved for short types.
constexpr double kReserveFraction = 0.75;
// Completions needed before a type's profile is trusted.
constexpr uint64_t kMinSamples = 20;

}  // namespace

void Darc::Tick() {
  // Find the fastest adequately-profiled type.
  double min_mean = 0.0;
  int short_type = -1;
  for (const auto& [type, p] : profiles_) {
    if (p.count < kMinSamples) {
      continue;
    }
    double mean = p.Mean();
    if (short_type < 0 || mean < min_mean) {
      min_mean = mean;
      short_type = type;
    }
  }
  if (short_type < 0) {
    return;
  }
  // Is there a meaningfully heavier type? If not, no reservation is needed.
  bool heavy_exists = false;
  for (const auto& [type, p] : profiles_) {
    if (type != short_type && p.count >= kMinSamples && p.Mean() > min_mean * kShortTypeFactor) {
      heavy_exists = true;
      break;
    }
  }
  int reserve =
      heavy_exists ? static_cast<int>(std::lround(kReserveFraction * config_.total_workers)) : 0;
  if (reserve != reserved_) {
    reserved_ = reserve;
    surface_->SetTypeReservation(short_type, reserve);
  }
}

}  // namespace atropos
