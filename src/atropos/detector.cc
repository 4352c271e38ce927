#include "src/atropos/detector.h"

#include <algorithm>
#include <vector>

namespace atropos {

namespace {

// Throughput is "flat" if the current window rate is within this fraction of
// the recent peak (Breakwater-style signal, §3.3).
constexpr double kThroughputFlatTolerance = 0.15;

// This many in-flight requests older than the SLO latency count as a stall
// regardless of the (survivor-biased) completion p99.
constexpr uint64_t kStallActiveThreshold = 10;

}  // namespace

std::string_view SignalName(OverloadDetector::Signal signal) {
  switch (signal) {
    case OverloadDetector::Signal::kCalibrating:
      return "calibrating";
    case OverloadDetector::Signal::kNormal:
      return "normal";
    case OverloadDetector::Signal::kSuspectedOverload:
      return "suspected_overload";
    case OverloadDetector::Signal::kDemandOverload:
      return "demand_overload";
  }
  return "unknown";
}

OverloadDetector::OverloadDetector(const AtroposConfig& config) : config_(config) {
  if (config_.baseline_p99 > 0) {
    SetBaseline(config_.baseline_p99);
  }
}

void OverloadDetector::SetBaseline(TimeMicros baseline_p99) {
  baseline_p99_ = baseline_p99;
  calibrated_ = true;
}

TimeMicros OverloadDetector::slo_latency() const {
  return static_cast<TimeMicros>(static_cast<double>(baseline_p99_) *
                                 (1.0 + config_.slo_latency_increase));
}

OverloadDetector::Signal OverloadDetector::OnWindow(const WindowSample& sample) {
  if (!calibrated_) {
    // Learn the baseline from the median of the first windows that actually
    // completed work; the median resists a transient spike during startup.
    if (sample.completions > 0) {
      calibration_p99s_.push_back(sample.p99);
      calibration_seen_++;
      if (calibration_seen_ >= config_.calibration_windows) {
        std::vector<TimeMicros> sorted(calibration_p99s_.begin(), calibration_p99s_.end());
        std::sort(sorted.begin(), sorted.end());
        SetBaseline(sorted[sorted.size() / 2]);
      }
    }
    // Track throughput during calibration too.
    peak_rate_ = std::max(peak_rate_, static_cast<double>(sample.completions));
    return Signal::kCalibrating;
  }

  double rate = static_cast<double>(sample.completions);
  bool flat = rate <= peak_rate_ * (1.0 + kThroughputFlatTolerance);
  // Slowly decay the peak so a permanent load drop doesn't pin "flat" forever.
  peak_rate_ = std::max(peak_rate_ * 0.995, rate);

  if (sample.completions == 0 && sample.overdue_actives > 0) {
    // A complete stall with a calibrated baseline is the strongest overload
    // signal of all (e.g. every worker blocked behind one lock holder).
    return Signal::kSuspectedOverload;
  }
  // A convoy of overdue in-flight requests is a stall even if fast survivors
  // keep the completion p99 looking healthy.
  if (sample.overdue_actives >= kStallActiveThreshold) {
    return Signal::kSuspectedOverload;
  }
  if (sample.p99 <= slo_latency()) {
    return Signal::kNormal;
  }
  return flat ? Signal::kSuspectedOverload : Signal::kDemandOverload;
}

}  // namespace atropos
