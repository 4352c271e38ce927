#include "src/baselines/parties.h"

#include <algorithm>

namespace atropos {

Parties::Parties(Clock* clock, ControlSurface* surface, PartiesConfig config)
    : surface_(surface), config_(config), baseline_p99_(config.baseline_p99) {
  double even = 1.0 / static_cast<double>(config_.num_classes);
  for (int c = 0; c < config_.num_classes; c++) {
    shares_[c] = even;
  }
}

double Parties::ShareOf(int client_class) const {
  auto it = shares_.find(client_class);
  return it == shares_.end() ? 0.0 : it->second;
}

void Parties::OnEvent(const TraceEvent& ev) {
  if (ev.kind == TraceEventKind::kRequestEnd) {
    window_latency_[ev.client_class].Record(ev.a);
    window_completions_++;
  }
}

void Parties::Tick() {
  if (baseline_p99_ == 0) {
    // Calibrate from class 0 (the primary workload class).
    if (window_completions_ > 0 && ++calibration_seen_ >= config_.calibration_windows) {
      baseline_p99_ = window_latency_[0].P99();
    }
    for (auto& [c, h] : window_latency_) {
      h.Reset();
    }
    window_completions_ = 0;
    return;
  }

  if (++since_adjustment_ >= config_.settle_windows) {
    // Find the most-violating and the most-comfortable class.
    int victim_class = -1;
    TimeMicros worst = 0;
    int donor_class = -1;
    TimeMicros best = 0;
    for (auto& [c, h] : window_latency_) {
      if (h.count() == 0) {
        continue;
      }
      TimeMicros p99 = h.P99();
      if (p99 > slo_latency() && p99 > worst) {
        worst = p99;
        victim_class = c;
      }
      if ((donor_class < 0 || p99 < best) && shares_[c] > config_.min_share) {
        best = p99;
        donor_class = c;
      }
    }
    if (victim_class >= 0 && donor_class >= 0 && donor_class != victim_class) {
      double step = std::min(config_.share_step, shares_[donor_class] - config_.min_share);
      shares_[donor_class] -= step;
      shares_[victim_class] += step;
      surface_->SetClientShare(donor_class, shares_[donor_class]);
      surface_->SetClientShare(victim_class, shares_[victim_class]);
      adjustments_++;
      since_adjustment_ = 0;
    }
  }

  for (auto& [c, h] : window_latency_) {
    h.Reset();
  }
  window_completions_ = 0;
}

}  // namespace atropos
