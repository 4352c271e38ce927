// DARC baseline (Demoulin et al., SOSP'21 "Perséphone") — request-type-aware
// core/worker reservation.
//
// DARC profiles per-type service times and reserves workers for the shortest
// request types so they are never blocked behind heavy-tailed ones. It helps
// the queue-overload cases, but knows nothing about locks, memory pools, or
// which specific request holds them.

#ifndef SRC_BASELINES_DARC_H_
#define SRC_BASELINES_DARC_H_

#include <unordered_map>

#include "src/atropos/controller.h"
#include "src/baselines/baseline_config.h"

namespace atropos {

struct DarcConfig : BaselineConfig {
  // A type is "short" when its mean service time is below this multiple of
  // the global minimum mean.
  double short_type_factor = 8.0;
  // Fraction of workers reserved for short types.
  double reserve_fraction = 0.75;
  int total_workers = 16;
  // Completions needed before a type's profile is trusted.
  int min_samples = 20;
};

class Darc final : public OverloadController {
 public:
  Darc(Clock* clock, ControlSurface* surface, DarcConfig config)
      : surface_(surface), config_(config) {}

  std::string_view name() const override { return "darc"; }

  void OnEvent(const TraceEvent& ev) override {
    if (ev.kind == TraceEventKind::kRequestEnd) {
      Profile& p = profiles_[ev.request_type];
      p.count++;
      p.total += ev.a;
    }
  }

  void Tick() override;

  int reserved_workers() const { return reserved_; }

 private:
  struct Profile {
    uint64_t count = 0;
    TimeMicros total = 0;
    double Mean() const {
      return count == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(count);
    }
  };

  ControlSurface* surface_;
  DarcConfig config_;
  std::unordered_map<int, Profile> profiles_;
  int reserved_ = 0;
};

}  // namespace atropos

#endif  // SRC_BASELINES_DARC_H_
