#include "src/live/decision_digest.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace atropos {

namespace {

// Tolerance bands for wall-clock jitter between a live run and its simulator
// counterpart (DESIGN.md §14). Cancel rates may differ by up to this
// multiplicative factor...
constexpr double kCancelRateRatio = 4.0;
// ...or by this absolute count, whichever is more permissive (small runs
// issue a handful of cancels, where one extra cancel is a big ratio).
constexpr uint64_t kCancelSlack = 3;
// First cancellation must land within this fraction-of-run distance.
constexpr double kFirstCancelFracSlack = 0.5;

std::string DominantKey(const std::map<std::string, uint64_t>& hist) {
  std::string best;
  uint64_t best_count = 0;
  for (const auto& [label, count] : hist) {
    if (count > best_count) {
      best = label;
      best_count = count;
    }
  }
  return best;
}

}  // namespace

std::string DecisionDigest::DominantCancelLabel() const { return DominantKey(cancels_by_label); }

std::string DecisionDigest::DominantOverloadedClass() const {
  return DominantKey(overloaded_classes);
}

DecisionDigest NormalizeDecisions(const std::vector<FlightEvent>& events, TimeMicros duration) {
  DecisionDigest d;
  d.duration_s = ToSeconds(duration);
  TimeMicros first_cancel = 0;
  bool saw_cancel = false;
  for (const FlightEvent& ev : events) {
    switch (ev.kind) {
      case ObsEventKind::kWindowClosed:
        d.windows++;
        break;
      case ObsEventKind::kOverloadEntered:
        d.overload_entered++;
        break;
      case ObsEventKind::kContentionSnapshot:
        d.snapshots++;
        for (const ObsResourceSample& r : ev.resources) {
          if (r.overloaded) {
            d.overloaded_classes[r.cls]++;
          }
        }
        break;
      case ObsEventKind::kPolicyDecision:
        d.policy_decisions++;
        break;
      case ObsEventKind::kCancelIssued:
        d.cancels++;
        d.cancels_by_label[ev.label.empty() ? "unknown" : ev.label]++;
        if (!saw_cancel) {
          saw_cancel = true;
          first_cancel = ev.time;
        }
        break;
      default:
        break;
    }
  }
  if (saw_cancel && duration > 0) {
    d.first_cancel_frac = std::min(1.0, ToSeconds(first_cancel) / ToSeconds(duration));
  }
  return d;
}

std::string CrossCheckReport::Render() const {
  std::ostringstream out;
  out << "digest cross-check: " << (pass ? "PASS" : "FAIL") << "\n";
  for (const Check& c : checks) {
    out << "  [" << (c.pass ? "ok" : "FAIL") << "] " << c.name << ": " << c.detail << "\n";
  }
  return out.str();
}

CrossCheckReport CrossCheckDigests(const DecisionDigest& live, const DecisionDigest& sim) {
  CrossCheckReport report;
  auto add = [&report](std::string name, bool pass, std::string detail) {
    report.checks.push_back({std::move(name), pass, std::move(detail)});
  };

  {
    const bool live_overload = live.overload_entered > 0;
    const bool sim_overload = sim.overload_entered > 0;
    const bool pass = live_overload == sim_overload;
    std::ostringstream detail;
    detail << "live entered " << live.overload_entered << "x, sim " << sim.overload_entered << "x";
    add("overload_detected", pass, detail.str());
  }

  {
    // Both-or-neither, then rate band: ratio within kCancelRateRatio OR
    // absolute count gap within kCancelSlack.
    bool pass;
    std::ostringstream detail;
    if ((live.cancels == 0) != (sim.cancels == 0)) {
      pass = false;
      detail << "live " << live.cancels << " cancels vs sim " << sim.cancels;
    } else if (live.cancels == 0) {
      pass = true;
      detail << "neither run cancelled";
    } else {
      const double lr = live.CancelRate();
      const double sr = sim.CancelRate();
      const double ratio = std::max(lr, sr) / std::max(1e-9, std::min(lr, sr));
      const uint64_t gap =
          live.cancels > sim.cancels ? live.cancels - sim.cancels : sim.cancels - live.cancels;
      pass = ratio <= kCancelRateRatio || gap <= kCancelSlack;
      detail << "live " << live.cancels << " (" << lr << "/s) vs sim " << sim.cancels << " (" << sr
             << "/s), ratio " << ratio << " <= " << kCancelRateRatio << " or gap " << gap
             << " <= " << kCancelSlack;
    }
    add("cancel_rate", pass, detail.str());
  }

  {
    const std::string live_label = live.DominantCancelLabel();
    const std::string sim_label = sim.DominantCancelLabel();
    const bool applicable = live.cancels > 0 && sim.cancels > 0;
    const bool pass = !applicable || live_label == sim_label;
    std::ostringstream detail;
    detail << "live culprit '" << live_label << "', sim culprit '" << sim_label << "'";
    add("dominant_culprit", pass, detail.str());
  }

  {
    const std::string sim_cls = sim.DominantOverloadedClass();
    const bool applicable = !sim_cls.empty();
    // Sim's dominant overloaded class must appear among live's flagged
    // classes.
    const bool pass = !applicable || live.overloaded_classes.count(sim_cls) > 0;
    std::ostringstream detail;
    detail << "sim blames '" << sim_cls << "', live flagged {";
    bool first = true;
    for (const auto& [cls, n] : live.overloaded_classes) {
      detail << (first ? "" : ", ") << cls;
      first = false;
    }
    detail << "}";
    add("resource_class", pass, detail.str());
  }

  {
    const bool applicable = live.first_cancel_frac >= 0 && sim.first_cancel_frac >= 0;
    const double gap =
        applicable ? std::abs(live.first_cancel_frac - sim.first_cancel_frac) : 0.0;
    const bool pass = !applicable || gap <= kFirstCancelFracSlack;
    std::ostringstream detail;
    detail << "live at " << live.first_cancel_frac << " of run, sim at " << sim.first_cancel_frac
           << " (slack " << kFirstCancelFracSlack << ")";
    add("first_cancel_time", pass, detail.str());
  }

  report.pass = true;
  for (const CrossCheckReport::Check& c : report.checks) {
    report.pass = report.pass && c.pass;
  }
  return report;
}

}  // namespace atropos
