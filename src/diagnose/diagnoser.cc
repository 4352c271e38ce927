#include "src/diagnose/diagnoser.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <map>

namespace atropos {

namespace {

// A window is "degraded" when its p99 exceeds this multiple of the calibrated
// baseline p99.
constexpr double kDegradedFactor = 1.5;
// Baseline fallback: when the trace has no "calibrating"-labeled windows, the
// first this-many windows stand in as the calibration sample.
constexpr size_t kCalibrationWindows = 10;
// Cap on the ranked culprit list in the diagnosis.
constexpr size_t kMaxCulprits = 8;

// Root-cause demotion of admission backpressure: a worker queue only backs up
// because the stage behind it stalled, so when an execution-stage resource
// (lock/memory/cpu/io) is itself severely contended, it outranks the queue's
// (usually much larger) integrated wait. "Severe" means mean raw contention
// at or above the class floor — wait >= hold on average for wait-ratio
// classes, a quarter of gets missing for the eviction-ratio memory class —
// with a non-trivial share of the integrated delay.
constexpr double kExecRawFloor = 1.0;
constexpr double kMemoryRawFloor = 0.25;
constexpr double kExecMinShare = 0.01;

// Median of a (copied) sample; 0 for an empty one. Deterministic for the
// caller: the sample order does not matter.
TimeMicros Median(std::vector<TimeMicros> sample) {
  if (sample.empty()) {
    return 0;
  }
  std::sort(sample.begin(), sample.end());
  return sample[sample.size() / 2];
}

void AppendLine(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  *out += buf;
  *out += '\n';
}

}  // namespace

Diagnosis DiagnoseTrace(const std::vector<FlightEvent>& events) {
  Diagnosis d;

  // ---- Pass 1: window p99 series. The baseline comes from windows the
  // detector spent calibrating; if the trace predates that labeling (or was
  // truncated), the first few windows stand in. Using the median keeps one
  // noisy calibration window from skewing the threshold.
  std::vector<TimeMicros> calibration_sample;
  std::vector<TimeMicros> leading_sample;
  for (const FlightEvent& ev : events) {
    if (ev.kind != ObsEventKind::kWindowClosed) {
      continue;
    }
    d.windows++;
    TimeMicros p99 = static_cast<TimeMicros>(ev.value);
    d.peak_p99 = std::max(d.peak_p99, p99);
    if (ev.label == "calibrating" && p99 > 0) {
      calibration_sample.push_back(p99);
    }
    if (leading_sample.size() < kCalibrationWindows && p99 > 0) {
      leading_sample.push_back(p99);
    }
  }
  d.baseline_p99 =
      Median(calibration_sample.empty() ? leading_sample : calibration_sample);

  // ---- Pass 2: degraded windows against the reconstructed baseline, and
  // per-resource delay integration from the raw snapshot evidence. The
  // estimator's `overloaded` bit is deliberately ignored here — attribution
  // must stand on wait/hold data alone so the agreement oracle compares two
  // independently derived verdicts.
  std::map<uint32_t, ResourceDossier> dossiers;
  std::map<uint64_t, CulpritVerdict> culprits;
  for (const FlightEvent& ev : events) {
    switch (ev.kind) {
      case ObsEventKind::kWindowClosed: {
        TimeMicros p99 = static_cast<TimeMicros>(ev.value);
        if (d.baseline_p99 > 0 &&
            static_cast<double>(p99) > kDegradedFactor * static_cast<double>(d.baseline_p99)) {
          d.degraded_windows++;
        }
        break;
      }
      case ObsEventKind::kContentionSnapshot: {
        d.snapshots++;
        for (const ObsResourceSample& r : ev.resources) {
          ResourceDossier& doss = dossiers[r.id];
          if (doss.snapshots == 0) {
            doss.id = r.id;
            doss.name = r.name;
            doss.cls = r.cls;
            doss.first_at = ev.time;
          }
          doss.snapshots++;
          doss.last_at = ev.time;
          doss.total_delay_us += r.delay_us;
          doss.peak_delay_us = std::max(doss.peak_delay_us, r.delay_us);
          doss.peak_contention_raw = std::max(doss.peak_contention_raw, r.contention_raw);
          // Accumulate the raw sum here; divided out into the mean below.
          doss.mean_contention_raw += r.contention_raw;
        }
        break;
      }
      case ObsEventKind::kPolicyDecision: {
        for (const ObsCandidateSample& c : ev.candidates) {
          CulpritVerdict& v = culprits[c.key];
          v.key = c.key;
          v.decisions++;
          if (c.pareto) {
            v.pareto++;
          }
          v.score += c.score;
        }
        break;
      }
      case ObsEventKind::kCancelIssued: {
        d.cancels++;
        CulpritVerdict& v = culprits[ev.key];
        v.key = ev.key;
        v.cancels++;
        break;
      }
      default:
        break;
    }
  }

  // ---- Attribution: integrate delay per class; the class carrying the
  // largest share of total stalled time is the bottleneck, and the single
  // worst resource within it is named. Deterministic tie-breaks: class name,
  // then resource id, ascending.
  uint64_t total_delay = 0;
  std::map<std::string, uint64_t> class_delay;
  for (const auto& [id, doss] : dossiers) {
    total_delay += doss.total_delay_us;
    class_delay[doss.cls] += doss.total_delay_us;
  }
  for (auto& [id, doss] : dossiers) {
    doss.delay_share = total_delay > 0
                           ? static_cast<double>(doss.total_delay_us) /
                                 static_cast<double>(total_delay)
                           : 0.0;
    if (doss.snapshots > 0) {
      doss.mean_contention_raw /= static_cast<double>(doss.snapshots);
    }
    d.resources.push_back(doss);
  }
  std::sort(d.resources.begin(), d.resources.end(),
            [](const ResourceDossier& a, const ResourceDossier& b) {
              if (a.total_delay_us != b.total_delay_us) {
                return a.total_delay_us > b.total_delay_us;
              }
              return a.id < b.id;
            });
  // Root-cause pass first: the worst severely-contended execution-stage
  // resource, if any, outranks admission-queue backpressure (the queue backs
  // up *because* the stage behind it stalled; its integrated wait is the
  // symptom's size, not the cause's). The resources are already sorted by
  // integrated delay, so the first qualifying dossier is the worst one.
  for (const ResourceDossier& doss : d.resources) {
    if (doss.cls == "queue") {
      continue;
    }
    double floor = doss.cls == "memory" ? kMemoryRawFloor : kExecRawFloor;
    if (doss.mean_contention_raw >= floor && doss.delay_share >= kExecMinShare) {
      d.blamed_class = doss.cls;
      d.blamed_resource = doss.name;
      break;
    }
  }
  // Otherwise the class carrying the most integrated delay is the verdict.
  if (d.blamed_class.empty()) {
    for (const auto& [cls, delay] : class_delay) {
      // std::map iterates classes in name order, so strictly-greater keeps
      // the lexicographically first class on ties.
      if (d.blamed_class.empty() || delay > class_delay[d.blamed_class]) {
        d.blamed_class = cls;
      }
    }
    for (const ResourceDossier& doss : d.resources) {
      if (doss.cls == d.blamed_class) {
        d.blamed_resource = doss.name;
        break;
      }
    }
  }
  if (!d.blamed_class.empty() && total_delay > 0) {
    d.blame_share = static_cast<double>(class_delay[d.blamed_class]) /
                    static_cast<double>(total_delay);
  }

  d.overload_observed = d.snapshots > 0 || d.degraded_windows > 0;
  if (total_delay == 0) {
    // Snapshots without any integrated delay carry no attributable evidence.
    d.blamed_class.clear();
    d.blamed_resource.clear();
    d.blame_share = 0.0;
  }

  // ---- Culprit ranking: cancels are the strongest signal (the runtime
  // acted on them), then Pareto survivals, then accumulated score; key
  // ascending as the final tie-break.
  std::vector<CulpritVerdict> ranked;
  ranked.reserve(culprits.size());
  for (const auto& [key, v] : culprits) {
    ranked.push_back(v);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const CulpritVerdict& a, const CulpritVerdict& b) {
              if (a.cancels != b.cancels) {
                return a.cancels > b.cancels;
              }
              if (a.pareto != b.pareto) {
                return a.pareto > b.pareto;
              }
              if (a.score != b.score) {
                return a.score > b.score;
              }
              return a.key < b.key;
            });
  if (ranked.size() > kMaxCulprits) {
    ranked.resize(kMaxCulprits);
  }
  d.culprits = std::move(ranked);

  return d;
}

std::string EstimatorBlamedClass(const std::vector<FlightEvent>& events) {
  // Count `overloaded` flags per class across all snapshots — the recorded
  // online verdicts — and return the most frequent class. std::map's name
  // ordering plus strictly-greater gives the deterministic tie-break.
  std::map<std::string, uint64_t> flagged;
  for (const FlightEvent& ev : events) {
    if (ev.kind != ObsEventKind::kContentionSnapshot) {
      continue;
    }
    for (const ObsResourceSample& r : ev.resources) {
      if (r.overloaded) {
        flagged[r.cls]++;
      }
    }
  }
  std::string best;
  uint64_t best_count = 0;
  for (const auto& [cls, count] : flagged) {
    if (count > best_count) {
      best = cls;
      best_count = count;
    }
  }
  return best;
}

std::string Diagnosis::Render() const {
  std::string out;
  AppendLine(&out, "windows: %llu (%llu degraded)  baseline p99 %llu us, peak %llu us",
             (unsigned long long)windows, (unsigned long long)degraded_windows,
             (unsigned long long)baseline_p99, (unsigned long long)peak_p99);
  AppendLine(&out, "evidence: %llu contention snapshot(s), %llu cancel(s)",
             (unsigned long long)snapshots, (unsigned long long)cancels);
  if (!overload_observed) {
    AppendLine(&out, "verdict: no overload observed");
    return out;
  }
  if (blamed_class.empty()) {
    AppendLine(&out, "verdict: degraded windows but no attributable resource delay");
    return out;
  }
  AppendLine(&out, "verdict: bottleneck class %s (%.0f%% of integrated delay), worst resource %s",
             blamed_class.c_str(), blame_share * 100.0, blamed_resource.c_str());
  for (const ResourceDossier& r : resources) {
    AppendLine(&out,
               "  resource %s [%s] id=%u: delay %llu us over %llu snapshot(s), "
               "peak %llu us, share %.0f%%",
               r.name.c_str(), r.cls.c_str(), r.id, (unsigned long long)r.total_delay_us,
               (unsigned long long)r.snapshots, (unsigned long long)r.peak_delay_us,
               r.delay_share * 100.0);
  }
  for (const CulpritVerdict& c : culprits) {
    AppendLine(&out,
               "  culprit key=%llu: %llu cancel(s), pareto %llu/%llu decision(s), score %.3f",
               (unsigned long long)c.key, (unsigned long long)c.cancels,
               (unsigned long long)c.pareto, (unsigned long long)c.decisions, c.score);
  }
  return out;
}

}  // namespace atropos
