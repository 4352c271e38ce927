#include "src/mining/replay.h"

#include <cstdarg>
#include <cstdio>

#include "src/diagnose/diagnoser.h"
#include "src/mining/miner.h"
#include "src/testing/oracles.h"

namespace atropos {

namespace {

std::string Format(const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

}  // namespace

ReplayReport ReplayCorpus(const std::vector<CorpusEntry>& entries, const ReplayOptions& options) {
  ReplayReport report;
  auto fail = [&report](const std::string& name, std::string what) {
    report.failures.push_back(ReplayFailure{name, std::move(what)});
  };

  for (const CorpusEntry& entry : entries) {
    if (options.limit > 0 && report.replayed >= options.limit) {
      break;
    }
    report.replayed++;

    auto plan = PlanForEntry(entry);
    if (!plan.ok()) {
      fail(entry.name, plan.status().message());
      continue;
    }
    ScenarioPair pair = RunScenarioPair(plan.value());

    // (a) digest stability.
    if (pair.treatment.digest != entry.digest) {
      fail(entry.name, Format("treatment digest %016llx != recorded %016llx",
                              (unsigned long long)pair.treatment.digest,
                              (unsigned long long)entry.digest));
    }
    if (pair.baseline.digest != entry.baseline_digest) {
      fail(entry.name, Format("baseline digest %016llx != recorded %016llx",
                              (unsigned long long)pair.baseline.digest,
                              (unsigned long long)entry.baseline_digest));
    }
    if (!pair.baseline.ok()) {
      fail(entry.name, "baseline run violates oracles:\n" +
                           FormatViolations(pair.baseline.violations));
    }
    if (!pair.treatment.ok()) {
      fail(entry.name, "treatment run violates oracles:\n" +
                           FormatViolations(pair.treatment.violations));
    }
    if (pair.treatment.stats.cancels_issued != entry.cancels) {
      fail(entry.name, Format("cancels %llu != recorded %llu",
                              (unsigned long long)pair.treatment.stats.cancels_issued,
                              (unsigned long long)entry.cancels));
    }

    // (b) attribution agreement, recomputed from the fresh baseline trace.
    Diagnosis diagnosis = DiagnoseTrace(pair.baseline.events);
    std::string estimator = EstimatorBlamedClass(pair.baseline.events);
    if (diagnosis.blamed_class != entry.blamed_class) {
      fail(entry.name, "diagnoser blamed \"" + diagnosis.blamed_class +
                           "\" but the entry records \"" + entry.blamed_class + "\"");
    }
    if (estimator != entry.estimator_class) {
      fail(entry.name, "estimator verdict \"" + estimator + "\" but the entry records \"" +
                           entry.estimator_class + "\"");
    }
    bool agreement = diagnosis.blamed_class == estimator;
    if (agreement != entry.agreement) {
      fail(entry.name, Format("agreement recomputed as %s but recorded as %s",
                              agreement ? "yes" : "no", entry.agreement ? "yes" : "no"));
    }
    if (entry.agreement) {
      report.agreements++;
    } else {
      report.disagreements++;
    }
  }

  int judged = report.agreements + report.disagreements;
  report.agreement_rate = judged > 0 ? static_cast<double>(report.agreements) / judged : 1.0;
  if (judged > 0 && report.agreement_rate < options.require_agreement) {
    report.failures.push_back(ReplayFailure{
        "<corpus>", Format("agreement rate %.3f below required %.3f (%d/%d entries)",
                           report.agreement_rate, options.require_agreement, report.agreements,
                           judged)});
  }
  return report;
}

}  // namespace atropos
