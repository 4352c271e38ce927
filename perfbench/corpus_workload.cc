// Corpus workload: single-threaded replay of the committed scenario corpus
// (corpus/*.corpus), each entry checked as the corpus_replay oracle checks
// it. The simulator, apps and the decision pipeline do all the work here;
// the concurrent intake is bypassed (the simulator feeds the runtime
// directly).
//
// Set-up is loading and parsing the corpus and rebuilding every entry's plan.
// The measured loop runs whole passes over the corpus until the requested
// time has elapsed; every pass replays every entry, so the work per pass is
// fixed. The inputs are the committed corpus, so the seed changes nothing.
// Entries replay in corpus order, as corpus_replay does: peak RSS depends on
// the order (allocator reuse between scenarios of different sizes), so a
// seed-shuffled order would move rss_mb by a third between seeds.
//
// The replay thread times a reference slice (SpeedProbe) after every set-up
// and every scenario, outside the timed spans, and the CPU-bound figures are
// reported at nominal host speed.

#include <algorithm>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "perfbench/workloads.h"
#include "src/diagnose/diagnoser.h"
#include "src/mining/corpus.h"
#include "src/mining/miner.h"

namespace perfbench {

namespace {

constexpr const char* kCorpusDir = "corpus";
// ReplayOptions::require_agreement, the corpus_replay floor.
constexpr double kRequiredAgreement = 0.95;

}  // namespace

void RunCorpusWorkload(const Options& opt, Report* report) {
  std::vector<atropos::CorpusEntry> entries;
  std::vector<double> setups;
  std::vector<double> plan_us;
  SpeedProbe probe;
  bool loaded = true;
  for (int i = 0; i < kSetupRepeats; i++) {
    const int64_t t0 = NowNs();
    auto corpus = atropos::LoadCorpusDir(kCorpusDir);
    if (!corpus.ok()) {
      report->Check(false, "load corpus: " + corpus.status().message());
      loaded = false;
      break;
    }
    for (const atropos::CorpusEntry& entry : corpus.value()) {
      const int64_t p0 = NowNs();
      loaded = atropos::PlanForEntry(entry).ok() && loaded;
      plan_us.push_back(static_cast<double>(NowNs() - p0) / 1e3);
    }
    setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    entries = std::move(corpus.value());
    probe.Sample();
  }
  report->Check(loaded && !entries.empty(),
                "corpus loaded and every plan rebuilt (" + std::to_string(entries.size()) +
                    " entries)");
  if (entries.empty()) {
    return;
  }
  report->Note("workload corpus: " + std::to_string(entries.size()) +
               " scenarios, whole passes for at least " + std::to_string(opt.seconds) + " s");

  std::vector<double> scenario_ms, pair_ms, diag_ms;
  uint64_t replayed = 0, failing = 0, passes = 0;
  uint64_t pass_events = 0, pass_cancels = 0, pass_windows = 0, pass_overload = 0;
  double pass_window_ms = 0, pass_detect_ms = 0, pass_relief_ms = 0;
  std::vector<std::string> failures;
  SpanLog spans(opt.trace ? 1 << 16 : 0);
  const int64_t cpu0 = ThreadCpuNs() - probe.spent_cpu_ns();
  const int64_t start = NowNs();
  const int64_t probe_wall0 = probe.spent_wall_ns();
  const int64_t budget = static_cast<int64_t>(opt.seconds * 1e9);
  while (NowNs() - start < budget) {
    uint64_t agreements = 0;
    for (size_t idx = 0; idx < entries.size(); idx++) {
      const atropos::CorpusEntry& entry = entries[idx];
      const int64_t s0 = NowNs();
      auto plan = atropos::PlanForEntry(entry);
      if (!plan.ok()) {
        failing++;
        failures.push_back(entry.name + ": " + plan.status().message());
        continue;
      }
      const int64_t s1 = NowNs();
      const atropos::ScenarioPair pair = atropos::RunScenarioPair(plan.value());
      const int64_t s2 = NowNs();
      const atropos::Diagnosis diagnosis = atropos::DiagnoseTrace(pair.baseline.events);
      const std::string estimator = atropos::EstimatorBlamedClass(pair.baseline.events);
      const int64_t s3 = NowNs();

      // The corpus_replay oracle, entry by entry.
      std::string why;
      if (pair.treatment.digest != entry.digest) {
        why += " treatment-digest";
      }
      if (pair.baseline.digest != entry.baseline_digest) {
        why += " baseline-digest";
      }
      if (!pair.baseline.ok() || !pair.treatment.ok()) {
        why += " oracle-violation";
      }
      if (pair.treatment.stats.cancels_issued != entry.cancels) {
        why += " cancels";
      }
      if (diagnosis.blamed_class != entry.blamed_class || estimator != entry.estimator_class ||
          (diagnosis.blamed_class == estimator) != entry.agreement) {
        why += " attribution";
      }
      const int64_t s4 = NowNs();
      replayed++;
      if (!why.empty()) {
        failing++;
        failures.push_back(entry.name + ":" + why);
      }
      agreements += entry.agreement ? 1 : 0;
      if (opt.trace) {
        const int64_t parent = spans.Add("corpus.scenario", idx, -1, s0, s4);
        spans.Add("mining.plan", idx, parent, s0, s1);
        spans.Add("sim.pair", idx, parent, s1, s2);
        spans.Add("diagnose.trace", idx, parent, s2, s3);
      }
      scenario_ms.push_back(static_cast<double>(s4 - s0) / 1e6);
      pair_ms.push_back(static_cast<double>(s2 - s1) / 1e6);
      diag_ms.push_back(static_cast<double>(s3 - s2) / 1e6);
      probe.Sample();
      if (passes == 0) {
        pass_events += pair.baseline.events.size() + pair.treatment.events.size();
        pass_cancels += pair.treatment.stats.cancels_issued;
        pass_windows += pair.treatment.stats.windows;
        pass_overload += pair.treatment.stats.resource_overload_windows;
        const std::vector<atropos::FlightEvent>& te = pair.treatment.events;
        pass_window_ms += MeanWindowSpacingMs(te);
        pass_detect_ms += MeanGapMs(te, atropos::ObsEventKind::kOverloadEntered,
                                    atropos::ObsEventKind::kCancelIssued);
        pass_relief_ms += MeanGapMs(te, atropos::ObsEventKind::kCancelIssued,
                                    atropos::ObsEventKind::kOverloadExited);
      }
    }
    const double rate = static_cast<double>(agreements) / static_cast<double>(entries.size());
    if (rate < kRequiredAgreement) {
      failing++;
      failures.push_back("agreement rate " + std::to_string(rate) + " below " +
                         std::to_string(kRequiredAgreement));
    }
    passes++;
  }
  // Replay time and CPU without the reference slices run between scenarios.
  const double elapsed_s =
      static_cast<double>(NowNs() - start - (probe.spent_wall_ns() - probe_wall0)) / 1e9;
  const double cpu_ns = static_cast<double>(ThreadCpuNs() - probe.spent_cpu_ns() - cpu0);

  for (size_t i = 0; i < failures.size() && i < 10; i++) {
    report->Note("  failing: " + failures[i]);
  }
  report->Check(failing == 0, "every replay matched its recorded digests, cancels and attribution; "
                              "agreement >= 0.95 every pass (" +
                                  std::to_string(failing) + " failing)");
  report->CountAttempt(replayed, failing);

  const double n = static_cast<double>(entries.size());
  const double tail_q = TailQuantile(scenario_ms.size());
  report->Note("replayed " + std::to_string(replayed) + " scenarios in " +
               std::to_string(passes) + " passes, " + std::to_string(elapsed_s) +
               " s; tail quantile " + std::to_string(tail_q) + " over " +
               std::to_string(scenario_ms.size()) + " samples");
  // Every figure but rss_mb is CPU-bound here: reported at nominal host
  // speed, with the measured values on the note line.
  const double p99 = Quantile(&scenario_ms, tail_q);
  const double rate = static_cast<double>(replayed) / elapsed_s;
  const double cpu_per = cpu_ns / static_cast<double>(std::max<uint64_t>(replayed, 1));
  const double setup = Median(setups);
  const double wall_f = probe.wall_factor();
  report->Note(probe.Describe("replay thread") + "; measured p99 " + std::to_string(p99) +
               " ms, " + std::to_string(rate) + " scenarios/s, " + std::to_string(cpu_per) +
               " cpu ns/scenario, setup " + std::to_string(setup) + " s");
  report->EndToEnd("p99_ms", p99 / wall_f, "ms");
  report->EndToEnd("goodput_per_s", rate * wall_f, "1/s");
  report->EndToEnd("cpu_ns_per_op", cpu_per / probe.cpu_factor(), "ns");
  report->EndToEnd("setup_s", setup / wall_f, "s");
  report->EndToEnd("rss_mb", PeakRssMb(), "MB");
  if (!opt.trace) {
    return;
  }

  const std::string bypassed = "the simulator feeds the runtime directly; capi and the intake "
                               "are not on this path";
  for (const char* name : kHookMetrics) {
    report->Absent(name, "ns", bypassed);
  }
  report->Absent("intake.tick_us_p50", "us", bypassed);
  report->Absent("intake.tick_us_p99", "us", bypassed);
  report->Absent("intake.drain_ns_per_event", "ns", bypassed);
  report->Absent("intake.events_per_req", "events", bypassed);
  report->Absent("intake.drop_frac", "fraction", bypassed);
  report->Absent("intake.max_ring_depth", "events", bypassed);
  report->Absent("intake.control_cpu_ns_per_req", "ns", bypassed);
  report->Absent("capi.app_cpu_ns_per_req", "ns", bypassed);
  // Pipeline figures are per scenario pair (treatment run), in simulated time.
  report->Metric("pipeline.windows", static_cast<double>(pass_windows) / n, "count");
  report->Metric("pipeline.window_ms_mean", pass_window_ms / n, "ms");
  report->Metric("pipeline.overload_windows", static_cast<double>(pass_overload) / n, "count");
  report->Metric("pipeline.cancels_issued", static_cast<double>(pass_cancels) / n, "count");
  report->Metric("pipeline.detect_to_cancel_ms", pass_detect_ms / n, "ms");
  report->Metric("pipeline.relief_ms", pass_relief_ms / n, "ms");
  const std::string no_server = "corpus replay runs no LiveServer";
  for (const char* name : {"live.cancels_delivered", "live.cancels_missed", "live.queued_cancelled"}) {
    report->Absent(name, "count", no_server);
  }
  report->Absent("live.victim_p50_ms", "ms", no_server);
  report->Absent("live.cancel_to_release_p50_ms", "ms", no_server);
  report->Absent("live.shed", "count", no_server);
  report->Absent("loadgen.late_ms_p99", "ms", "corpus replay is not paced");
  report->Absent("sync.lock_waits_aborted", "count", no_server);
  report->Metric("mining.plan_us", Median(plan_us), "us");
  report->Metric("sim.pair_ms_p50", Median(pair_ms), "ms");
  report->Metric("diagnose.trace_ms_p50", Median(diag_ms), "ms");
  report->Metric("sim.flight_events_per_pair", static_cast<double>(pass_events) / n, "events");
  report->Metric("sim.cancels_per_pair", static_cast<double>(pass_cancels) / n, "count");
  if (!WriteSpans(kSpanDir, opt.workload + "-seed" + std::to_string(opt.seed), {&spans})) {
    report->Note(std::string("warning: could not write spans to ") + kSpanDir);
  }
}

}  // namespace perfbench
