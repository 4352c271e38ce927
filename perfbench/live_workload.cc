// Live workloads: a real LiveServer with Atropos fully on, under one of the
// scenario shapes MakeScenario defines.
//
//   convoy  MakeScenario(kLockConvoy) on LiveMiniKv. Range reads convoy point
//           ops behind the keyspace CancellableMutex; Atropos aborts parked
//           scans in place (abortable sync on).
//   noisy   MakeScenario(kNoisyNeighbor) on LiveMiniWeb. A second tenant's
//           scripts hold the worker pool; Atropos cancels them at checkpoints
//           or in their queue slot. No lock is involved.
//
// Open-loop honesty: the scenario's open-loop streams are paced here rather
// than by LoadGen, so each victim is timed from when it was *due* (a stalled
// generator cannot hide queueing) and the generator's own lateness is
// recorded. Only victims due inside the measured window count; the window
// ends a grace period before shutdown, so the queue drain at Stop() never
// shows up as victim failures. Culprits start with the measured window, so
// every measured second is under overload. The scenario's closed-loop
// clients run on LoadGen unchanged.

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/bench.h"
#include "perfbench/drainer.h"
#include "perfbench/workloads.h"
#include "src/atropos/capi.h"
#include "src/atropos/concurrent_frontend.h"
#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/diagnose/diagnoser.h"
#include "src/live/live_app.h"
#include "src/live/live_clock.h"
#include "src/live/live_server.h"
#include "src/live/loadgen.h"
#include "src/live/scenario.h"
#include "src/obs/flight_recorder.h"

namespace perfbench {

namespace {

using atropos::LiveOutcome;
using atropos::TimeMicros;

// The benchmark's own streams key their requests above every sequence
// number LoadGen can reach in a run, so the key spaces never collide.
constexpr uint64_t kVictimSeqBase = 1ull << 40;
constexpr uint64_t kCulpritSeqBase = 1ull << 41;

constexpr TimeMicros kGrace = atropos::Seconds(2);

void SleepUntil(const atropos::Clock& clock, TimeMicros until) {
  const TimeMicros now = clock.NowMicros();
  if (until > now) {
    std::this_thread::sleep_for(std::chrono::microseconds(until - now));
  }
}

// Forwards to the scenario's app and stamps when each benchmark-owned victim
// left the handler. Workers write disjoint slots; the stamps are read only
// after LiveServer::Stop() has joined them.
class TimedApp final : public atropos::LiveApp {
 public:
  TimedApp(std::unique_ptr<atropos::LiveApp> inner, const atropos::Clock* clock, size_t victims)
      : inner_(std::move(inner)), clock_(clock), done_at_(victims, kNotDone) {}

  std::string_view name() const override { return inner_->name(); }
  std::string_view RequestTypeName(int type) const override {
    return inner_->RequestTypeName(type);
  }
  int victim_type() const override { return inner_->victim_type(); }
  int culprit_type() const override { return inner_->culprit_type(); }
  uint64_t aborted_lock_waits() const override { return inner_->aborted_lock_waits(); }

  LiveOutcome Execute(const atropos::LiveRequest& req, const atropos::WaitContext& ctx) override {
    const LiveOutcome out = inner_->Execute(req, ctx);
    const uint64_t seq = req.key & ((1ull << 48) - 1);
    if (seq >= kVictimSeqBase && seq - kVictimSeqBase < done_at_.size()) {
      done_at_[seq - kVictimSeqBase] = static_cast<int64_t>(clock_->NowMicros());
    }
    return out;
  }

  // RunClock time the victim left the handler, or kNotDone.
  int64_t done_at(size_t i) const { return done_at_[i]; }
  static constexpr int64_t kNotDone = -1;

 private:
  std::unique_ptr<atropos::LiveApp> inner_;
  const atropos::Clock* clock_;
  std::vector<int64_t> done_at_;
};

// Everything one live run owns, built in dependency order: the runtime must
// exist before the app (capi default resources), the server before the
// cancel action that targets it.
struct LiveRig {
  LiveRig(const atropos::LiveScenario& s, size_t victim_capacity, bool trace)
      : frontend(&clock, s.config), window(s.config.window), trace(trace) {
    frontend.runtime().SetRecorder(&recorder);
    atropos::InstallGlobalFrontend(&frontend);
    std::unique_ptr<atropos::LiveApp> inner;
    if (s.web) {
      inner = std::make_unique<atropos::LiveMiniWeb>(s.web_options);
    } else {
      inner = std::make_unique<atropos::LiveMiniKv>(s.kv_options);
    }
    app = std::make_unique<TimedApp>(std::move(inner), &clock, victim_capacity);
    atropos::LiveServerOptions sopt;
    sopt.workers = s.workers;
    sopt.queue_capacity = s.queue_capacity;
    sopt.measure_start = 0;  // whole-run stats, for the exactly-once accounting check
    sopt.abortable_sync = true;
    server = std::make_unique<atropos::LiveServer>(&frontend, &clock, app.get(), sopt);
    atropos::LiveServer* srv = server.get();
    frontend.runtime().SetCancelAction([srv](uint64_t key) { srv->DeliverCancel(key); });
  }

  ~LiveRig() {
    drainer.reset();
    server->Stop();
    atropos::InstallGlobalFrontend(nullptr);
  }

  bool Start() {
    const bool ok = server->Start();
    drainer = std::make_unique<Drainer>(&frontend, window, trace);
    return ok;
  }

  atropos::RunClock clock;
  atropos::FlightRecorder recorder;
  atropos::ConcurrentFrontend frontend;
  const TimeMicros window;
  const bool trace;
  std::unique_ptr<TimedApp> app;
  std::unique_ptr<atropos::LiveServer> server;
  std::unique_ptr<Drainer> drainer;
};

}  // namespace

void RunLiveWorkload(const Options& opt, bool convoy, Report* report) {
  const size_t workers = std::max(1u, std::thread::hardware_concurrency());
  const TimeMicros measured = atropos::Seconds(opt.seconds);
  const TimeMicros warmup = atropos::Seconds(1);
  // MakeScenario takes a one-second warmup for any duration of 8 s or more.
  const TimeMicros duration = std::max(warmup + measured + kGrace, atropos::Seconds(8));
  atropos::LiveScenario s = atropos::MakeScenario(
      convoy ? atropos::LiveScenarioKind::kLockConvoy : atropos::LiveScenarioKind::kNoisyNeighbor,
      workers, duration, /*load_scale=*/1.0, opt.seed);
  const TimeMicros window_start = s.warmup;
  const TimeMicros window_end = s.warmup + measured;

  // The scenario's two open-loop streams, victims and culprits, are paced
  // here from schedules drawn up front from the seed. Victims keep the
  // scenario's Poisson arrivals. Culprits keep the scenario's rate but arrive
  // periodically, at a seeded phase: every culprit then starts one overload
  // episode of the same shape, and the victim tail pools many alike episodes.
  // With Poisson culprits the tail is set by the few runs of back-to-back
  // arrivals a seed happens to draw, and it moved by a third between seeds.
  atropos::OpenLoopSpec victims, culprits;
  for (const atropos::OpenLoopSpec& spec : s.open_streams) {
    (spec.client_class == 0 ? victims : culprits) = spec;
  }
  atropos::Rng rng(opt.seed);
  std::vector<TimeMicros> victim_due;
  for (double t = 0; t < static_cast<double>(duration);
       t += rng.NextExponential(1e6 / victims.qps)) {
    victim_due.push_back(static_cast<TimeMicros>(t));
  }
  std::vector<TimeMicros> culprit_due;
  const double period_us = 1e6 / culprits.qps;
  for (double t = static_cast<double>(window_start) + rng.NextDouble() * period_us;
       t < static_cast<double>(duration); t += period_us) {
    culprit_due.push_back(static_cast<TimeMicros>(t));
  }
  const size_t nv = victim_due.size();
  const double slo_ms =
      atropos::ToMillis(s.config.baseline_p99) * (1.0 + s.config.slo_latency_increase);

  report->Note("workload " + opt.workload + ": " + std::string(atropos::ScenarioName(s.kind)) +
               ", workers=" + std::to_string(workers) + ", " + std::to_string(nv) +
               " victims (Poisson " + std::to_string(victims.qps) + "/s), " +
               std::to_string(culprit_due.size()) + " culprits (" +
               std::to_string(culprits.qps) + "/s), measured " + std::to_string(opt.seconds) +
               " s, SLO " + std::to_string(slo_ms) + " ms");

  // Set-up: everything up to a serving server with its control loop ticking.
  // Repeated from scratch; the last rig is the one measured.
  std::unique_ptr<LiveRig> rig;
  std::vector<double> setups;
  SpeedProbe setup_probe;
  bool started = true;
  for (int i = 0; i < kSetupRepeats; i++) {
    rig.reset();
    const int64_t t0 = NowNs();
    rig = std::make_unique<LiveRig>(s, nv, opt.trace);
    started = rig->Start() && started;
    setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    setup_probe.Sample();
  }
  // The measured rig's clock starts at its construction: rebase the schedules.
  LiveRig& r = *rig;
  const TimeMicros t_base = r.clock.NowMicros();
  const TimeMicros deadline = t_base + duration;

  // The scenario's closed-loop clients run on LoadGen unchanged.
  atropos::LoadGen gen(r.server.get(), &r.clock, opt.seed);
  for (atropos::ClosedLoopSpec spec : s.closed_streams) {
    spec.start += t_base;
    gen.AddClosedLoop(spec);
  }

  std::unique_ptr<atropos::ClientWaiter[]> waiters(new atropos::ClientWaiter[nv]);
  std::vector<int64_t> late(nv, 0);
  std::vector<char> accepted(nv, 0);
  std::vector<int64_t> submit_ns(opt.trace ? 2 * nv : 0, 0);

  // Submits request i of a stream at its due time and records how late the
  // submission ran.
  auto pace = [&r, t_base](const std::vector<TimeMicros>& due, auto&& submit) {
    for (size_t i = 0; i < due.size(); i++) {
      SleepUntil(r.clock, t_base + due[i]);
      submit(i, static_cast<int64_t>(r.clock.NowMicros()) - static_cast<int64_t>(t_base + due[i]));
    }
  };
  gen.Start(deadline);
  std::thread victim_pacer([&] {
    pace(victim_due, [&](size_t i, int64_t lateness) {
      late[i] = lateness;
      atropos::LiveRequest req;
      req.key = atropos::MakeLiveKey(victims.type, kVictimSeqBase + i);
      req.type = victims.type;
      req.arg = victims.arg;
      req.client_class = victims.client_class;
      req.waiter = &waiters[i];
      if (opt.trace) {
        submit_ns[2 * i] = NowNs();
      }
      accepted[i] = r.server->Submit(req) ? 1 : 0;
      if (opt.trace) {
        submit_ns[2 * i + 1] = NowNs();
      }
    });
  });
  std::thread culprit_pacer([&] {
    pace(culprit_due, [&](size_t i, int64_t) {
      atropos::LiveRequest req;
      req.key = atropos::MakeLiveKey(culprits.type, kCulpritSeqBase + i);
      req.type = culprits.type;
      req.arg = culprits.arg;
      req.client_class = culprits.client_class;
      r.server->Submit(req);
    });
  });

  SleepUntil(r.clock, deadline);
  // Shutdown order of RunLiveScenario: Stop releases parked closed-loop
  // clients before the generators join; the final Tick runs here once the
  // drainer has handed over.
  r.server->Stop();
  gen.Join();
  victim_pacer.join();
  culprit_pacer.join();
  r.drainer->Stop();
  r.frontend.Tick();

  // Pairs the run clock with the steady clock the other spans use.
  const int64_t run_epoch_ns = NowNs() - static_cast<int64_t>(r.clock.NowMicros()) * 1000;
  const atropos::AtroposStats stats = r.frontend.runtime().stats();
  const atropos::ConcurrentFrontend::IntakeStats intake = r.frontend.intake_stats();
  const std::vector<atropos::FlightEvent> events = r.recorder.Snapshot();
  const auto& by_type = r.server->stats_by_type();

  // ---- Output checks.
  uint64_t served = 0;
  for (const auto& [type, ts] : by_type) {
    served += ts.completed + ts.cancelled;
  }
  const uint64_t arrivals = gen.arrivals() + nv + culprit_due.size();
  report->Check(started, "every LiveServer started");
  report->Check(served + r.server->shed() == arrivals,
                "completed + cancelled + shed == submitted over all types (" +
                    std::to_string(served) + " + " + std::to_string(r.server->shed()) + " vs " +
                    std::to_string(arrivals) + ")");
  report->Check(stats.cancels_issued > 0,
                "Atropos cancelled at least once (" + std::to_string(stats.cancels_issued) + ")");

  // Victim outcomes. Every accepted request has been signalled by now (Stop
  // sheds whatever was still queued), so Wait() returns at once.
  std::vector<double> lat_ms;
  std::vector<double> late_ms;
  uint64_t attempted = 0, ok = 0, cancelled = 0, shed = 0, within_slo = 0;
  bool stamps_match = true;
  for (size_t i = 0; i < nv; i++) {
    const LiveOutcome out = accepted[i] ? waiters[i].Wait() : LiveOutcome::kShed;
    if (victim_due[i] < window_start || victim_due[i] >= window_end) {
      continue;
    }
    attempted++;
    late_ms.push_back(static_cast<double>(late[i]) / 1e3);
    if (out == LiveOutcome::kOk) {
      const int64_t done = r.app->done_at(i);
      if (done == TimedApp::kNotDone) {
        stamps_match = false;
        continue;
      }
      ok++;
      const double ms =
          static_cast<double>(done - static_cast<int64_t>(t_base + victim_due[i])) / 1e3;
      lat_ms.push_back(ms);
      if (ms <= slo_ms) {
        within_slo++;
      }
    } else if (out == LiveOutcome::kCancelled) {
      cancelled++;
    } else {
      shed++;
    }
  }
  report->Check(stamps_match, "every completed victim passed through the handler");
  report->Check(ok + cancelled + shed == attempted,
                "victims: completed + cancelled + shed == attempted (" + std::to_string(ok) +
                    " + " + std::to_string(cancelled) + " + " + std::to_string(shed) +
                    " vs " + std::to_string(attempted) + ")");
  report->CountAttempt(attempted, cancelled + shed);

  const size_t n = lat_ms.size();
  const double tail_q = TailQuantile(n);
  const double p50 = Quantile(&lat_ms, 0.5);
  const double p99 = Quantile(&lat_ms, tail_q);
  const double late_q = TailQuantile(late_ms.size());
  const double late_p99 = Quantile(&late_ms, late_q);
  report->Note("victims: p50 " + std::to_string(p50) + " ms; " + std::to_string(n) +
               " completed samples (p99 rank leaves " +
               std::to_string(n - 1 - static_cast<size_t>(tail_q * n)) + " beyond), " +
               std::to_string(cancelled) + " cancelled, " + std::to_string(shed) + " shed");
  if (late_p99 > p50) {
    report->Note("FLAG: generator lateness p99 " + std::to_string(late_p99) +
                 " ms exceeds victim p50 " + std::to_string(p50) + " ms");
  }
  const double control_ns_per_req =
      static_cast<double>(r.drainer->cpu_ns()) / static_cast<double>(std::max<uint64_t>(arrivals, 1));

  report->EndToEnd("p99_ms", p99, "ms");
  report->EndToEnd("goodput_per_s", static_cast<double>(within_slo) / opt.seconds, "1/s");
  // Victim latency and goodput are bound by sleeps, locks and the SLO and
  // are reported as measured. The control loop's CPU and the set-up are
  // CPU-bound: reported at nominal host speed.
  const double setup = Median(setups);
  report->Note(r.drainer->probe().Describe("drainer") + "; " + setup_probe.Describe("set-up") +
               "; measured control cpu " + std::to_string(control_ns_per_req) + " ns/req, setup " +
               std::to_string(setup) + " s");
  report->EndToEnd("cpu_ns_per_op", control_ns_per_req / r.drainer->probe().cpu_factor(), "ns");
  report->EndToEnd("setup_s", setup / setup_probe.wall_factor(), "s");
  report->EndToEnd("rss_mb", PeakRssMb(), "MB");
  if (!opt.trace) {
    return;
  }

  // ---- Per-layer metrics (traced run).
  const std::string in_server = "the hooks run inside LiveServer and the app, not in the benchmark";
  for (const char* name : kHookMetrics) {
    report->Absent(name, "ns", in_server);
  }
  r.drainer->ReportIntake(intake, arrivals, report);
  report->Absent("capi.app_cpu_ns_per_req", "ns", in_server);

  size_t detect_pairs = 0, relief_pairs = 0;
  const double detect_ms = MeanGapMs(events, atropos::ObsEventKind::kOverloadEntered,
                                     atropos::ObsEventKind::kCancelIssued, &detect_pairs);
  const double relief_ms = MeanGapMs(events, atropos::ObsEventKind::kCancelIssued,
                                     atropos::ObsEventKind::kOverloadExited, &relief_pairs);
  report->Note("pipeline: " + std::to_string(detect_pairs) + " detect->cancel pairs, " +
               std::to_string(relief_pairs) + " cancel->exit pairs");
  report->Metric("pipeline.windows", static_cast<double>(stats.windows), "count");
  report->Metric("pipeline.window_ms_mean", MeanWindowSpacingMs(events), "ms");
  report->Metric("pipeline.overload_windows", static_cast<double>(stats.resource_overload_windows),
                 "count");
  report->Metric("pipeline.cancels_issued", static_cast<double>(stats.cancels_issued), "count");
  report->Metric("pipeline.detect_to_cancel_ms", detect_ms, "ms");
  report->Metric("pipeline.relief_ms", relief_ms, "ms");

  const atropos::LatencyHistogram& c2r = r.server->cancel_to_release();
  report->Note("cancel-to-release: " + std::to_string(c2r.count()) + " samples");
  report->Metric("live.cancels_delivered", static_cast<double>(r.server->board().delivered()),
                 "count");
  report->Metric("live.cancels_missed", static_cast<double>(r.server->board().missed()), "count");
  report->Metric("live.queued_cancelled", static_cast<double>(r.server->queued_cancelled()),
                 "count");
  report->Metric("live.victim_p50_ms", p50, "ms");
  report->Metric("live.cancel_to_release_p50_ms", atropos::ToMillis(c2r.P50()), "ms");
  report->Metric("live.shed", static_cast<double>(r.server->shed()), "count");
  report->Metric("loadgen.late_ms_p99", late_p99, "ms");
  report->Metric("sync.lock_waits_aborted", static_cast<double>(r.app->aborted_lock_waits()),
                 "count");

  const std::string no_corpus = "the live workload replays no corpus scenarios";
  report->Absent("mining.plan_us", "us", no_corpus);
  report->Absent("sim.pair_ms_p50", "ms", no_corpus);
  std::vector<double> diag_ms;
  std::string blamed;
  for (int i = 0; i < 5; i++) {
    const int64_t d0 = NowNs();
    blamed = atropos::DiagnoseTrace(events).blamed_class;
    diag_ms.push_back(static_cast<double>(NowNs() - d0) / 1e6);
  }
  report->Note("diagnoser on the live trace (" + std::to_string(events.size()) +
               " events) blames \"" + blamed + "\"");
  report->Metric("diagnose.trace_ms_p50", Median(diag_ms), "ms");
  report->Absent("sim.flight_events_per_pair", "events", no_corpus);
  report->Absent("sim.cancels_per_pair", "count", no_corpus);

  // Victim spans: due -> handler exit, with the Submit call as the child.
  SpanLog victim_spans(2 * nv);
  for (size_t i = 0; i < nv; i++) {
    const uint64_t key = atropos::MakeLiveKey(victims.type, kVictimSeqBase + i);
    const int64_t done = accepted[i] ? r.app->done_at(i) : TimedApp::kNotDone;
    const int64_t start = run_epoch_ns + static_cast<int64_t>(t_base + victim_due[i]) * 1000;
    const int64_t end = done != TimedApp::kNotDone ? run_epoch_ns + done * 1000 : submit_ns[2 * i + 1];
    const int64_t parent = victim_spans.Add("live.victim", key, -1, start, end);
    victim_spans.Add("live.submit", key, parent, submit_ns[2 * i], submit_ns[2 * i + 1]);
  }
  if (!WriteSpans(kSpanDir, opt.workload + "-seed" + std::to_string(opt.seed),
                  {&victim_spans, &r.drainer->spans()})) {
    report->Note(std::string("warning: could not write spans to ") + kSpanDir);
  }
}

}  // namespace perfbench
