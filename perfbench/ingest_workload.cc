// Ingest workload: instrumentation traffic with no application work and no
// overload, so the producer hooks (capi, ConcurrentFrontend) and the drainer
// (ring drain, merge, apply, Tick) are all that runs.
//
// Three producer threads each offer a fixed request rate, paced in bursts;
// one drainer thread ticks the frontend every control window. Each request
// emits the eleven events a LiveServer + LiveMiniKv point op emits, split the
// way the server splits them: register / request start / queue wait begin
// when it is admitted, and the rest when it is served. A fixed number of
// requests stays in flight per producer, so every Tick prices a few hundred
// live tasks. The offered rate is far below ring capacity: a drop is a
// failure, not load shedding.
//
// Costs are CPU time measured per thread. Producers read their thread CPU
// clock around each burst only, so the pacing sleep stays outside the timed
// span; the drainer reads it around each Tick. Each producer times a
// reference slice (SpeedProbe) every few bursts and the drainer every few
// Ticks, outside the timed spans, and the figures are reported at nominal
// host speed.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/bench.h"
#include "perfbench/drainer.h"
#include "perfbench/workloads.h"
#include "src/atropos/capi.h"
#include "src/atropos/concurrent_frontend.h"
#include "src/common/rng.h"
#include "src/diagnose/diagnoser.h"
#include "src/live/live_clock.h"
#include "src/obs/flight_recorder.h"

namespace perfbench {

namespace {

using atropos::CApiResourceType;
using atropos::TimeMicros;

constexpr int kProducers = 3;
constexpr double kRatePerProducer = 10'000;  // requests/s
constexpr size_t kInFlight = 100;            // per producer
// Requests per paced burst. The first requests after each pacing sleep run
// on cold caches, and how cold follows what other tenants ran on the core
// meanwhile. With bursts of 32 they were 3% of requests and set the p99,
// which then moved by 30% between two sets of runs; at 256 they are 0.4%.
constexpr size_t kBurst = 256;
constexpr double kBurstPeriodUs = 1e6 * static_cast<double>(kBurst) / kRatePerProducer;
constexpr TimeMicros kWindow = atropos::Millis(10);
// Bursts between two reference slices on a producer (about 200 ms). A slice
// evicts the next burst's working set from the caches, so it runs rarely.
constexpr uint64_t kProbeEvery = 8;
// Requests per producer whose per-call spans a traced run keeps for output.
constexpr size_t kSpanRequests = 2000;

// The calls one request makes, in order; the traced run times each.
enum Call {
  kCreateCancel,
  kRequestStart,
  kWaitBegin,
  kWaitEnd,
  kSlowBegin,
  kSlowEnd,
  kGetResource,
  kReportProgress,
  kFreeResource,
  kRequestEnd,
  kFreeCancel,
  kCallCount,
};

static_assert(std::size(kHookMetrics) == kCallCount, "one hook metric per call");

// Cost of one steady-clock read pair, subtracted from traced call spans.
int64_t ClockPairNs() {
  std::vector<double> d;
  for (int i = 0; i < 20'001; i++) {
    const int64_t a = NowNs();
    d.push_back(static_cast<double>(NowNs() - a));
  }
  return static_cast<int64_t>(Median(d));
}

struct ProducerResult {
  uint64_t requests = 0;         // all requests, including prefill and drain
  uint64_t timed_requests = 0;   // requests inside timed bursts
  int64_t cpu_ns = 0;            // thread CPU inside timed bursts
  std::vector<double> req_ns;    // wall time of each timed request's calls
  std::vector<double> late_ms;   // burst start minus due time
  std::vector<uint32_t> call_ns[kCallCount];  // traced run only
  SpanLog spans;
  SpeedProbe probe;              // reference slices between bursts
};

class Producer {
 public:
  Producer(atropos::ConcurrentFrontend* frontend, const atropos::Clock* clock, int index,
           bool trace)
      : frontend_(frontend),
        clock_(clock),
        trace_(trace),
        key_base_((static_cast<uint64_t>(index) + 1) << 40),
        queue_(atropos::CApiDefaultResource(CApiResourceType::QUEUE)) {
    if (trace_) {
      result_.spans = SpanLog(kSpanRequests * (kCallCount + 1));
    }
  }

  // Admits the first kInFlight requests (untimed).
  void Prefill() {
    for (size_t i = 0; i < kInFlight; i++) {
      Admit(next_++);
    }
  }

  // One paced burst: kBurst times, serves the oldest in-flight request and
  // admits a new one.
  void TimedBurst() {
    const int64_t cpu0 = ThreadCpuNs();
    int64_t t = NowNs();
    for (size_t j = 0; j < kBurst; j++) {
      request_span_ = -1;
      if (trace_) {
        request_span_ = result_.spans.Add("ingest.request", Key(next_), -1, t, t);
      }
      Serve(next_ - kInFlight);
      Admit(next_);
      next_++;
      const int64_t now = NowNs();
      result_.req_ns.push_back(static_cast<double>(now - t));
      if (request_span_ >= 0) {
        result_.spans.SetEnd(request_span_, now);
      }
      t = now;
    }
    result_.cpu_ns += ThreadCpuNs() - cpu0;
    result_.timed_requests += kBurst;
  }

  // Sizes the result vectors for `bursts` timed bursts, so no timed span
  // pays for their growth.
  void Reserve(uint64_t bursts) {
    result_.req_ns.reserve(bursts * kBurst);
    result_.late_ms.reserve(bursts);
    if (trace_) {
      for (std::vector<uint32_t>& v : result_.call_ns) {
        v.reserve(bursts * kBurst);
      }
    }
  }

  // Serves whatever is still in flight (untimed).
  void Drain() {
    for (uint64_t i = next_ - kInFlight; i < next_; i++) {
      Serve(i);
    }
    result_.requests = next_;
  }

  ProducerResult& result() { return result_; }

 private:
  struct Slot {
    atropos::Cancellable* handle = nullptr;
    TimeMicros admitted = 0;
  };

  uint64_t Key(uint64_t request) const { return key_base_ | request; }
  Slot& SlotOf(uint64_t request) { return slots_[request % kInFlight]; }

  // Runs one hook; a traced run brackets it with steady-clock reads.
  template <typename Fn>
  void Hook(Call call, uint64_t key, Fn&& fn) {
    if (!trace_) {
      fn();
      return;
    }
    const int64_t a = NowNs();
    fn();
    const int64_t b = NowNs();
    result_.call_ns[call].push_back(static_cast<uint32_t>(b - a));
    if (request_span_ >= 0) {
      result_.spans.Add(kHookMetrics[call], key, request_span_, a, b);
    }
  }

  void Admit(uint64_t request) {
    const uint64_t key = Key(request);
    Slot& slot = SlotOf(request);
    Hook(kCreateCancel, key, [&] { slot.handle = atropos::createCancel(key); });
    slot.admitted = clock_->NowMicros();
    Hook(kRequestStart, key, [&] { frontend_->OnRequestStart(key, 0, 0); });
    Hook(kWaitBegin, key, [&] { frontend_->OnWaitBegin(key, queue_); });
  }

  void Serve(uint64_t request) {
    const uint64_t key = Key(request);
    Slot& slot = SlotOf(request);
    Hook(kWaitEnd, key, [&] { frontend_->OnWaitEnd(key, queue_); });
    {
      atropos::CancellableScope scope(slot.handle);
      Hook(kSlowBegin, key, [] { atropos::slowByResourceBegin(CApiResourceType::LOCK); });
      Hook(kSlowEnd, key, [] { atropos::slowByResourceEnd(CApiResourceType::LOCK); });
      Hook(kGetResource, key, [] { atropos::getResource(1, CApiResourceType::LOCK); });
      Hook(kReportProgress, key, [] { atropos::reportProgress(1, 1); });
      Hook(kFreeResource, key, [] { atropos::freeResource(1, CApiResourceType::LOCK); });
    }
    const TimeMicros latency = clock_->NowMicros() - slot.admitted;
    Hook(kRequestEnd, key, [&] { frontend_->OnRequestEnd(key, latency, 0, 0); });
    Hook(kFreeCancel, key, [&] { atropos::freeCancel(slot.handle); });
    slot.handle = nullptr;
  }

  atropos::ConcurrentFrontend* frontend_;
  const atropos::Clock* clock_;
  bool trace_;
  uint64_t key_base_;
  atropos::ResourceId queue_;
  Slot slots_[kInFlight];
  uint64_t next_ = 0;
  int64_t request_span_ = -1;
  ProducerResult result_;
};

// One ingest run's objects and threads. Producers prefill their in-flight
// window as part of set-up and then wait for Finish() to release them.
class IngestRig {
 public:
  IngestRig(uint64_t seed, bool trace) : recorder_(1 << 16), frontend_(&clock_, Config()) {
    frontend_.runtime().SetRecorder(&recorder_);
    atropos::InstallGlobalFrontend(&frontend_);
    atropos::Rng rng(seed);
    for (int p = 0; p < kProducers; p++) {
      producers_.push_back(std::make_unique<Producer>(&frontend_, &clock_, p, trace));
      // Seed-drawn phase of each producer's burst schedule.
      phase_us_[p] = static_cast<TimeMicros>(rng.NextUniform(0, kBurstPeriodUs));
    }
    drainer_ = std::make_unique<Drainer>(&frontend_, kWindow, trace);
    for (int p = 0; p < kProducers; p++) {
      threads_.emplace_back([this, p] { ProducerLoop(p); });
    }
  }

  ~IngestRig() {
    Finish(0);
    atropos::InstallGlobalFrontend(nullptr);
  }

  IngestRig(const IngestRig&) = delete;
  IngestRig& operator=(const IngestRig&) = delete;

  void WaitReady() {
    while (ready_.load(std::memory_order_acquire) < kProducers) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  // Releases the producers for `bursts` paced bursts each, joins them once
  // they have drained their in-flight requests, then stops the drainer and
  // runs the final Tick here.
  void Finish(uint64_t bursts) {
    if (finished_) {
      return;
    }
    finished_ = true;
    bursts_ = bursts;
    start_ = clock_.NowMicros();
    go_.store(true, std::memory_order_release);
    for (std::thread& t : threads_) {
      t.join();
    }
    drainer_->Stop();
    frontend_.Tick();
  }

  atropos::ConcurrentFrontend& frontend() { return frontend_; }
  const atropos::FlightRecorder& recorder() const { return recorder_; }
  ProducerResult& producer(int p) { return producers_[p]->result(); }
  Drainer& drainer() { return *drainer_; }

 private:
  static atropos::AtroposConfig Config() {
    atropos::AtroposConfig config;
    config.window = kWindow;
    config.baseline_p99 = atropos::Millis(30);  // pinned, as the live scenarios do
    return config;
  }

  void ProducerLoop(int p) {
    Producer& producer = *producers_[p];
    producer.Prefill();
    ready_.fetch_add(1, std::memory_order_release);
    while (!go_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    producer.Reserve(bursts_);
    for (uint64_t b = 0; b < bursts_; b++) {
      const TimeMicros due = start_ + phase_us_[p] + static_cast<TimeMicros>(b * kBurstPeriodUs);
      const TimeMicros now = clock_.NowMicros();
      if (due > now) {
        std::this_thread::sleep_for(std::chrono::microseconds(due - now));
      }
      const int64_t late = static_cast<int64_t>(clock_.NowMicros()) - static_cast<int64_t>(due);
      producer.result().late_ms.push_back(static_cast<double>(late) / 1e3);
      producer.TimedBurst();
      if (b % kProbeEvery == 0) {
        producer.result().probe.Sample();
      }
    }
    producer.Drain();
  }

  atropos::RunClock clock_;
  atropos::FlightRecorder recorder_;
  atropos::ConcurrentFrontend frontend_;
  std::vector<std::unique_ptr<Producer>> producers_;
  TimeMicros phase_us_[kProducers] = {};
  std::atomic<int> ready_{0};
  std::atomic<bool> go_{false};
  uint64_t bursts_ = 0;     // written before go_ is released
  TimeMicros start_ = 0;    // likewise
  bool finished_ = false;
  std::unique_ptr<Drainer> drainer_;
  std::vector<std::thread> threads_;
};

}  // namespace

void RunIngestWorkload(const Options& opt, Report* report) {
  const uint64_t bursts =
      static_cast<uint64_t>(opt.seconds * kRatePerProducer / static_cast<double>(kBurst));
  report->Note("workload ingest: " + std::to_string(kProducers) + " producers x " +
               std::to_string(static_cast<int>(kRatePerProducer)) + " req/s in bursts of " +
               std::to_string(kBurst) + ", " + std::to_string(kInFlight) +
               " in flight each, 1 drainer ticking every " +
               std::to_string(atropos::ToMillis(kWindow)) + " ms");

  std::unique_ptr<IngestRig> rig;
  std::vector<double> setups;
  SpeedProbe setup_probe;
  for (int i = 0; i < kSetupRepeats; i++) {
    rig.reset();
    const int64_t t0 = NowNs();
    rig = std::make_unique<IngestRig>(opt.seed, opt.trace);
    rig->WaitReady();
    setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    setup_probe.Sample();
  }
  rig->Finish(bursts);

  atropos::ConcurrentFrontend& frontend = rig->frontend();
  const atropos::ConcurrentFrontend::IntakeStats intake = frontend.intake_stats();
  const atropos::AtroposStats stats = frontend.runtime().stats();
  uint64_t requests = 0, timed = 0;
  int64_t app_cpu = 0;
  std::vector<double> req_ns, late_ms;
  SpeedProbe producer_probe;
  for (int p = 0; p < kProducers; p++) {
    ProducerResult& pr = rig->producer(p);
    producer_probe.Merge(pr.probe);
    requests += pr.requests;
    timed += pr.timed_requests;
    app_cpu += pr.cpu_ns;
    req_ns.insert(req_ns.end(), pr.req_ns.begin(), pr.req_ns.end());
    late_ms.insert(late_ms.end(), pr.late_ms.begin(), pr.late_ms.end());
  }
  const uint64_t events = requests * kCallCount;  // each hook call emits one event
  report->Check(intake.drained_total + intake.dropped_total == events,
                "delivered + dropped == attempted events (" + std::to_string(intake.drained_total) +
                    " + " + std::to_string(intake.dropped_total) + " vs " +
                    std::to_string(events) + ")");
  report->Check(frontend.runtime().live_task_count() == 0,
                "ledger back to zero live tasks after the final Tick (" +
                    std::to_string(frontend.runtime().live_task_count()) + ")");
  report->Check(stats.ignored_events == 0,
                "no event hit an unregistered task (" + std::to_string(stats.ignored_events) + ")");
  report->CountAttempt(events, intake.dropped_total);

  const double app_ns = static_cast<double>(app_cpu) / static_cast<double>(std::max<uint64_t>(timed, 1));
  const double control_ns =
      static_cast<double>(rig->drainer().cpu_ns()) / static_cast<double>(std::max<uint64_t>(requests, 1));
  const double tail_q = TailQuantile(req_ns.size());
  const double p99 = Quantile(&req_ns, tail_q) / 1e6;
  const double late_p99 = Quantile(&late_ms, TailQuantile(late_ms.size()));
  report->Note("requests: " + std::to_string(requests) + " (" + std::to_string(timed) +
               " timed), app_cpu_ns_per_req " + std::to_string(app_ns) +
               ", control_cpu_ns_per_req " + std::to_string(control_ns) + ", " +
               std::to_string(stats.cancels_issued) + " cancels, " +
               std::to_string(rig->drainer().ticks()) + " ticks");

  // Every figure but rss_mb is CPU-bound here: reported at nominal host
  // speed. A request's calls take about a microsecond, far less than a
  // scheduler slice, so their wall time scales like CPU time.
  const double setup = Median(setups);
  const double cpu_f = producer_probe.cpu_factor();
  report->Note(producer_probe.Describe("producers") + "; " +
               rig->drainer().probe().Describe("drainer") + "; " +
               setup_probe.Describe("set-up") + "; measured p99 " + std::to_string(p99) +
               " ms, setup " + std::to_string(setup) + " s");
  report->EndToEnd("p99_ms", p99 / cpu_f, "ms");
  report->EndToEnd("goodput_per_s", 1e9 / app_ns * cpu_f, "1/s");
  report->EndToEnd("cpu_ns_per_op", control_ns / rig->drainer().probe().cpu_factor(), "ns");
  report->EndToEnd("setup_s", setup / setup_probe.wall_factor(), "s");
  report->EndToEnd("rss_mb", PeakRssMb(), "MB");
  if (!opt.trace) {
    return;
  }

  const int64_t clock_pair = ClockPairNs();
  report->Note("call spans: clock read pair " + std::to_string(clock_pair) +
               " ns subtracted; " + std::to_string(timed) + " samples per call");
  for (int c = 0; c < kCallCount; c++) {
    std::vector<double> d;
    for (int p = 0; p < kProducers; p++) {
      const std::vector<uint32_t>& v = rig->producer(p).call_ns[c];
      d.insert(d.end(), v.begin(), v.end());
    }
    report->Metric(kHookMetrics[c], Median(std::move(d)) - static_cast<double>(clock_pair), "ns");
  }
  rig->drainer().ReportIntake(intake, requests, report);
  report->Metric("capi.app_cpu_ns_per_req", app_ns, "ns");

  const std::vector<atropos::FlightEvent> ev = rig->recorder().Snapshot();
  report->Metric("pipeline.windows", static_cast<double>(stats.windows), "count");
  report->Metric("pipeline.window_ms_mean", MeanWindowSpacingMs(ev), "ms");
  report->Metric("pipeline.overload_windows", static_cast<double>(stats.resource_overload_windows),
                 "count");
  report->Metric("pipeline.cancels_issued", static_cast<double>(stats.cancels_issued), "count");
  const std::string no_overload = "ingest never overloads, so no cancel episode occurs";
  report->Absent("pipeline.detect_to_cancel_ms", "ms", no_overload);
  report->Absent("pipeline.relief_ms", "ms", no_overload);
  const std::string no_server = "ingest runs no LiveServer";
  for (const char* name : {"live.cancels_delivered", "live.cancels_missed", "live.queued_cancelled"}) {
    report->Absent(name, "count", no_server);
  }
  report->Absent("live.victim_p50_ms", "ms", no_server);
  report->Absent("live.cancel_to_release_p50_ms", "ms", no_server);
  report->Absent("live.shed", "count", no_server);
  report->Metric("loadgen.late_ms_p99", late_p99, "ms");
  report->Absent("sync.lock_waits_aborted", "count", "ingest takes no lock");
  const std::string no_corpus = "ingest replays no corpus scenarios";
  report->Absent("mining.plan_us", "us", no_corpus);
  report->Absent("sim.pair_ms_p50", "ms", no_corpus);
  std::vector<double> diag_ms;
  for (int i = 0; i < 5; i++) {
    const int64_t d0 = NowNs();
    atropos::DiagnoseTrace(ev);
    diag_ms.push_back(static_cast<double>(NowNs() - d0) / 1e6);
  }
  report->Metric("diagnose.trace_ms_p50", Median(diag_ms), "ms");
  report->Absent("sim.flight_events_per_pair", "events", no_corpus);
  report->Absent("sim.cancels_per_pair", "count", no_corpus);

  std::vector<const SpanLog*> logs = {&rig->drainer().spans()};
  for (int p = 0; p < kProducers; p++) {
    logs.push_back(&rig->producer(p).spans);
  }
  if (!WriteSpans(kSpanDir, opt.workload + "-seed" + std::to_string(opt.seed), logs)) {
    report->Note(std::string("warning: could not write spans to ") + kSpanDir);
  }
}

}  // namespace perfbench
