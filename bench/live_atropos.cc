// Live-threads execution mode driver.
//
// Runs one overload scenario three ways and prints them side by side:
//
//   1. live, cancellation on  — real worker threads, Atropos ticking on a
//      drainer thread, targeted cancellation via the CancelBoard;
//   2. live, cancellation off — same threads, tracing on, actions disabled
//      (the Fig-14 "no-cancel" shape), showing what the overload costs;
//   3. simulator counterpart  — the same scenario shape on the coroutine
//      apps, for the sim-vs-live digest cross-check.
//
// The lock-convoy scenario adds a fourth run: cancellation on but abortable
// synchronization off (checkpoint polling, DESIGN.md §16) — a cancelled
// waiter still acquires the contended lock before it can observe the order,
// so the cancel-to-release latency tracks the culprit's hold time instead of
// collapsing to delivery cost.
//
// Usage: live_atropos [--scenario=culprit-burst|noisy-neighbor|lock-convoy]
//                     [--duration=SECONDS] [--workers=N] [--load-scale=F]
//                     [--seed=N] [--no-crosscheck] [--json[=path]]
//                     [--trace=path] [--trace-baseline=path]
//
// --trace / --trace-baseline dump the flight-recorder stream of the
// cancellation-on / cancellation-off run as JSONL, consumable by
// `atropos_mine diagnose --trace=...` (the offline bottleneck diagnoser).
//
// Exit status: 0 when the digest cross-check passes (or was disabled),
// 1 when it fails.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/common/json_writer.h"
#include "src/common/table.h"
#include "src/live/live_run.h"
#include "src/obs/export.h"

namespace atropos {
namespace {

struct CliOptions {
  LiveScenarioKind scenario = LiveScenarioKind::kCulpritBurst;
  double duration_s = 8.0;
  size_t workers = 8;
  double load_scale = 1.0;
  uint64_t seed = 1;
  bool crosscheck = true;
  std::string json_path;
  std::string trace_path;           // cancellation-on run's event stream
  std::string trace_baseline_path;  // cancellation-off run's event stream
};

bool ParseArgs(int argc, char** argv, CliOptions* opt) {
  for (int i = 1; i < argc; i++) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--scenario=", 11) == 0) {
      if (!ParseScenario(arg + 11, &opt->scenario)) {
        std::fprintf(stderr, "unknown scenario '%s'\n", arg + 11);
        return false;
      }
    } else if (std::strncmp(arg, "--duration=", 11) == 0) {
      opt->duration_s = std::strtod(arg + 11, nullptr);
    } else if (std::strncmp(arg, "--workers=", 10) == 0) {
      opt->workers = std::strtoull(arg + 10, nullptr, 10);
    } else if (std::strncmp(arg, "--load-scale=", 13) == 0) {
      opt->load_scale = std::strtod(arg + 13, nullptr);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      opt->seed = std::strtoull(arg + 7, nullptr, 10);
    } else if (std::strcmp(arg, "--no-crosscheck") == 0) {
      opt->crosscheck = false;
    } else if (std::strcmp(arg, "--json") == 0) {
      opt->json_path = "BENCH_live.json";
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      opt->json_path = arg + 7;
    } else if (std::strncmp(arg, "--trace=", 8) == 0) {
      opt->trace_path = arg + 8;
    } else if (std::strncmp(arg, "--trace-baseline=", 17) == 0) {
      opt->trace_baseline_path = arg + 17;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg);
      return false;
    }
  }
  return true;
}

void AddLiveRow(TextTable& table, const char* label, const LiveRunResult& r) {
  table.AddRow({label, TextTable::Num(r.goodput_qps, 1),
                TextTable::Num(static_cast<double>(r.victim_p50) / 1000.0, 1),
                TextTable::Num(static_cast<double>(r.victim_p99) / 1000.0, 1),
                std::to_string(r.culprit_completed), std::to_string(r.culprit_cancelled),
                std::to_string(r.stats.cancels_issued), std::to_string(r.shed)});
}

void JsonLiveRun(JsonWriter& json, const char* name, const LiveRunResult& r) {
  json.Key(name).BeginObject();
  json.Field("goodput_qps", r.goodput_qps);
  json.Field("victim_p50_us", static_cast<uint64_t>(r.victim_p50));
  json.Field("victim_p99_us", static_cast<uint64_t>(r.victim_p99));
  json.Field("victim_completed", r.victim_completed);
  json.Field("culprit_completed", r.culprit_completed);
  json.Field("culprit_cancelled", r.culprit_cancelled);
  json.Field("arrivals", r.arrivals);
  json.Field("shed", r.shed);
  json.Field("cancels_issued", r.stats.cancels_issued);
  json.Field("cancels_delivered", r.cancels_delivered);
  json.Field("cancels_missed", r.cancels_missed);
  json.Field("lock_waits_aborted", r.lock_waits_aborted);
  json.Field("queued_cancelled", r.queued_cancelled);
  json.Field("cancel_to_release_count", r.cancel_to_release_count);
  json.Field("cancel_to_release_p50_us", static_cast<uint64_t>(r.cancel_to_release_p50));
  json.Field("cancel_to_release_p99_us", static_cast<uint64_t>(r.cancel_to_release_p99));
  json.Field("windows", r.stats.windows);
  json.Field("overload_windows", r.stats.suspected_overload_windows);
  json.Field("trace_events_drained", r.intake.drained_total);
  json.Field("trace_events_dropped", r.intake.dropped_total);
  json.Field("producers_seen", r.intake.producers_seen);
  json.Field("producers_retired", r.intake.producers_retired);
  json.EndObject();
}

void JsonDigest(JsonWriter& json, const char* name, const DecisionDigest& d) {
  json.Key(name).BeginObject();
  json.Field("windows", d.windows);
  json.Field("overload_entered", d.overload_entered);
  json.Field("cancels", d.cancels);
  json.Field("dominant_cancel_label", d.DominantCancelLabel());
  json.Field("dominant_overloaded_class", d.DominantOverloadedClass());
  json.Field("first_cancel_frac", d.first_cancel_frac);
  json.EndObject();
}

int Main(int argc, char** argv) {
  CliOptions opt;
  if (!ParseArgs(argc, argv, &opt)) {
    return 2;
  }

  LiveScenario scenario = MakeScenario(opt.scenario, opt.workers,
                                       Seconds(opt.duration_s), opt.load_scale, opt.seed);
  std::printf("live_atropos: scenario %s, %zu workers, %.1f s (%.1f s warmup), seed %llu\n\n",
              std::string(ScenarioName(opt.scenario)).c_str(), scenario.workers,
              ToSeconds(scenario.duration), ToSeconds(scenario.warmup),
              static_cast<unsigned long long>(opt.seed));

  LiveRunOptions with_cancel;
  with_cancel.cancellation_enabled = true;
  const LiveRunResult live = RunLiveScenario(scenario, with_cancel);

  LiveRunOptions no_cancel;
  no_cancel.cancellation_enabled = false;
  const LiveRunResult baseline = RunLiveScenario(scenario, no_cancel);

  // Lock-convoy only: the checkpoint-polling counterpart isolates the value
  // of in-place waiter abort with cancellation otherwise identical.
  const bool convoy = opt.scenario == LiveScenarioKind::kLockConvoy;
  LiveRunResult polling;
  if (convoy) {
    LiveRunOptions poll_opts;
    poll_opts.cancellation_enabled = true;
    poll_opts.abortable_sync = false;
    polling = RunLiveScenario(scenario, poll_opts);
  }

  TextTable table({"run", "goodput qps", "victim p50 ms", "victim p99 ms", "culprits done",
                   "culprits cancelled", "cancels issued", "shed"});
  AddLiveRow(table, "live + atropos", live);
  if (convoy) {
    AddLiveRow(table, "live + atropos, polling sync", polling);
  }
  AddLiveRow(table, "live, no cancellation", baseline);
  std::printf("%s\n", table.Render().c_str());

  if (convoy) {
    std::printf("cancel-to-release: in-place abort p50 %.1f ms / p99 %.1f ms (%llu waits aborted, "
                "%llu queued tasks cancelled unexecuted)\n",
                static_cast<double>(live.cancel_to_release_p50) / 1000.0,
                static_cast<double>(live.cancel_to_release_p99) / 1000.0,
                static_cast<unsigned long long>(live.lock_waits_aborted),
                static_cast<unsigned long long>(live.queued_cancelled));
    std::printf("cancel-to-release: checkpoint polling p50 %.1f ms / p99 %.1f ms (cancelled "
                "waiters acquire before observing the order)\n\n",
                static_cast<double>(polling.cancel_to_release_p50) / 1000.0,
                static_cast<double>(polling.cancel_to_release_p99) / 1000.0);
  }

  const double recovery = baseline.goodput_qps > 0
                              ? live.goodput_qps / baseline.goodput_qps
                              : (live.goodput_qps > 0 ? 1e9 : 1.0);
  std::printf("goodput with targeted cancellation: %.1f qps vs %.1f qps without (%.2fx)\n",
              live.goodput_qps, baseline.goodput_qps, recovery);
  std::printf("intake: %llu events drained, %llu dropped, %llu producers (%llu retired)\n\n",
              static_cast<unsigned long long>(live.intake.drained_total),
              static_cast<unsigned long long>(live.intake.dropped_total),
              static_cast<unsigned long long>(live.intake.producers_seen),
              static_cast<unsigned long long>(live.intake.producers_retired));

  for (const auto& [path, run] :
       {std::pair<const std::string&, const LiveRunResult&>{opt.trace_path, live},
        {opt.trace_baseline_path, baseline}}) {
    if (path.empty()) {
      continue;
    }
    Status written = WriteJsonl(path, run.events);
    if (written.ok()) {
      std::printf("wrote %zu flight event(s) to %s\n", run.events.size(), path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s: %s\n", path.c_str(),
                   written.ToString().c_str());
      return 1;
    }
  }

  SimCounterpartResult sim;
  CrossCheckReport report;
  if (opt.crosscheck) {
    sim = RunSimCounterpart(scenario);
    std::printf("sim counterpart: %.1f qps, p99 %.1f ms, %llu cancels\n",
                sim.metrics.ThroughputQps(), static_cast<double>(sim.metrics.P99()) / 1000.0,
                static_cast<unsigned long long>(sim.stats.cancels_issued));
    report = CrossCheckDigests(live.digest, sim.digest);
    std::printf("%s\n", report.Render().c_str());
  }

  if (!opt.json_path.empty()) {
    JsonWriter json;
    json.BeginObject();
    json.Field("bench", "live_atropos");
    json.Field("scenario", ScenarioName(opt.scenario));
    json.Field("workers", static_cast<uint64_t>(scenario.workers));
    json.Field("duration_s", ToSeconds(scenario.duration));
    json.Field("seed", opt.seed);
    JsonLiveRun(json, "live_with_cancel", live);
    if (convoy) {
      JsonLiveRun(json, "live_with_cancel_polling", polling);
    }
    JsonLiveRun(json, "live_no_cancel", baseline);
    json.Field("goodput_recovery", recovery);
    JsonDigest(json, "live_digest", live.digest);
    if (opt.crosscheck) {
      json.Key("sim").BeginObject();
      json.Field("throughput_qps", sim.metrics.ThroughputQps());
      json.Field("p99_us", static_cast<uint64_t>(sim.metrics.P99()));
      json.Field("cancels_issued", sim.stats.cancels_issued);
      json.EndObject();
      JsonDigest(json, "sim_digest", sim.digest);
      json.Key("crosscheck").BeginObject();
      json.Field("pass", report.pass);
      json.Key("checks").BeginArray();
      for (const CrossCheckReport::Check& c : report.checks) {
        json.BeginObject();
        json.Field("name", c.name);
        json.Field("pass", c.pass);
        json.Field("detail", c.detail);
        json.EndObject();
      }
      json.EndArray();
      json.EndObject();
    }
    json.EndObject();
    if (json.WriteFile(opt.json_path)) {
      std::printf("wrote %s\n", opt.json_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", opt.json_path.c_str());
    }
  }

  return opt.crosscheck && !report.pass ? 1 : 0;
}

}  // namespace
}  // namespace atropos

int main(int argc, char** argv) { return atropos::Main(argc, argv); }
