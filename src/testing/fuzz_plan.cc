#include "src/testing/fuzz_plan.h"

#include <algorithm>

#include "src/apps/minidb.h"
#include "src/apps/minikv.h"
#include "src/common/rng.h"

namespace atropos {

std::string_view FuzzAppModeName(FuzzAppMode mode) {
  switch (mode) {
    case FuzzAppMode::kKvLock:
      return "kv_lock";
    case FuzzAppMode::kDbTableLocks:
      return "db_table_locks";
    case FuzzAppMode::kDbTickets:
      return "db_tickets";
    case FuzzAppMode::kDbBufferPool:
      return "db_buffer_pool";
    case FuzzAppMode::kDbIo:
      return "db_io";
    case FuzzAppMode::kKvCompactionStorm:
      return "kv_compaction_storm";
    case FuzzAppMode::kDbTenantNoisy:
      return "db_tenant_noisy";
  }
  return "unknown";
}

bool ParseFuzzAppMode(std::string_view name, FuzzAppMode* out) {
  for (int i = 0; i < kNumFuzzAppModesExtended; i++) {
    FuzzAppMode mode = static_cast<FuzzAppMode>(i);
    if (FuzzAppModeName(mode) == name) {
      *out = mode;
      return true;
    }
  }
  return false;
}

namespace {

// Appends a Poisson arrival stream of `type` requests over [start, end).
void AddStream(std::vector<FuzzRequest>* out, Rng rng, double qps, int type,
               int client_class, TimeMicros start, TimeMicros end, int arg_modulo,
               uint64_t fixed_arg) {
  if (qps <= 0.0) {
    return;
  }
  double mean_gap = static_cast<double>(kMicrosPerSecond) / qps;
  TimeMicros t = start;
  while (true) {
    t += static_cast<TimeMicros>(rng.NextExponential(mean_gap)) + 1;
    if (t >= end) {
      return;
    }
    FuzzRequest req;
    req.at = t;
    req.type = type;
    req.client_class = client_class;
    req.arg = arg_modulo > 0 ? rng.NextBounded(static_cast<uint64_t>(arg_modulo)) : fixed_arg;
    out->push_back(req);
  }
}

}  // namespace

FuzzPlan PlanFromSeed(uint64_t seed, const FuzzPlanOptions& options) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x6a09e667f3bcc909ull);
  FuzzPlan plan;
  plan.seed = seed;
  plan.mode = static_cast<FuzzAppMode>(rng.NextBounded(
      options.extended_modes ? kNumFuzzAppModesExtended : kNumFuzzAppModes));
  if (options.force_mode >= 0 && options.force_mode < kNumFuzzAppModesExtended) {
    plan.mode = static_cast<FuzzAppMode>(options.force_mode);
  }

  // ---- Runtime configuration points.
  AtroposConfig& cfg = plan.config;
  cfg.window = static_cast<TimeMicros>(rng.NextUniform(50'000, 150'000));
  cfg.slo_latency_increase = rng.NextUniform(0.10, 0.60);
  cfg.contention_threshold = rng.NextUniform(0.05, 0.25);
  cfg.min_cancel_interval = static_cast<TimeMicros>(rng.NextUniform(50'000, 400'000));
  cfg.policy = static_cast<PolicyKind>(rng.NextBounded(3));
  cfg.timestamp_mode =
      rng.NextBernoulli(0.5) ? TimestampMode::kSampled : TimestampMode::kPerEvent;
  cfg.reexec_calm_windows = static_cast<int>(rng.NextBounded(31)) + 10;

  // ---- Frontend shape.
  plan.duration = static_cast<TimeMicros>(rng.NextUniform(6.0, 10.0) * kMicrosPerSecond);
  plan.warmup = Seconds(2);
  plan.tick_window = cfg.window;
  plan.retry_cancelled = rng.NextBernoulli(0.8);
  plan.max_retry_wait = static_cast<TimeMicros>(rng.NextUniform(1.0, 3.0) * kMicrosPerSecond);

  // ---- Request schedule. Victims arrive from t=0 (the detector calibrates
  // on them); culprits only once calibration has had a chance to finish.
  double scale = options.load_scale * rng.NextUniform(0.7, 1.3);
  TimeMicros t0 = 0;
  TimeMicros tc = static_cast<TimeMicros>(rng.NextUniform(2.5, 3.5) * kMicrosPerSecond);
  TimeMicros end = plan.duration;
  std::vector<FuzzRequest>* reqs = &plan.requests;
  switch (plan.mode) {
    case FuzzAppMode::kKvLock: {
      AddStream(reqs, rng.Fork(), 400 * scale, kKvPointOp, 0, t0, end, 0, 0);
      uint64_t span = 50'000 + rng.NextBounded(250'000);
      AddStream(reqs, rng.Fork(), rng.NextUniform(0.3, 0.7), kKvRangeRead, 1, tc, end, 0, span);
      break;
    }
    case FuzzAppMode::kDbTableLocks: {
      AddStream(reqs, rng.Fork(), 450 * scale, kDbPointSelect, 0, t0, end, 5, 0);
      AddStream(reqs, rng.Fork(), 220 * scale, kDbInsert, 0, t0, end, 5, 0);
      AddStream(reqs, rng.Fork(), rng.NextUniform(0.2, 0.5), kDbTableScan, 1, tc, end, 5, 0);
      AddStream(reqs, rng.Fork(), rng.NextUniform(0.1, 0.3), kDbBackup, 1, tc, end, 0, 0);
      break;
    }
    case FuzzAppMode::kDbTickets: {
      AddStream(reqs, rng.Fork(), 1200 * scale, kDbPointSelect, 0, t0, end, 0, 0);
      AddStream(reqs, rng.Fork(), rng.NextUniform(0.8, 2.0), kDbSlowQuery, 1, tc, end, 0, 0);
      break;
    }
    case FuzzAppMode::kDbBufferPool: {
      AddStream(reqs, rng.Fork(), 1000 * scale, kDbPointSelect, 0, t0, end, 5, 0);
      AddStream(reqs, rng.Fork(), 350 * scale, kDbRowUpdate, 0, t0, end, 5, 0);
      uint64_t pages = 4000 + rng.NextBounded(8000);
      uint64_t table = rng.NextBounded(5);
      AddStream(reqs, rng.Fork(), rng.NextUniform(0.2, 0.4), kDbDumpQuery, 1, tc, end, 0,
                (pages << 8) | table);
      break;
    }
    case FuzzAppMode::kDbIo: {
      AddStream(reqs, rng.Fork(), 400 * scale, kDbIoQuery, 0, t0, end, 0, 0);
      uint64_t bytes = (128 + rng.NextBounded(384)) * 1024 * 1024;
      AddStream(reqs, rng.Fork(), rng.NextUniform(0.15, 0.3), kDbVacuum, 1, tc, end, 0, bytes);
      break;
    }
    case FuzzAppMode::kKvCompactionStorm: {
      // Mixed storm on the keyspace lock: steady point ops, a *background*
      // compaction-style range sweep (no SLO, guaranteed re-execution under
      // §4), and bursts of foreground scans from the SLO-bearing class —
      // the convoy forms from both directions at once.
      AddStream(reqs, rng.Fork(), 380 * scale, kKvPointOp, 0, t0, end, 0, 0);
      uint64_t sweep_span = 250'000 + rng.NextBounded(450'000);
      {
        Rng compaction = rng.Fork();
        double mean_gap = rng.NextUniform(1.5, 3.0) * kMicrosPerSecond;
        TimeMicros t = tc;
        while (true) {
          t += static_cast<TimeMicros>(compaction.NextExponential(mean_gap)) + 1;
          if (t >= end) {
            break;
          }
          FuzzRequest req;
          req.at = t;
          req.type = kKvRangeRead;
          req.arg = sweep_span;
          req.client_class = 1;
          req.background = true;
          reqs->push_back(req);
        }
      }
      {
        Rng storm = rng.Fork();
        uint64_t storm_span = 15'000 + rng.NextBounded(50'000);
        TimeMicros t = tc + static_cast<TimeMicros>(rng.NextUniform(0.0, 0.8) * kMicrosPerSecond);
        while (t < end) {
          size_t burst = 2 + storm.NextBounded(5);
          for (size_t i = 0; i < burst; i++) {
            FuzzRequest req;
            req.at = t + static_cast<TimeMicros>(storm.NextUniform(0, 100'000));
            if (req.at >= end) {
              continue;
            }
            req.type = kKvRangeRead;
            req.arg = storm_span;
            req.client_class = 0;  // foreground scans carry the SLO
            reqs->push_back(req);
          }
          t += static_cast<TimeMicros>(storm.NextUniform(1.0, 2.2) * kMicrosPerSecond);
        }
      }
      break;
    }
    case FuzzAppMode::kDbTenantNoisy: {
      // Multi-tenant noisy neighbor: tenant 0 carries the SLO with a point
      // workload sized to the pool's hot set; tenant 1 floods the shared
      // buffer pool with repeated mid-size dumps. No single giant request —
      // the aggregate neighbor pressure is the culprit shape.
      AddStream(reqs, rng.Fork(), 900 * scale, kDbPointSelect, 0, t0, end, 5, 0);
      AddStream(reqs, rng.Fork(), 300 * scale, kDbRowUpdate, 0, t0, end, 5, 0);
      uint64_t pages = 2500 + rng.NextBounded(4500);
      uint64_t table = rng.NextBounded(5);
      AddStream(reqs, rng.Fork(), rng.NextUniform(0.4, 1.0), kDbDumpQuery, 1, tc, end, 0,
                (pages << 8) | table);
      AddStream(reqs, rng.Fork(), 60 * scale, kDbPointSelect, 1, tc, end, 5, 0);
      break;
    }
  }
  // Occasionally inject maintenance marked unsafe to kill: the policy must
  // route around it even when it is the heaviest resource user.
  if (rng.NextBernoulli(0.15) && !plan.requests.empty()) {
    FuzzRequest shot = plan.requests[rng.NextBounded(plan.requests.size())];
    shot.at = tc + static_cast<TimeMicros>(rng.NextUniform(0.0, 1.0) * kMicrosPerSecond);
    shot.client_class = 1;
    shot.non_cancellable = true;
    plan.requests.push_back(shot);
  }
  // Each stream above is generated in time order except the storm's bursts,
  // so the schedule is a concatenation of sorted runs: one per stream, one per
  // stretch of the storm between descents, and the shot. Fold each run into
  // the sorted prefix with a stable merge, which sends ties to the earlier
  // run: the result is the stable sort of the whole schedule, without
  // re-sorting what is already sorted. The shot pick above indexes the
  // unmerged concatenation.
  const auto first = plan.requests.begin();
  const auto last = plan.requests.end();
  auto by_time = [](const FuzzRequest& a, const FuzzRequest& b) { return a.at < b.at; };
  auto sorted_end = std::is_sorted_until(first, last, by_time);
  while (sorted_end != last) {
    const auto run_end = std::is_sorted_until(sorted_end, last, by_time);
    std::inplace_merge(first, sorted_end, run_end, by_time);
    sorted_end = run_end;
  }

  // ---- Fault injections.
  if (rng.NextBernoulli(0.5)) {
    plan.faults.cancel_delay = static_cast<TimeMicros>(rng.NextUniform(1'000, 80'000));
  }
  size_t hiccups = rng.NextBounded(6);
  for (size_t i = 0; i < hiccups; i++) {
    plan.faults.extra_ticks.push_back(
        static_cast<TimeMicros>(rng.NextUniform(0.0, ToSeconds(plan.duration)) *
                                kMicrosPerSecond));
  }
  std::sort(plan.faults.extra_ticks.begin(), plan.faults.extra_ticks.end());
  plan.faults.register_cancel_action = !rng.NextBernoulli(0.05);
  plan.faults.drop_free_request_type = options.drop_free_request_type;
  return plan;
}

FuzzPlan RestrictPlan(const FuzzPlan& plan, const std::vector<size_t>& keep) {
  // Field by field, so the seed's whole schedule is never copied; only the
  // kept requests are. Every corpus scenario is a restricted plan, so the
  // corpus digests pin this copy.
  FuzzPlan out;
  out.seed = plan.seed;
  out.mode = plan.mode;
  out.config = plan.config;
  out.duration = plan.duration;
  out.warmup = plan.warmup;
  out.tick_window = plan.tick_window;
  out.retry_cancelled = plan.retry_cancelled;
  out.max_retry_wait = plan.max_retry_wait;
  out.faults = plan.faults;
  out.requests.reserve(keep.size());
  out.kept.reserve(keep.size());
  for (size_t idx : keep) {
    if (idx >= plan.requests.size()) {
      continue;
    }
    out.requests.push_back(plan.requests[idx]);
    out.kept.push_back(plan.kept.empty() ? idx : plan.kept[idx]);
  }
  return out;
}

}  // namespace atropos
