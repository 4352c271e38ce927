#include "src/testing/oracles.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <unordered_set>

#include "src/atropos/config.h"
#include "src/atropos/policy.h"

namespace atropos {

namespace {

constexpr double kScoreEps = 1e-9;

void Add(std::vector<OracleViolation>* out, const char* oracle, std::string detail) {
  out->push_back(OracleViolation{oracle, std::move(detail)});
}

std::string Fmt(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return std::string(buf);
}

// Strictly bracketed accounting disciplines: every lock/queue unit a task
// acquires must be returned by that task before it is freed. Memory resources
// (the buffer pool) are caches whose pages legitimately outlive their
// acquiring task and whose eviction frees are attributed to the (possibly
// departed) page owner; cpu/io report durations, not units. Those only have
// to satisfy the conservation identity, not the strict zero checks.
bool StrictClass(ResourceClass cls) {
  return cls == ResourceClass::kLock || cls == ResourceClass::kQueue;
}

// (1) Conservation identity: acquired + overfreed == released + leaked +
// live_held for every resource, however the application behaved.
void AccountingIdentity(const OracleContext& ctx, std::vector<OracleViolation>* out) {
  for (const auto& row : ctx.runtime->AuditAccounting()) {
    if (!row.Balanced()) {
      Add(out, "accounting_identity",
          Fmt("%s: acquired=%llu overfreed=%llu != released=%llu leaked=%llu live=%llu",
              row.name.c_str(), (unsigned long long)row.acquired,
              (unsigned long long)row.overfreed, (unsigned long long)row.released,
              (unsigned long long)row.leaked, (unsigned long long)row.live_held));
    }
  }
}

// (2) Strict disciplines: lock/queue resources never leak, never overfree,
// and hold nothing once the simulation has drained.
void AccountingStrict(const OracleContext& ctx, std::vector<OracleViolation>* out) {
  for (const auto& row : ctx.runtime->AuditAccounting()) {
    if (!StrictClass(row.cls)) {
      continue;
    }
    if (row.leaked != 0 || row.overfreed != 0 || row.live_held != 0) {
      Add(out, "accounting_strict",
          Fmt("%s (%s): leaked=%llu overfreed=%llu live=%llu after drain", row.name.c_str(),
              std::string(ResourceClassName(row.cls)).c_str(), (unsigned long long)row.leaked,
              (unsigned long long)row.overfreed, (unsigned long long)row.live_held));
    }
  }
}

// (3) The runtime's ledger must agree with the audit's independent count of
// the forwarded stream.
void LedgerMatch(const OracleContext& ctx, std::vector<OracleViolation>* out) {
  auto rows = ctx.runtime->AuditAccounting();
  for (const AuditController::ResourceInfo& info : ctx.audit->resources()) {
    if (info.id == kInvalidResourceId) {
      continue;
    }
    auto it = std::find_if(rows.begin(), rows.end(),
                           [&](const AtroposRuntime::ResourceAudit& r) { return r.id == info.id; });
    if (it == rows.end()) {
      Add(out, "ledger_match", Fmt("%s: registered but missing from runtime audit",
                                   info.name.c_str()));
      continue;
    }
    if (it->acquired != info.acquired || it->released != info.released) {
      Add(out, "ledger_match",
          Fmt("%s: runtime acquired=%llu released=%llu, audit saw %llu/%llu",
              info.name.c_str(), (unsigned long long)it->acquired,
              (unsigned long long)it->released, (unsigned long long)info.acquired,
              (unsigned long long)info.released));
    }
  }
}

// (4) Safe cancellation (§3.1, §3.6, §4): cancels only against live,
// cancellable registrations; at most kMaxCancelsPerTask per epoch; none at
// all without a registered initiator; and the runtime's count matches the
// observer's.
void CancelSafety(const OracleContext& ctx, std::vector<OracleViolation>* out) {
  const AtroposStats& stats = ctx.runtime->stats();
  if (!ctx.initiator_registered) {
    if (stats.cancels_issued != 0 || !ctx.audit->cancels().empty()) {
      Add(out, "cancel_safety",
          Fmt("no initiator registered but %llu cancels issued",
              (unsigned long long)stats.cancels_issued));
    }
    return;
  }
  if (stats.cancels_issued != ctx.audit->cancels().size()) {
    Add(out, "cancel_safety",
        Fmt("runtime counted %llu cancels, observer saw %zu",
            (unsigned long long)stats.cancels_issued, ctx.audit->cancels().size()));
  }
  for (const auto& rec : ctx.audit->cancels()) {
    if (!rec.live) {
      Add(out, "cancel_safety",
          Fmt("cancel issued for key=%llu with no live registration",
              (unsigned long long)rec.key));
      continue;
    }
    if (!rec.cancellable_at_issue) {
      Add(out, "cancel_safety",
          Fmt("cancel issued for non-cancellable key=%llu", (unsigned long long)rec.key));
    }
    if (rec.cancels_in_epoch > kMaxCancelsPerTask) {
      Add(out, "cancel_safety",
          Fmt("key=%llu cancelled %d times in one registration (max %d)",
              (unsigned long long)rec.key, rec.cancels_in_epoch, kMaxCancelsPerTask));
    }
  }
}

// (5) Pareto membership: every recorded winner is cancellable, survived the
// non-dominated filter, carries the maximum positive score — and no
// cancellable candidate dominates its gain vector (re-derived here from the
// recorded vectors, not taken from the policy's own flags).
void ParetoMembership(const OracleContext& ctx, std::vector<OracleViolation>* out) {
  ctx.recorder->ForEach([&](const FlightEvent& ev) {
    if (ev.kind != ObsEventKind::kPolicyDecision || ev.label != "victim_selected") {
      return;
    }
    const ObsCandidateSample* winner = nullptr;
    for (const ObsCandidateSample& c : ev.candidates) {
      if (c.key == ev.key) {
        winner = &c;
        break;
      }
    }
    if (winner == nullptr) {
      Add(out, "pareto_membership",
          Fmt("seq=%llu: victim key=%llu not among recorded candidates",
              (unsigned long long)ev.seq, (unsigned long long)ev.key));
      return;
    }
    if (!winner->cancellable) {
      Add(out, "pareto_membership",
          Fmt("seq=%llu: victim key=%llu not cancellable", (unsigned long long)ev.seq,
              (unsigned long long)ev.key));
    }
    if (ev.value <= 0.0) {
      Add(out, "pareto_membership",
          Fmt("seq=%llu: victim selected with non-positive score %.9f",
              (unsigned long long)ev.seq, ev.value));
    }
    if (std::abs(ev.value - winner->score) > kScoreEps) {
      Add(out, "pareto_membership",
          Fmt("seq=%llu: decision score %.9f != winner's recorded score %.9f",
              (unsigned long long)ev.seq, ev.value, winner->score));
    }
    double best = 0.0;
    for (const ObsCandidateSample& c : ev.candidates) {
      if (c.pareto) {
        best = std::max(best, c.score);
      }
    }
    if (winner->score + kScoreEps < best) {
      Add(out, "pareto_membership",
          Fmt("seq=%llu: victim score %.9f below best scored candidate %.9f",
              (unsigned long long)ev.seq, winner->score, best));
    }
    if (ctx.policy == PolicyKind::kHeuristic) {
      // The greedy policy has no Pareto filter; the score checks above are
      // the whole property.
      return;
    }
    if (!winner->pareto) {
      Add(out, "pareto_membership",
          Fmt("seq=%llu: victim key=%llu outside the non-dominated set",
              (unsigned long long)ev.seq, (unsigned long long)ev.key));
    }
    for (const ObsCandidateSample& c : ev.candidates) {
      if (&c == winner || !c.cancellable) {
        continue;
      }
      if (c.gains.size() == winner->gains.size() && Dominates(c.gains, winner->gains)) {
        Add(out, "pareto_membership",
            Fmt("seq=%llu: candidate key=%llu dominates victim key=%llu",
                (unsigned long long)ev.seq, (unsigned long long)c.key,
                (unsigned long long)ev.key));
      }
    }
  });
}

// (6) Detector monotonicity: cancellations (and the policy runs that produce
// them) only happen inside a suspected-overload episode. A recorder that
// wrapped is itself a violation — the oracles' evidence would be truncated.
void DetectorMonotonicity(const OracleContext& ctx, std::vector<OracleViolation>* out) {
  if (ctx.recorder->overwritten() > 0) {
    Add(out, "detector_monotonicity",
        Fmt("flight recorder wrapped: %llu events lost; size the recorder to the run",
            (unsigned long long)ctx.recorder->overwritten()));
    return;
  }
  bool in_overload = false;
  ctx.recorder->ForEach([&](const FlightEvent& ev) {
    switch (ev.kind) {
      case ObsEventKind::kOverloadEntered:
        in_overload = true;
        break;
      case ObsEventKind::kOverloadExited:
        in_overload = false;
        break;
      case ObsEventKind::kCancelIssued:
      case ObsEventKind::kPolicyDecision:
        if (!in_overload) {
          Add(out, "detector_monotonicity",
              Fmt("seq=%llu: %s outside a suspected-overload window",
                  (unsigned long long)ev.seq,
                  std::string(ObsEventKindName(ev.kind)).c_str()));
        }
        break;
      default:
        break;
    }
  });
}

// (7) Quiescence: once the frontend has drained the simulation, nothing is
// left — no pending events, no live coroutines, no registered tasks.
void Quiescence(const OracleContext& ctx, std::vector<OracleViolation>* out) {
  if (ctx.executor->has_pending()) {
    Add(out, "quiescence",
        Fmt("executor still has %zu pending events", ctx.executor->pending_count()));
  }
  if (ctx.executor->live_procs() != 0) {
    Add(out, "quiescence",
        Fmt("%lld coroutine processes still live", (long long)ctx.executor->live_procs()));
  }
  if (ctx.runtime->live_task_count() != 0) {
    Add(out, "quiescence",
        Fmt("%zu tasks still registered with the runtime", ctx.runtime->live_task_count()));
  }
  if (ctx.audit->live_epoch_count() != 0) {
    Add(out, "quiescence",
        Fmt("%zu task epochs never freed", ctx.audit->live_epoch_count()));
  }
}

// (8) Event-stream sanity: seq strictly increasing, time monotone, and the
// client-side aftermath of a cancellation (completion, retry) only for keys
// the runtime actually cancelled.
void EventStreamSanity(const OracleContext& ctx, std::vector<OracleViolation>* out) {
  bool first = true;
  uint64_t last_seq = 0;
  TimeMicros last_time = 0;
  std::unordered_set<uint64_t> cancelled;
  ctx.recorder->ForEach([&](const FlightEvent& ev) {
    if (!first && ev.seq <= last_seq) {
      Add(out, "event_stream_sanity",
          Fmt("seq regressed: %llu after %llu", (unsigned long long)ev.seq,
              (unsigned long long)last_seq));
    }
    if (!first && ev.time < last_time) {
      Add(out, "event_stream_sanity",
          Fmt("seq=%llu: time regressed %llu -> %llu", (unsigned long long)ev.seq,
              (unsigned long long)last_time, (unsigned long long)ev.time));
    }
    first = false;
    last_seq = ev.seq;
    last_time = ev.time;
    if (ev.kind == ObsEventKind::kCancelIssued) {
      cancelled.insert(ev.key);
    } else if (ev.kind == ObsEventKind::kCancelCompleted ||
               ev.kind == ObsEventKind::kTaskRetried) {
      if (cancelled.count(ev.key) == 0) {
        Add(out, "event_stream_sanity",
            Fmt("seq=%llu: %s for key=%llu with no prior cancel_issued",
                (unsigned long long)ev.seq, std::string(ObsEventKindName(ev.kind)).c_str(),
                (unsigned long long)ev.key));
      }
    }
  });
}

// (9) Bounded cancelled-key memo: the §4 memo must not leak. Its lifecycle
// counters obey a conservation identity (live == inserted - consumed -
// evicted), the live set never exceeds the cancellations that fed it, and
// the audit's independently aged shadow agrees with the runtime's count.
void CancelledKeyMemoBounded(const OracleContext& ctx, std::vector<OracleViolation>* out) {
  const AtroposStats& stats = ctx.runtime->stats();
  const uint64_t live = ctx.runtime->cancelled_key_count();
  if (live + stats.cancelled_keys_consumed + stats.cancelled_keys_evicted !=
      stats.cancelled_keys_inserted) {
    Add(out, "cancelled_key_memo",
        Fmt("memo leak: live=%llu + consumed=%llu + evicted=%llu != inserted=%llu",
            (unsigned long long)live, (unsigned long long)stats.cancelled_keys_consumed,
            (unsigned long long)stats.cancelled_keys_evicted,
            (unsigned long long)stats.cancelled_keys_inserted));
  }
  if (stats.cancelled_keys_inserted > stats.cancels_issued) {
    Add(out, "cancelled_key_memo",
        Fmt("%llu memo insertions but only %llu cancels issued",
            (unsigned long long)stats.cancelled_keys_inserted,
            (unsigned long long)stats.cancels_issued));
  }
  if (live != ctx.audit->cancelled_key_memo_count()) {
    Add(out, "cancelled_key_memo",
        Fmt("runtime holds %llu memo entries, audit's aged shadow holds %zu",
            (unsigned long long)live, ctx.audit->cancelled_key_memo_count()));
  }
}

}  // namespace

std::vector<OracleViolation> RunAllOracles(const OracleContext& ctx) {
  std::vector<OracleViolation> out;
  AccountingIdentity(ctx, &out);
  AccountingStrict(ctx, &out);
  LedgerMatch(ctx, &out);
  CancelSafety(ctx, &out);
  ParetoMembership(ctx, &out);
  DetectorMonotonicity(ctx, &out);
  Quiescence(ctx, &out);
  EventStreamSanity(ctx, &out);
  CancelledKeyMemoBounded(ctx, &out);
  return out;
}

std::string FormatViolations(const std::vector<OracleViolation>& violations) {
  std::string out;
  for (const OracleViolation& v : violations) {
    out += "[" + v.oracle + "] " + v.detail + "\n";
  }
  return out;
}

}  // namespace atropos
