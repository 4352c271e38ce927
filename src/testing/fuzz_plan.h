// Seed-derived fuzz plans: a fully materialized description of one
// simulation run — application mode, randomized runtime/frontend
// configuration, a concrete request schedule, and fault injections.
//
// Plans are pure data derived deterministically from a seed, which is what
// makes the whole harness reproducible: the same seed always yields the same
// plan, the same simulation, and the same flight-recorder stream, and the
// shrinker can bisect the request schedule while holding everything else
// fixed (`keep` masks reference indices into the seed's schedule).

#ifndef SRC_TESTING_FUZZ_PLAN_H_
#define SRC_TESTING_FUZZ_PLAN_H_

#include <string>
#include <vector>

#include "src/atropos/config.h"
#include "src/common/clock.h"

namespace atropos {

// Which application + resource-class mix a plan exercises. Each mode mirrors
// one of the reproduced overload cases so culprit shapes are known to bite.
// Modes above kNumFuzzAppModes are the *extended* shapes the scenario miner
// searches in addition to the base set; they are only reachable through
// FuzzPlanOptions (extended_modes / force_mode) so default seeds keep
// producing exactly the plans they always did.
enum class FuzzAppMode {
  kKvLock = 0,             // MiniKv keyspace lock (c16, lock)
  kDbTableLocks = 1,       // MiniDb table locks / backup convoy (c1, lock)
  kDbTickets = 2,          // MiniDb InnoDB ticket queue (c2, queue)
  kDbBufferPool = 3,       // MiniDb buffer pool thrash (c5, memory)
  kDbIo = 4,               // MiniDb vacuum I/O (c8, io)
  kKvCompactionStorm = 5,  // background compaction + foreground scan storm (lock)
  kDbTenantNoisy = 6,      // multi-tenant noisy neighbor on the buffer pool (memory)
};
inline constexpr int kNumFuzzAppModes = 5;          // base, seed-stable set
inline constexpr int kNumFuzzAppModesExtended = 7;  // miner search space

std::string_view FuzzAppModeName(FuzzAppMode mode);

// Inverse of FuzzAppModeName over the extended mode set. Returns false (and
// leaves `out` untouched) for unknown names.
bool ParseFuzzAppMode(std::string_view name, FuzzAppMode* out);

// One concrete arrival. `at` is absolute virtual time; requests are injected
// as frontend one-shots so a shrunk schedule replays byte-for-byte.
struct FuzzRequest {
  TimeMicros at = 0;
  int type = 0;
  uint64_t arg = 0;
  int client_class = 0;          // 0 = SLO-bearing victim, 1 = culprit
  bool background = false;
  bool non_cancellable = false;  // injected maintenance marked unsafe to kill
};

// Fault injections layered over the schedule.
struct FuzzFaults {
  // Delay between the runtime issuing a cancellation and the application's
  // initiator observing it (slow sql_kill delivery).
  TimeMicros cancel_delay = 0;
  // Off-cadence controller ticks (executor hiccups: windows closing at
  // irregular boundaries).
  std::vector<TimeMicros> extra_ticks;
  // When false, the harness never registers a cancel initiator with the
  // runtime — the §3.1 safety property the no-initiator oracle watches.
  bool register_cancel_action = true;
  // Synthetic application bug for shrinker exercises: drop the freeResource
  // stream of requests of this type (-1 = disabled). Surfaces as an
  // accounting-conservation violation attributable to single requests.
  int drop_free_request_type = -1;
};

// RestrictPlan copies the fields by name: a new field must be added there.
struct FuzzPlan {
  uint64_t seed = 0;
  FuzzAppMode mode = FuzzAppMode::kKvLock;
  AtroposConfig config;           // randomized detector/policy/pacing knobs
  TimeMicros duration = 0;        // arrivals stop here
  TimeMicros warmup = 0;
  TimeMicros tick_window = 0;
  bool retry_cancelled = true;
  TimeMicros max_retry_wait = 0;
  std::vector<FuzzRequest> requests;
  // Original schedule indices of `requests`, maintained by RestrictPlan so a
  // shrunk plan can be replayed as `--seed=S --keep=i,j,...`. Empty = identity
  // (the seed's full schedule).
  std::vector<size_t> kept;
  FuzzFaults faults;
};

struct FuzzPlanOptions {
  // Scales victim arrival rates (and thus run cost).
  double load_scale = 1.0;
  // Forwarded into FuzzFaults of every generated plan.
  int drop_free_request_type = -1;
  // When true, the seed's mode draw covers the extended shapes as well
  // (kNumFuzzAppModesExtended instead of kNumFuzzAppModes). Off by default so
  // plain seeds remain byte-compatible with the historical plan space.
  bool extended_modes = false;
  // Forces a specific FuzzAppMode regardless of the seed's draw (-1 =
  // disabled). The draw is still consumed so the rest of the plan derivation
  // stays aligned with the unforced plan of the same seed.
  int force_mode = -1;
};

// Derives the full plan for `seed`. Deterministic: equal seeds and options
// yield structurally identical plans.
FuzzPlan PlanFromSeed(uint64_t seed, const FuzzPlanOptions& options = {});

// Restricts a plan to the requests whose schedule indices are in `keep`
// (order-preserving). Used by the shrinker and by `--keep` repro runs.
FuzzPlan RestrictPlan(const FuzzPlan& plan, const std::vector<size_t>& keep);

}  // namespace atropos

#endif  // SRC_TESTING_FUZZ_PLAN_H_
