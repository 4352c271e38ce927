// quickstart — the paper's Fig 6/7 integration pattern in ~100 lines.
//
// A toy "database" serves point queries against a table protected by a lock.
// One heavy query grabs the lock and sits on it. We integrate Atropos with
// exactly the paper's API surface:
//
//   createCancel / freeCancel      — mark the scope of cancellable tasks
//   setCancelAction                — register the app's cancellation initiator
//   getResource / freeResource /
//   slowByResource                 — trace application resource usage
//
// The facade feeds a ConcurrentFrontend, the same intake a multithreaded
// server uses; here the simulated control loop drains it with Tick(). Atropos
// detects the overload, identifies the lock holder as the culprit, and
// invokes the initiator — which in this toy app sets a kill flag the query
// observes at its next checkpoint (the §2.4 pattern).

#include <cstdio>
#include <unordered_map>

#include "src/atropos/atropos.h"
#include "src/atropos/concurrent_frontend.h"
#include "src/sim/coro.h"
#include "src/sim/sync.h"

namespace {

using namespace atropos;  // NOLINT: example brevity

struct ToyDb {
  explicit ToyDb(Executor& ex) : executor(ex), table_lock(ex) {}

  Executor& executor;
  SimMutex table_lock;
  // The app's own kill flags — what sql_kill() flips in MySQL.
  std::unordered_map<uint64_t, CancelToken*> kill_flags;

  void Kill(uint64_t key) {
    auto it = kill_flags.find(key);
    if (it != kill_flags.end()) {
      std::printf("[%.2fs] ToyDb: killing query %llu (the cancellation initiator ran)\n",
                  ToSeconds(executor.now()), static_cast<unsigned long long>(key));
      it->second->Cancel();
    }
  }
};

ToyDb* g_db = nullptr;

// The cancellation initiator handed to setCancelAction (Fig 7's sql_kill).
void SqlKill(uint64_t key) { g_db->Kill(key); }

// A short point query: lock, do 1 ms of work, unlock.
Coro PointQuery(ToyDb& db, ConcurrentFrontend& atropos, uint64_t key) {
  co_await BindExecutor{db.executor};
  CancelToken token(db.executor);
  db.kill_flags[key] = &token;
  Cancellable* c = createCancel(key);  // register the cancellable task
  CancellableScope scope(c);
  atropos.OnRequestStart(key, 0, 0);

  TimeMicros wait_start = db.executor.now();
  bool contended = db.table_lock.held();
  if (contended) {
    slowByResourceBegin(CApiResourceType::LOCK);  // in-progress stalls count
  }
  Status s = co_await db.table_lock.Acquire(&token);
  // The paper's API keys tracing off the calling thread; coroutines interleave
  // across suspensions, so re-assert the current task after every await.
  SetCurrentCancellable(c);
  if (contended) {
    slowByResourceEnd(CApiResourceType::LOCK);
  }
  if (s.ok()) {
    getResource(1, CApiResourceType::LOCK);  // we now hold the table lock
    co_await Delay{db.executor, 200};        // 0.2 ms of work under the lock
    SetCurrentCancellable(c);
    freeResource(1, CApiResourceType::LOCK);
    db.table_lock.Release();
  }
  atropos.OnRequestEnd(key, db.executor.now() - wait_start, 0, 0);
  db.kill_flags.erase(key);
  freeCancel(c);
}

// The culprit: takes the lock and "processes" 100k rows, checking its kill
// flag at row-batch checkpoints (the common pattern of §2.4).
Coro HeavyQuery(ToyDb& db, uint64_t key) {
  co_await BindExecutor{db.executor};
  CancelToken token(db.executor);
  db.kill_flags[key] = &token;
  Cancellable* c = createCancel(key);
  CancellableScope scope(c);

  Status s = co_await db.table_lock.Acquire(&token);
  SetCurrentCancellable(c);
  if (s.ok()) {
    getResource(1, CApiResourceType::LOCK);
    const uint64_t total_rows = 100'000;
    for (uint64_t row = 0; row < total_rows; row += 1000) {
      if (token.cancelled()) {
        std::printf("[%.2fs] heavy query observed its kill flag at row %llu and stopped\n",
                    ToSeconds(db.executor.now()), static_cast<unsigned long long>(row));
        break;
      }
      co_await Delay{db.executor, Millis(2)};  // 2 ms per 1000 rows
      SetCurrentCancellable(c);
      reportProgress(row, total_rows);         // GetNext-style progress (§3.4)
    }
    SetCurrentCancellable(c);
    freeResource(1, CApiResourceType::LOCK);
    db.table_lock.Release();
  }
  db.kill_flags.erase(key);
  freeCancel(c);
}

Coro ClientLoad(ToyDb& db, ConcurrentFrontend& atropos) {
  co_await BindExecutor{db.executor};
  for (uint64_t key = 1; key <= 4000; key++) {
    co_await Delay{db.executor, Millis(1)};
    PointQuery(db, atropos, key);
  }
}

// Drains the traced events into the runtime and runs its control loop.
Coro ControlLoop(ToyDb& db, ConcurrentFrontend& atropos, bool* stop) {
  co_await BindExecutor{db.executor};
  while (!*stop) {
    co_await Delay{db.executor, Millis(50)};
    atropos.Tick();
  }
}

}  // namespace

int main() {
  Executor executor;
  ToyDb db(executor);
  g_db = &db;

  AtroposConfig config;
  config.window = Millis(50);
  ConcurrentFrontend atropos(executor.clock(), config);
  InstallGlobalFrontend(&atropos);
  setCancelAction(&SqlKill);  // Fig 7: register the initiator once, at startup

  std::printf("quickstart: 1000 qps of 0.2ms point queries; a heavy query grabs the table lock\n");
  std::printf("at t=2s and would hold it for 200 ms of work per 100k rows...\n\n");

  bool stop = false;
  ClientLoad(db, atropos);
  ControlLoop(db, atropos, &stop);
  executor.CallAt(Seconds(2), [&] { HeavyQuery(db, 777); });

  executor.Run(Seconds(4));
  stop = true;
  executor.Run();

  const AtroposStats& stats = atropos.runtime().stats();
  std::printf("\natropos: %llu windows, %llu suspected-overload, %llu cancellations\n",
              static_cast<unsigned long long>(stats.windows),
              static_cast<unsigned long long>(stats.suspected_overload_windows),
              static_cast<unsigned long long>(stats.cancels_issued));
  std::printf("(the culprit was cancelled through the app's own initiator; the\n"
              " victims blocked behind it were never dropped)\n");
  InstallGlobalFrontend(nullptr);
  return 0;
}
