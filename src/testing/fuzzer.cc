#include "src/testing/fuzzer.h"

#include <memory>

#include "src/apps/minidb.h"
#include "src/apps/minikv.h"
#include "src/testing/audit_controller.h"
#include "src/testing/digest.h"

namespace atropos {

namespace {

// Builds the application for a plan's mode, mirroring the corresponding
// overload-case recipe so the culprit request shapes are known to bite.
std::unique_ptr<App> MakeApp(Executor& executor, OverloadController* controller,
                             const FuzzPlan& plan) {
  switch (plan.mode) {
    case FuzzAppMode::kKvLock: {
      MiniKvOptions opt;
      opt.store.point_op_cost = 1000;
      opt.store.scan_cost_per_key = 20;
      return std::make_unique<MiniKv>(executor, controller, opt);
    }
    case FuzzAppMode::kDbTableLocks: {
      MiniDbOptions opt;
      opt.use_table_locks = true;
      opt.scan_rows = 20'000'000;
      opt.point_select_cost = 1000;
      opt.row_update_cost = 1000;
      opt.seed = plan.seed;
      return std::make_unique<MiniDb>(executor, controller, opt);
    }
    case FuzzAppMode::kDbTickets: {
      MiniDbOptions opt;
      opt.use_tickets = true;
      opt.innodb_tickets = 8;
      opt.point_select_cost = 1000;
      opt.slow_query_cost = 5'000'000;
      opt.seed = plan.seed;
      return std::make_unique<MiniDb>(executor, controller, opt);
    }
    case FuzzAppMode::kDbBufferPool: {
      MiniDbOptions opt;
      opt.use_buffer_pool = true;
      opt.pool.capacity_pages = 1500;
      opt.pages_per_table = 8192;
      opt.hot_pages_per_table = 256;
      opt.point_select_cost = 50;
      opt.row_update_cost = 60;
      opt.seed = plan.seed;
      return std::make_unique<MiniDb>(executor, controller, opt);
    }
    case FuzzAppMode::kDbIo: {
      MiniDbOptions opt;
      opt.use_io = true;
      opt.seed = plan.seed;
      return std::make_unique<MiniDb>(executor, controller, opt);
    }
    case FuzzAppMode::kKvCompactionStorm: {
      MiniKvOptions opt;
      opt.store.point_op_cost = 1000;
      opt.store.scan_cost_per_key = 20;
      return std::make_unique<MiniKv>(executor, controller, opt);
    }
    case FuzzAppMode::kDbTenantNoisy: {
      MiniDbOptions opt;
      opt.use_buffer_pool = true;
      opt.pool.capacity_pages = 1500;
      opt.pages_per_table = 8192;
      opt.hot_pages_per_table = 256;
      opt.point_select_cost = 50;
      opt.row_update_cost = 60;
      opt.seed = plan.seed;
      return std::make_unique<MiniDb>(executor, controller, opt);
    }
  }
  return nullptr;
}

}  // namespace

FuzzRunResult RunPlan(const FuzzPlan& plan, size_t recorder_capacity) {
  Executor executor;
  AtroposRuntime runtime(executor.clock(), plan.config);
  AuditController audit(runtime);
  audit.InjectDropFreeForType(plan.faults.drop_free_request_type);

  Observability obs(recorder_capacity);
  runtime.SetRecorder(&obs.recorder);
  runtime.SetCancelObserver(
      [&audit](uint64_t key, double score) { audit.OnCancelIssued(key, score); });

  std::unique_ptr<App> app = MakeApp(executor, &audit, plan);
  if (plan.faults.register_cancel_action) {
    // The app's safe initiator, optionally behind an injected delivery delay
    // (a slow sql_kill): the cancel may land after the victim completed,
    // retried, or was replaced — exactly the races the oracles check.
    App* app_ptr = app.get();
    TimeMicros delay = plan.faults.cancel_delay;
    runtime.SetCancelAction([&executor, app_ptr, delay](uint64_t key) {
      if (delay > 0) {
        executor.CallAfter(delay, [app_ptr, key] { app_ptr->Cancel(key); });
      } else {
        app_ptr->Cancel(key);
      }
    });
  }

  FrontendOptions fopt;
  fopt.duration = plan.duration;
  fopt.warmup = plan.warmup;
  fopt.tick_window = plan.tick_window;
  fopt.retry_cancelled = plan.retry_cancelled;
  fopt.max_retry_wait = plan.max_retry_wait;
  fopt.seed = plan.seed;
  Frontend frontend(executor, *app, audit, fopt);
  frontend.SetObservability(&obs);
  for (const FuzzRequest& req : plan.requests) {
    OneShotSpec shot;
    shot.type = req.type;
    shot.at = req.at;
    shot.arg = req.arg;
    shot.client_class = req.client_class;
    shot.background = req.background;
    shot.non_cancellable = req.non_cancellable;
    frontend.AddOneShot(shot);
  }
  // Executor hiccups: windows closing at irregular extra boundaries.
  for (TimeMicros at : plan.faults.extra_ticks) {
    executor.CallAt(at, [&audit] { audit.Tick(); });
  }

  FuzzRunResult result;
  result.plan = plan;
  result.metrics = frontend.Run();
  result.stats = runtime.stats();
  result.digest = DigestEvents(obs.recorder);
  result.events = obs.recorder.Snapshot();

  OracleContext ctx;
  ctx.runtime = &runtime;
  ctx.audit = &audit;
  ctx.recorder = &obs.recorder;
  ctx.executor = &executor;
  ctx.policy = plan.config.policy;
  ctx.initiator_registered = plan.faults.register_cancel_action;
  result.violations = RunAllOracles(ctx);
  return result;
}

FuzzRunResult RunSeed(uint64_t seed, const FuzzPlanOptions& options) {
  return RunPlan(PlanFromSeed(seed, options));
}

}  // namespace atropos
