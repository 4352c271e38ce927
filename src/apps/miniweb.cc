#include "src/apps/miniweb.h"

#include <algorithm>

namespace atropos {

MiniWeb::MiniWeb(Executor& executor, OverloadController* controller, MiniWebOptions options)
    : App(executor, controller), options_(options),
      script_limiter_(executor_, options_.pool.max_clients) {
  pool_resource_ = controller_->RegisterResource("worker_pool", ResourceClass::kQueue);
  pool_ = std::make_unique<WorkerPool>(executor_, options_.pool, controller_, pool_resource_);
  InitClientGates(/*num_classes=*/2,
                  /*parties_capacity=*/static_cast<int64_t>(options_.pool.max_clients));
}

void MiniWeb::SetTypeReservation(int request_type, int workers) {
  if (request_type != kWebStatic) {
    return;
  }
  int64_t cap = static_cast<int64_t>(options_.pool.max_clients) - workers;
  script_limiter_.SetCapacity(static_cast<uint64_t>(std::max<int64_t>(cap, 1)));
}

std::string_view MiniWeb::RequestTypeName(int type) const {
  switch (type) {
    case kWebStatic:
      return "static";
    case kWebScript:
      return "script";
    default:
      return "request";
  }
}

void MiniWeb::Start(const AppRequest& req, CompletionFn done) { Serve(req, std::move(done)); }

Coro MiniWeb::Serve(AppRequest req, CompletionFn done) {
  co_await BindExecutor{executor_};
  bool cancellable = !req.non_cancellable &&
                     (req.type != kWebScript || options_.allow_thread_cancel);
  CancelToken* token = BeginTask(req.key, cancellable);
  Status status = co_await GateEnter(req, token);
  if (status.ok()) {
    if (req.type == kWebScript) {
      status = co_await Script(req, token);
    } else {
      status = co_await Static(req, token);
    }
    GateExit(req);
  }
  FinishTask(req, done, status);
}

Task<Status> MiniWeb::Static(const AppRequest& req, CancelToken* token) {
  Status s = co_await pool_->Claim(req.key, token);
  if (!s.ok()) {
    co_return s;
  }
  co_await Delay{executor_, Scaled(req.key, options_.static_cost)};
  pool_->Release(req.key);
  co_return Status::Ok();
}

Task<Status> MiniWeb::Script(const AppRequest& req, CancelToken* token) {
  // DARC reservation gate: script concurrency may be capped below MaxClients.
  Status gate = co_await script_limiter_.Acquire(1, token);
  if (!gate.ok()) {
    co_return gate;
  }
  Status s = co_await pool_->Claim(req.key, token);
  if (!s.ok()) {
    script_limiter_.Release();
    co_return s;
  }
  Status result = Status::Ok();
  TimeMicros total = req.arg > 0 ? static_cast<TimeMicros>(req.arg) : options_.script_cost;
  constexpr int kSteps = 50;
  for (int i = 0; i < kSteps; i++) {
    // Scripts only observe cancellation when the thread-level flag allows it;
    // consistency is preserved because unflushed script output is discarded
    // (§5.2 "Incomplete Cancellation Support in Apache").
    if (token != nullptr && token->cancelled()) {
      result = Status::Cancelled("script aborted via thread-level cancel");
      break;
    }
    co_await Delay{executor_, Scaled(req.key, total / kSteps)};
    controller_->OnProgress(req.key, static_cast<uint64_t>(i + 1),
                            static_cast<uint64_t>(kSteps));
  }
  pool_->Release(req.key);
  script_limiter_.Release();
  co_return result;
}

}  // namespace atropos
