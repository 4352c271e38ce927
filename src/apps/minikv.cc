#include "src/apps/minikv.h"

namespace atropos {

MiniKv::MiniKv(Executor& executor, OverloadController* controller, MiniKvOptions options)
    : App(executor, controller), options_(options) {
  lock_resource_ = controller_->RegisterResource("keyspace_lock", ResourceClass::kLock);
  store_ = std::make_unique<KvStore>(executor_, options_.store, controller_, lock_resource_);
  InitClientGates(/*num_classes=*/2, /*parties_capacity=*/64);
}

std::string_view MiniKv::RequestTypeName(int type) const {
  switch (type) {
    case kKvPointOp:
      return "point_op";
    case kKvRangeRead:
      return "range_read";
    default:
      return "request";
  }
}

void MiniKv::Start(const AppRequest& req, CompletionFn done) { Serve(req, std::move(done)); }

Coro MiniKv::Serve(AppRequest req, CompletionFn done) {
  co_await BindExecutor{executor_};
  CancelToken* token = BeginTask(req.key, !req.non_cancellable);
  Status status = co_await GateEnter(req, token);
  if (status.ok()) {
    if (req.type == kKvRangeRead) {
      uint64_t span = req.arg > 0 ? req.arg : options_.default_range_span;
      status = co_await store_->RangeRead(req.key, span, token);
    } else {
      status = co_await store_->PointOp(req.key, token);
    }
    GateExit(req);
  }
  FinishTask(req, done, status);
}

}  // namespace atropos
