// MiniWeb: the Apache httpd analogue (case c9).
//
// A bounded worker pool serves fast static requests and slow scripted (PHP)
// requests. Scripts hold a worker for seconds; enough of them exhaust
// MaxClients and starve the static traffic. Apache's built-in cancellation
// cannot stop a running script, so — as §5.2 describes — cancellation of
// scripts is only possible when the thread-level (pthread_cancel-style) flag
// is enabled.

#ifndef SRC_APPS_MINIWEB_H_
#define SRC_APPS_MINIWEB_H_

#include <memory>

#include "src/apps/app.h"
#include "src/apps/worker_pool.h"
#include "src/atropos/instrument.h"

namespace atropos {

enum MiniWebRequestType : int {
  kWebStatic = 0,  // victim: fast file serve
  kWebScript = 1,  // culprit: slow PHP-style handler
};

struct MiniWebOptions {
  WorkerPoolOptions pool;
  TimeMicros static_cost = 2000;        // 2ms static file
  TimeMicros script_cost = 4'000'000;   // 4s script
  // §5.2: thread-level cancellation flag. When false, scripts ignore Cancel()
  // and Atropos cannot terminate them.
  bool allow_thread_cancel = true;
};

class MiniWeb final : public App {
 public:
  MiniWeb(Executor& executor, OverloadController* controller, MiniWebOptions options);

  std::string_view name() const override { return "miniweb"; }
  std::string_view RequestTypeName(int type) const override;
  void Start(const AppRequest& req, CompletionFn done) override;
  void Shutdown() override {}

  // DARC: reserving workers for static requests caps script concurrency.
  void SetTypeReservation(int request_type, int workers) override;

  WorkerPool* worker_pool() { return pool_.get(); }

 private:
  Coro Serve(AppRequest req, CompletionFn done);
  Task<Status> Static(const AppRequest& req, CancelToken* token);
  Task<Status> Script(const AppRequest& req, CancelToken* token);

  MiniWebOptions options_;
  ResourceId pool_resource_ = kInvalidResourceId;
  std::unique_ptr<WorkerPool> pool_;
  SimSemaphore script_limiter_;
};

}  // namespace atropos

#endif  // SRC_APPS_MINIWEB_H_
