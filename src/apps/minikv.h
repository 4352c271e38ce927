// MiniKv: the etcd analogue (case c16).
//
// Point operations and large range reads share one keyspace lock; a complex
// range read holds it long enough to block every other client.

#ifndef SRC_APPS_MINIKV_H_
#define SRC_APPS_MINIKV_H_

#include <memory>

#include "src/apps/app.h"
#include "src/apps/kv_store.h"

namespace atropos {

enum MiniKvRequestType : int {
  kKvPointOp = 0,    // victim: get/put
  kKvRangeRead = 1,  // culprit: large range read (span in `arg`)
};

struct MiniKvOptions {
  KvStoreOptions store;
  uint64_t default_range_span = 50000;
};

class MiniKv final : public App {
 public:
  MiniKv(Executor& executor, OverloadController* controller, MiniKvOptions options);

  std::string_view name() const override { return "minikv"; }
  std::string_view RequestTypeName(int type) const override;
  void Start(const AppRequest& req, CompletionFn done) override;
  void Shutdown() override {}

  KvStore* store() { return store_.get(); }

 private:
  Coro Serve(AppRequest req, CompletionFn done);

  MiniKvOptions options_;
  ResourceId lock_resource_ = kInvalidResourceId;
  std::unique_ptr<KvStore> store_;
};

}  // namespace atropos

#endif  // SRC_APPS_MINIKV_H_
