// Table lock manager (paper §2.1 case 2 and cases c1/c4).
//
// Each table has a FIFO reader-writer lock; strict arrival-order granting
// reproduces the real MySQL convoy: a backup's queued exclusive request
// blocks every later shared request even while the current scan still runs.
// A backup operation acquires all tables in order, holding earlier tables
// while blocked on a later one — exactly the FTWRL hazard of case c1.

#ifndef SRC_DB_LOCK_MANAGER_H_
#define SRC_DB_LOCK_MANAGER_H_

#include <memory>
#include <vector>

#include "src/atropos/instrument.h"

namespace atropos {

class TableLockManager {
 public:
  TableLockManager(Executor& executor, int num_tables, OverloadController* tracer,
                   ResourceId resource) {
    locks_.reserve(static_cast<size_t>(num_tables));
    for (int i = 0; i < num_tables; i++) {
      locks_.push_back(std::make_unique<InstrumentedRwLock>(executor, tracer, resource));
    }
  }

  InstrumentedRwLock& table(int i) { return *locks_[static_cast<size_t>(i)]; }
  int num_tables() const { return static_cast<int>(locks_.size()); }

  // Acquires exclusive locks on tables [0, num_tables) in order, as the
  // backup (FTWRL) path does. On cancellation, already-held tables are
  // released and the status reports how far it got.
  Task<Status> AcquireAllExclusive(uint64_t key, CancelToken* token, int* acquired_out);
  void ReleaseAllExclusive(uint64_t key, int acquired);

 private:
  std::vector<std::unique_ptr<InstrumentedRwLock>> locks_;
};

}  // namespace atropos

#endif  // SRC_DB_LOCK_MANAGER_H_
