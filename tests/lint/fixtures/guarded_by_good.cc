// Good fixture for guarded-by: every access to an ATROPOS_GUARDED_BY member
// happens with the named mutex held — through a scope guard (std or the
// annotated MutexLock of src/common/mutex.h), a bare
// .lock()/.unlock() pair, an ATROPOS_REQUIRES contract on the enclosing
// function, or inside a condition-variable predicate lambda whose enclosing
// scope holds the lock. atropos_lint must report nothing here.

#include <condition_variable>
#include <mutex>
#include <vector>

#include "src/common/mutex.h"

namespace {

class Account {
 public:
  void Deposit(int amount) {
    std::lock_guard<std::mutex> lk(mu_);
    balance_ += amount;
    cv_.notify_one();
  }

  int WaitForFunds(int floor) {
    std::unique_lock<std::mutex> lk(mu_);
    // The guard is in scope at the lambda's definition site, so the predicate
    // body counts as held.
    cv_.wait(lk, [this] { return balance_ >= floor; });
    return balance_;
  }

  int DrainLocked() ATROPOS_REQUIRES(mu_) {
    int out = balance_;
    balance_ = 0;
    return out;
  }

  int Drain() {
    mu_.lock();
    int out = DrainLocked();
    mu_.unlock();
    return out;
  }

  void Reset() ATROPOS_NO_THREAD_SAFETY_ANALYSIS {
    balance_ = 0;  // opted out: startup-only, pre-publication
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int balance_ ATROPOS_GUARDED_BY(mu_) = 0;
};

class Registry {
 public:
  void Add(int id) {
    atropos::MutexLock lock(mu_);
    ids_.push_back(id);
  }

 private:
  atropos::Mutex mu_;
  std::vector<int> ids_ ATROPOS_GUARDED_BY(mu_);
};

}  // namespace
