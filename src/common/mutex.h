// A std::mutex that clang's thread-safety analysis can see.
//
// std::mutex and std::lock_guard carry no capability attributes under
// libstdc++, so ATROPOS_GUARDED_BY(mu) on a member guarded by a bare
// std::mutex is unchecked. Mutex and MutexLock are the thinnest wrappers
// that carry the annotations (src/common/thread_annotations.h).

#ifndef SRC_COMMON_MUTEX_H_
#define SRC_COMMON_MUTEX_H_

#include <mutex>

#include "src/common/thread_annotations.h"

namespace atropos {

class ATROPOS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ATROPOS_ACQUIRE() { mu_.lock(); }
  void unlock() ATROPOS_RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

// Scoped guard for Mutex.
class ATROPOS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ATROPOS_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() ATROPOS_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace atropos

#endif  // SRC_COMMON_MUTEX_H_
