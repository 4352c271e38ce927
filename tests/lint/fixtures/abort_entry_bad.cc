// Bad fixture for the cancel-action-safety initiator-root rule: the in-place
// abort entry points (DeliverCancel / AbortKey) are walked as initiator roots
// even though no SetCancelAction registration appears in this file — the
// registration lives in another translation unit and installs DeliverCancel
// by contract (DESIGN.md §16). Golden diagnostics live in
// tests/lint/golden/abort_entry_bad.expected; line numbers are load-bearing.

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/common/mutex.h"

namespace {

struct Board {
  std::mutex mu;
  std::condition_variable drained;
  std::vector<uint64_t> log;
  bool acked = false;
};

Board g_board;

class Server {
 public:
  bool DeliverCancel(uint64_t key);
};

}  // namespace

// Violations: mutex guard (blocking) and container growth (allocating) on the
// delivery path the control loop invokes mid-decision.
bool Server::DeliverCancel(uint64_t key) {
  std::lock_guard<std::mutex> lk(g_board.mu);
  g_board.log.push_back(key);
  return true;
}

// A queue-side abort that parks until the consumer confirms: blocking on
// application progress, the exact inversion in-place abort exists to avoid.
bool AbortKey(uint64_t key) {
  std::unique_lock<std::mutex> lk(g_board.mu);
  g_board.drained.wait(lk, [] { return g_board.acked; });
  return key != 0;
}

// The tree's own scoped guard, under any variable name, blocks the same way.
atropos::Mutex g_cancel_mu;

bool RequestCancel(uint64_t key) {
  atropos::MutexLock guard(g_cancel_mu);
  return key != 0;
}
