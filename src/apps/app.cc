#include "src/apps/app.h"

#include <string>

#include <sanitizer/asan_interface.h>

namespace atropos {

namespace {

std::string_view OutcomeName(OutcomeKind outcome) {
  switch (outcome) {
    case OutcomeKind::kCompleted:
      return "completed";
    case OutcomeKind::kCancelled:
      return "cancelled";
    case OutcomeKind::kDropped:
      return "dropped";
    case OutcomeKind::kRejected:
      return "rejected";
  }
  return "unknown";
}

}  // namespace

App::~App() {
  // The deque destroys every slot, the free ones too.
  for (uint32_t slot : free_slots_) {
    ASAN_UNPOISON_MEMORY_REGION(&slots_[slot], sizeof(LiveTask));
  }
}

App::LiveTask* App::Live(uint64_t key) {
  const uint32_t slot = live_.Find(key);
  return slot == DenseKeyIndex::kNotFound ? nullptr : &slots_[slot];
}

const App::LiveTask* App::Live(uint64_t key) const {
  const uint32_t slot = live_.Find(key);
  return slot == DenseKeyIndex::kNotFound ? nullptr : &slots_[slot];
}

uint32_t App::AcquireSlot(bool cancellable) {
  if (free_slots_.empty()) {
    slots_.emplace_back(executor_, cancellable);
    return static_cast<uint32_t>(slots_.size() - 1);
  }
  const uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  ASAN_UNPOISON_MEMORY_REGION(&slots_[slot], sizeof(LiveTask));
  LiveTask& task = slots_[slot];
  task.token.Rearm();
  task.cancel_reason = CancelReason::kCulprit;
  task.cancellable = cancellable;
  task.throttle = 1.0;
  return slot;
}

void App::ReleaseSlot(uint32_t slot) {
  free_slots_.push_back(slot);
  ASAN_POISON_MEMORY_REGION(&slots_[slot], sizeof(LiveTask));
}

void App::Cancel(uint64_t key) {
  LiveTask* task = Live(key);
  if (task == nullptr || !task->cancellable) {
    return;  // gone, or explicitly excluded from cancellation (§3.5 safety contract)
  }
  task->token.Cancel();
}

void App::ThrottleTask(uint64_t key, double factor) {
  if (LiveTask* task = Live(key)) {
    task->throttle = factor < 1.0 ? 1.0 : factor;
  }
}

void App::CancelTask(uint64_t key, CancelReason reason) {
  if (LiveTask* task = Live(key)) {
    task->cancel_reason = reason;
  }
  Cancel(key);
}

CancelToken* App::BeginTask(uint64_t key, bool cancellable) {
  const uint32_t slot = AcquireSlot(cancellable);
  uint32_t& cell = live_.FindOrInsert(key);
  const uint32_t replaced = cell;
  cell = slot;
  // A key re-registered while live gets a fresh token; the old slot is
  // returned only now, so it cannot be the one just handed out.
  if (replaced != DenseKeyIndex::kNotFound) {
    ReleaseSlot(replaced);
  }
  return &slots_[slot].token;
}

void App::FinishTask(const AppRequest& req, const CompletionFn& done, const Status& status) {
  OutcomeKind outcome = OutcomeKind::kCompleted;
  CancelReason reason = CancelReason::kCulprit;
  if (const uint32_t slot = live_.Erase(req.key); slot != DenseKeyIndex::kNotFound) {
    reason = slots_[slot].cancel_reason;
    ReleaseSlot(slot);
  }
  switch (status.code()) {
    case StatusCode::kOk:
      outcome = OutcomeKind::kCompleted;
      break;
    case StatusCode::kCancelled:
      outcome =
          reason == CancelReason::kVictimDrop ? OutcomeKind::kDropped : OutcomeKind::kCancelled;
      break;
    case StatusCode::kResourceExhausted:
      outcome = OutcomeKind::kRejected;
      break;
    default:
      outcome = OutcomeKind::kDropped;
      break;
  }
  if (metrics_ != nullptr) {
    const size_t type = static_cast<size_t>(req.type);
    if (type >= type_counters_.size()) {
      type_counters_.resize(type + 1, nullptr);
    }
    Counter*& by_type = type_counters_[type];
    if (by_type == nullptr) {
      by_type = metrics_->GetCounter(std::string(name()) + ".requests." +
                                     std::string(RequestTypeName(req.type)));
    }
    by_type->Inc();
    Counter*& by_outcome = outcome_counters_[static_cast<size_t>(outcome)];
    if (by_outcome == nullptr) {
      by_outcome =
          metrics_->GetCounter(std::string(name()) + ".outcome." + std::string(OutcomeName(outcome)));
    }
    by_outcome->Inc();
  }
  if (done) {
    done(req, outcome);
  }
}

TimeMicros App::Scaled(uint64_t key, TimeMicros t) const {
  const LiveTask* task = Live(key);
  if (task == nullptr || task->throttle <= 1.0) {
    return t;
  }
  return static_cast<TimeMicros>(static_cast<double>(t) * task->throttle);
}

CancelToken* App::TokenOf(uint64_t key) {
  LiveTask* task = Live(key);
  return task == nullptr ? nullptr : &task->token;
}

void App::InitClientGates(int num_classes, int64_t parties_capacity) {
  // Gates start effectively unbounded; they only bind once a controller
  // (PARTIES) assigns shares of `parties_capacity`.
  gate_slots_ = parties_capacity;
  class_gates_.clear();
  for (int i = 0; i < num_classes; i++) {
    class_gates_.push_back(std::make_unique<SimSemaphore>(executor_, uint64_t{1} << 40));
  }
}

void App::SetClientShare(int client_class, double share) {
  if (client_class < 0 || static_cast<size_t>(client_class) >= class_gates_.size()) {
    return;
  }
  auto limit = static_cast<int64_t>(share * static_cast<double>(gate_slots_));
  class_gates_[static_cast<size_t>(client_class)]->SetCapacity(
      static_cast<uint64_t>(std::max<int64_t>(limit, 1)));
}

Task<Status> App::GateEnter(const AppRequest& req, CancelToken* token) {
  if (class_gates_.empty()) {
    co_return Status::Ok();
  }
  size_t idx = static_cast<size_t>(req.client_class) % class_gates_.size();
  co_return co_await class_gates_[idx]->Acquire(1, token);
}

void App::GateExit(const AppRequest& req) {
  if (class_gates_.empty()) {
    return;
  }
  size_t idx = static_cast<size_t>(req.client_class) % class_gates_.size();
  class_gates_[idx]->Release();
}

}  // namespace atropos
