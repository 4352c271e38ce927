#include "src/apps/app.h"

#include <string>

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

void App::Cancel(uint64_t key) {
  auto it = live_.find(key);
  if (it == live_.end() || !it->second.cancellable) {
    return;  // gone, or explicitly excluded from cancellation (§3.5 safety contract)
  }
  it->second.token.Cancel();
}

void App::ThrottleTask(uint64_t key, double factor) {
  auto it = live_.find(key);
  if (it != live_.end()) {
    it->second.throttle = factor < 1.0 ? 1.0 : factor;
  }
}

void App::CancelTask(uint64_t key, CancelReason reason) {
  auto it = live_.find(key);
  if (it != live_.end()) {
    it->second.cancel_reason = reason;
  }
  Cancel(key);
}

CancelToken* App::BeginTask(uint64_t key, bool cancellable) {
  auto [it, inserted] = live_.try_emplace(key, executor_, cancellable);
  if (!inserted) {
    live_.erase(it);
    it = live_.try_emplace(key, executor_, cancellable).first;
  }
  return &it->second.token;
}

void App::FinishTask(const AppRequest& req, const CompletionFn& done, const Status& status) {
  OutcomeKind outcome = OutcomeKind::kCompleted;
  CancelReason reason = CancelReason::kCulprit;
  if (auto it = live_.find(req.key); it != live_.end()) {
    reason = it->second.cancel_reason;
    live_.erase(it);
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
    Counter*& by_type = type_counters_[req.type];
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
  auto it = live_.find(key);
  if (it == live_.end() || it->second.throttle <= 1.0) {
    return t;
  }
  return static_cast<TimeMicros>(static_cast<double>(t) * it->second.throttle);
}

CancelToken* App::TokenOf(uint64_t key) {
  auto it = live_.find(key);
  return it == live_.end() ? nullptr : &it->second.token;
}

void App::InitClientGates(int num_classes, int64_t parties_capacity) {
  // Gates start effectively unbounded; they only bind once a controller
  // (PARTIES) assigns shares of `parties_capacity`.
  gate_slots_ = parties_capacity;
  class_gates_.clear();
  for (int i = 0; i < num_classes; i++) {
    class_gates_.push_back(std::make_unique<AdjustableLimiter>(executor_, int64_t{1} << 40));
  }
}

void App::SetClientShare(int client_class, double share) {
  if (client_class < 0 || static_cast<size_t>(client_class) >= class_gates_.size()) {
    return;
  }
  auto limit = static_cast<int64_t>(share * static_cast<double>(gate_slots_));
  class_gates_[static_cast<size_t>(client_class)]->SetLimit(limit < 1 ? 1 : limit);
}

Task<Status> App::GateEnter(const AppRequest& req, CancelToken* token) {
  if (class_gates_.empty()) {
    co_return Status::Ok();
  }
  size_t idx = static_cast<size_t>(req.client_class) % class_gates_.size();
  co_return co_await class_gates_[idx]->Acquire(req.key, token);
}

void App::GateExit(const AppRequest& req) {
  if (class_gates_.empty()) {
    return;
  }
  size_t idx = static_cast<size_t>(req.client_class) % class_gates_.size();
  class_gates_[idx]->Release(req.key);
}

}  // namespace atropos
