// Forwarding controller that shadows the instrumentation stream for the
// invariant oracles.
//
// The fuzz harness inserts one of these between the application/frontend and
// the AtroposRuntime under test. Every event forwards unchanged, but the audit
// keeps its own independently derived view — task epochs with the §4
// cancellability override replayed, a per-resource get/free ledger, and a
// snapshot of runtime-visible state at every issued cancellation — which the
// oracles later compare against the runtime's books and the flight-recorder
// stream. It is also the harness's fault-injection point: it can drop the
// freeResource stream of one request type to plant a detectable accounting
// bug for shrinker exercises.

#ifndef SRC_TESTING_AUDIT_CONTROLLER_H_
#define SRC_TESTING_AUDIT_CONTROLLER_H_

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/atropos/dense_index.h"
#include "src/atropos/runtime.h"

namespace atropos {

class AuditController final : public OverloadController {
 public:
  explicit AuditController(AtroposRuntime& runtime) : runtime_(runtime) {}

  // One registration..free interval of a task key. Keys are reused across
  // retries, so a key maps to a sequence of epochs.
  struct Epoch {
    uint64_t key = 0;
    bool background = false;
    bool cancellable = true;  // after replaying the runtime's §4 override
    bool freed = false;
    bool replaced = false;  // torn down by a stale re-registration
    int cancels = 0;
  };

  // State visible to the runtime at the instant it issued a cancellation.
  struct CancelRecord {
    uint64_t key = 0;
    double score = 0.0;
    bool live = false;  // an unfreed epoch existed for the key
    bool cancellable_at_issue = false;
    int cancels_in_epoch = 0;  // including this one
  };

  struct ResourceInfo {
    ResourceId id = kInvalidResourceId;
    std::string name;
    ResourceClass cls = ResourceClass::kLock;
    // Shadow ledger: unit amounts forwarded for live keys, mirroring the
    // runtime's rule of ignoring events against unregistered keys.
    uint64_t acquired = 0;
    uint64_t released = 0;
  };

  std::string_view name() const override { return "audit"; }

  // Drops (does not forward, does not count) freeResource events of requests
  // of `type`. -1 disables. Simulates an application that forgets to release.
  void InjectDropFreeForType(int type) { drop_free_type_ = type; }

  // Wire as the runtime's cancel observer (fires synchronously at issue time).
  void OnCancelIssued(uint64_t key, double score) {
    CancelRecord rec;
    rec.key = key;
    rec.score = score;
    if (const uint32_t idx = live_.Find(key); idx != DenseKeyIndex::kNotFound) {
      Epoch& epoch = epochs_[idx];
      epoch.cancels++;
      rec.live = true;
      rec.cancellable_at_issue = epoch.cancellable;
      rec.cancels_in_epoch = epoch.cancels;
    }
    // Stamped with the same aging epoch the runtime uses, so the shadow memo
    // evicts in lockstep with the runtime's calm-window aging.
    ever_cancelled_.emplace(key, runtime_.calm_windows_total());
    cancels_.push_back(rec);
  }

  // ---- OverloadController: shadow, then forward ---------------------------
  ResourceId RegisterResource(std::string name, ResourceClass cls) override {
    ResourceId id = runtime_.RegisterResource(name, cls);
    ResourceInfo info;
    info.id = id;
    info.name = name;
    info.cls = cls;
    if (id >= resources_.size()) {
      resources_.resize(id + 1);
    }
    resources_[id] = std::move(info);
    return id;
  }

  void OnEvent(const TraceEvent& ev) override {
    switch (ev.kind) {
      case TraceEventKind::kTaskRegistered: {
        uint32_t& idx = live_.FindOrInsert(ev.key);
        if (idx != DenseKeyIndex::kNotFound) {
          epochs_[idx].freed = true;
          epochs_[idx].replaced = true;
        }
        idx = static_cast<uint32_t>(epochs_.size());
        const bool was_cancelled = !ever_cancelled_.empty() && ever_cancelled_.erase(ev.key) != 0;
        Epoch epoch;
        epoch.key = ev.key;
        epoch.background = ev.background;
        epoch.cancellable = ev.cancellable && !was_cancelled;
        epochs_.push_back(epoch);
        break;
      }
      case TraceEventKind::kTaskFreed: {
        if (const uint32_t idx = live_.Erase(ev.key); idx != DenseKeyIndex::kNotFound) {
          epochs_[idx].freed = true;
        }
        break;
      }
      case TraceEventKind::kGet: {
        if (ResourceInfo* res = Resource(ev.resource);
            res != nullptr && live_.Find(ev.key) != DenseKeyIndex::kNotFound) {
          res->acquired += ev.a;
        }
        break;
      }
      case TraceEventKind::kFree: {
        if (drop_free_type_ >= 0) {
          auto type = key_types_.find(ev.key);
          if (type != key_types_.end() && type->second == drop_free_type_) {
            dropped_frees_++;
            return;
          }
        }
        if (ResourceInfo* res = Resource(ev.resource);
            res != nullptr && live_.Find(ev.key) != DenseKeyIndex::kNotFound) {
          res->released += ev.a;
        }
        break;
      }
      case TraceEventKind::kRequestStart:
        if (drop_free_type_ >= 0) {
          key_types_[ev.key] = ev.request_type;
        }
        break;
      default:
        break;
    }
    runtime_.OnEvent(ev);
  }

  bool AdmitRequest(uint64_t key, int request_type, int client_class) override {
    return runtime_.AdmitRequest(key, request_type, client_class);
  }
  void Tick() override {
    runtime_.Tick();
    // Replay the runtime's §4 memo aging from the same evidence (monotone
    // calm-window count, stamp at issue): entries that survived the
    // re-execution horizon of calm windows are dropped. Must match
    // AtroposRuntime::Tick() or the cancellability replay diverges.
    const uint64_t calm = runtime_.calm_windows_total();
    const uint64_t horizon =
        static_cast<uint64_t>(std::max(runtime_.config().reexec_calm_windows, 1));
    for (auto it = ever_cancelled_.begin(); it != ever_cancelled_.end();) {
      if (calm - it->second >= horizon) {
        it = ever_cancelled_.erase(it);
      } else {
        ++it;
      }
    }
  }
  bool ReexecutionRecommended() const override { return runtime_.ReexecutionRecommended(); }

  // ---- Oracle access ------------------------------------------------------
  const std::vector<Epoch>& epochs() const { return epochs_; }
  const std::vector<CancelRecord>& cancels() const { return cancels_; }
  // Indexed by ResourceId; a slot whose `id` is kInvalidResourceId was never
  // registered (slot 0 always).
  const std::vector<ResourceInfo>& resources() const { return resources_; }
  size_t live_epoch_count() const { return live_.size(); }
  // Shadow of the runtime's cancelled-key memo; the bounded-memo oracle
  // checks it agrees with the runtime's count.
  size_t cancelled_key_memo_count() const { return ever_cancelled_.size(); }
  uint64_t dropped_frees() const { return dropped_frees_; }

 private:
  ResourceInfo* Resource(ResourceId id) {
    if (id >= resources_.size() || resources_[id].id == kInvalidResourceId) {
      return nullptr;
    }
    return &resources_[id];
  }

  AtroposRuntime& runtime_;
  std::vector<Epoch> epochs_;
  DenseKeyIndex live_;  // key -> index into epochs_ of its unfreed epoch
  // Mirrors runtime cancelled_keys_: key -> calm_windows_total() at issue.
  std::unordered_map<uint64_t, uint64_t> ever_cancelled_;
  // key -> request type; filled only while a drop is injected.
  std::unordered_map<uint64_t, int> key_types_;
  std::vector<ResourceInfo> resources_;  // indexed by ResourceId
  std::vector<CancelRecord> cancels_;
  int drop_free_type_ = -1;
  uint64_t dropped_frees_ = 0;
};

}  // namespace atropos

#endif  // SRC_TESTING_AUDIT_CONTROLLER_H_
