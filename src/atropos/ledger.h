// Hot-path task/resource ledger (paper §3.1–3.2).
//
// The TaskLedger is the bottom layer of the decomposed runtime: it owns the
// task and resource registries, per-task per-resource usage accounting, the
// sampled/per-event timestamp handling, and the conservation ledger the
// fuzzer's accounting oracles audit. It makes no decisions — the
// runtime's detector and estimator read its books once per window, and the
// AtroposRuntime façade coordinates them.
//
// Layout (DESIGN.md §17): struct-of-arrays registries for mechanical
// sympathy. Task records live in a dense slot vector with free-list
// recycling; an open-addressed DenseKeyIndex maps application keys to slots,
// with one probe per lifecycle event; per-(task, resource) usage is a flat matrix indexed
// slot * stride + (resource - 1). Live tasks are threaded on an intrusive
// doubly-linked list in registration order — task ids are monotone, so
// walking it visits tasks in ascending-id order, the same deterministic
// iteration the estimator saw when these were std::maps. Resources are a
// plain vector indexed by id - 1 (they are never freed).
//
// Steady-state RecordGet/RecordFree/RecordUsage are O(1), branch-light, and
// allocation-free: allocation happens only on first-touch growth (more live
// tasks or resources than ever before).
//
// Time is data: every timed hook takes the event's raw stamp as `now`, and
// the ledger holds no clock. Sampled-mode quantization (§3.2) is a pure
// function of the sequence of stamps the get/free/wait hooks see.
//
// Threading: single-threaded by design — the ledger is owned by whichever
// thread drives the runtime (the drainer thread behind ConcurrentFrontend,
// or the caller in single-threaded embeddings). It holds no mutexes, so it
// carries no src/common/thread_annotations.h attributes; cross-thread intake
// must go through ConcurrentFrontend's rings, never call into the ledger.

#ifndef SRC_ATROPOS_LEDGER_H_
#define SRC_ATROPOS_LEDGER_H_

#include <string>
#include <vector>

#include "src/atropos/accounting.h"
#include "src/atropos/config.h"
#include "src/atropos/dense_index.h"
#include "src/atropos/stats.h"
#include "src/common/clock.h"

namespace atropos {

// Per-resource conservation ledger row: every unit a task reported acquired
// is either returned (released), still held by a live task (live_held), or
// was held at task teardown (leaked); frees beyond a task's holdings are
// overfreed. The identity below holds for correct ledger bookkeeping
// regardless of application behaviour; leaked/overfreed themselves expose
// application-side imbalance.
struct ResourceAudit {
  ResourceId id = kInvalidResourceId;
  std::string name;
  ResourceClass cls = ResourceClass::kLock;
  uint64_t acquired = 0;   // units reported via getResource
  uint64_t released = 0;   // units reported via freeResource
  uint64_t leaked = 0;     // units held at task teardown
  uint64_t overfreed = 0;  // free amounts beyond the task's holdings
  uint64_t live_held = 0;  // units held by currently registered tasks
  bool Balanced() const { return acquired + overfreed == released + leaked + live_held; }
};

class TaskLedger {
 public:
  // End-of-list sentinel for the live-task slot walk.
  static constexpr uint32_t kNilSlot = DenseKeyIndex::kNotFound;

  // `start` opens the first window.
  TaskLedger(TimeMicros start, const AtroposConfig& config, AtroposStats* stats);

  // ---- Resource registry ---------------------------------------------------
  ResourceId RegisterResource(std::string name, ResourceClass cls);
  const ResourceRecord* FindResource(ResourceId id) const;

  // ---- Task registry -------------------------------------------------------
  // `cancellable` is the already-resolved flag: the façade consults the
  // dispatcher's §4 cancelled-key memo before registering.
  void RegisterTask(uint64_t key, bool background, bool cancellable, TimeMicros now);
  void FreeTask(uint64_t key);
  const TaskRecord* FindTask(uint64_t key) const;
  TaskRecord* MutableTask(uint64_t key);
  size_t live_task_count() const { return key_index_.size(); }

  // ---- Usage tracing (§3.2) ------------------------------------------------
  void RecordGet(uint64_t key, ResourceId resource, uint64_t amount, TimeMicros now);
  void RecordFree(uint64_t key, ResourceId resource, uint64_t amount, TimeMicros now);
  void RecordWaitBegin(uint64_t key, ResourceId resource, TimeMicros now);
  void RecordWaitEnd(uint64_t key, ResourceId resource, TimeMicros now);
  void RecordUsage(uint64_t key, ResourceId resource, TimeMicros waited, TimeMicros used);
  void RecordProgress(uint64_t key, uint64_t done, uint64_t total);

  // ---- Timestamp-mode handling (§3.2) --------------------------------------
  // The façade escalates to per-event timestamps while an overload is
  // suspected; the ledger owns the cached-timestamp machinery.
  void SetEffectiveMode(TimestampMode mode);
  TimestampMode effective_mode() const { return effective_mode_; }

  // ---- Window boundary -----------------------------------------------------
  // Resets the per-resource window counters; closed wait/hold intervals are
  // clipped against window_start() as they complete.
  void RollWindow(TimeMicros now);
  TimeMicros window_start() const { return window_start_; }

  // ---- Estimation-stage access ---------------------------------------------
  // Slot-based iteration over live tasks in ascending-TaskId order (the
  // intrusive live list; see header comment). The usage row of a slot holds
  // resource_count() cells, cell r belonging to ResourceId r + 1.
  uint32_t live_head() const { return live_head_; }
  uint32_t next_live(uint32_t slot) const { return slot_next_[slot]; }
  TaskRecord& task_at(uint32_t slot) { return task_slots_[slot]; }
  const TaskRecord& task_at(uint32_t slot) const { return task_slots_[slot]; }
  const TaskResourceUsage* usage_row(uint32_t slot) const {
    return usage_.data() + static_cast<size_t>(slot) * usage_stride_;
  }
  size_t resource_count() const { return resources_.size(); }
  ResourceRecord& resource_at(size_t i) { return resources_[i]; }
  const ResourceRecord& resource_at(size_t i) const { return resources_[i]; }

  // ---- Introspection / test access -----------------------------------------
  // The (task, resource) usage cell, or null when the task is unknown, the
  // resource id is out of range, or no tracing event ever touched the pair.
  const TaskResourceUsage* FindUsage(uint64_t key, ResourceId resource) const;
  // Resource ids this task's tracing events have touched, ascending.
  std::vector<ResourceId> UsedResources(uint64_t key) const;
  // Mutable cell access for tests that stage ledger state directly; creates
  // (and marks touched) the cell. Null when key/resource are unknown.
  TaskResourceUsage* MutableUsage(uint64_t key, ResourceId resource);
  ResourceRecord* MutableResource(ResourceId id);

  // ---- Accounting audit (fuzzer oracles) -----------------------------------
  std::vector<ResourceAudit> AuditAccounting() const;

 private:
  // In sampled mode, the quantum event stamps are rounded down to (§3.2).
  static constexpr TimeMicros kTimestampSampleInterval = Millis(1);

  // The timestamp the usage books record for an event stamped `now`: `now`
  // itself in per-event mode. Sampled mode keeps one stamp per sampling
  // interval: it reuses the cached stamp and refreshes it to `now` rounded
  // down to the interval once `now` reaches the deadline.
  TimeMicros Quantize(TimeMicros now) {
    if (effective_mode_ == TimestampMode::kPerEvent) {
      cached_now_ = now;
    } else if (now >= sample_deadline_) {
      cached_now_ = now - now % kTimestampSampleInterval;
      sample_deadline_ = cached_now_ + kTimestampSampleInterval;
    }
    return cached_now_;
  }

  TaskRecord* Lookup(uint64_t key);
  TaskResourceUsage* UsageFor(uint64_t key, ResourceId resource);
  // Valid resource slot index for `id`, or SIZE_MAX when out of range.
  size_t ResourceSlot(ResourceId id) const {
    const size_t i = static_cast<size_t>(id) - 1;
    return i < resources_.size() ? i : static_cast<size_t>(-1);
  }
  // Folds a departing task's open holdings into the per-resource ledger,
  // unlinks the slot from the live list, zeroes its usage row, and recycles
  // the slot. All O(stride), allocation-free.
  void ReleaseSlot(uint32_t slot);
  // Grows the usage matrix to a new stride (setup-time: resource
  // registration only), repacking existing rows.
  void Restride(size_t new_stride);

  AtroposStats* stats_;

  // Struct-of-arrays task registry: dense slots + free list + intrusive live
  // list (ascending-id iteration) + open-addressed key index.
  std::vector<TaskRecord> task_slots_;
  std::vector<uint32_t> slot_prev_;
  std::vector<uint32_t> slot_next_;
  std::vector<uint32_t> free_slots_;
  uint32_t live_head_ = kNilSlot;
  uint32_t live_tail_ = kNilSlot;
  DenseKeyIndex key_index_;  // application key -> slot

  // Resource registry: ids are dense and never freed; index = id - 1.
  std::vector<ResourceRecord> resources_;

  // Flat task×resource usage matrix: cell = slot * usage_stride_ + (rid - 1).
  std::vector<TaskResourceUsage> usage_;
  size_t usage_stride_ = 0;

  TaskId next_task_id_ = 1;
  ResourceId next_resource_id_ = 1;

  TimeMicros window_start_ = 0;

  // Timestamp sampling (§3.2).
  TimestampMode effective_mode_;
  TimeMicros cached_now_ = 0;
  TimeMicros sample_deadline_ = 0;  // cached_now_ + sample interval
};

}  // namespace atropos

#endif  // SRC_ATROPOS_LEDGER_H_
