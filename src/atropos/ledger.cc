#include "src/atropos/ledger.h"

#include <algorithm>

namespace atropos {

TaskLedger::TaskLedger(TimeMicros start, const AtroposConfig& config, AtroposStats* stats)
    : stats_(stats), window_start_(start), cached_now_(start) {
  SetEffectiveMode(config.timestamp_mode);
}

ResourceId TaskLedger::RegisterResource(std::string name, ResourceClass cls) {
  ResourceId id = next_resource_id_++;
  ResourceRecord rec;
  rec.id = id;
  rec.cls = cls;
  rec.name = std::move(name);
  resources_.push_back(std::move(rec));
  if (resources_.size() > usage_stride_) {
    // Setup-time growth: widen every task's usage row. Geometric so N
    // resources cost O(log N) repacks.
    Restride(std::max<size_t>({usage_stride_ * 2, resources_.size(), 4}));
  }
  return id;
}

void TaskLedger::Restride(size_t new_stride) {
  std::vector<TaskResourceUsage> wider(task_slots_.size() * new_stride);
  for (size_t s = 0; s < task_slots_.size(); s++) {
    std::copy_n(usage_.begin() + static_cast<ptrdiff_t>(s * usage_stride_), usage_stride_,
                wider.begin() + static_cast<ptrdiff_t>(s * new_stride));
  }
  usage_ = std::move(wider);
  usage_stride_ = new_stride;
}

const ResourceRecord* TaskLedger::FindResource(ResourceId id) const {
  const size_t i = ResourceSlot(id);
  return i == static_cast<size_t>(-1) ? nullptr : &resources_[i];
}

const TaskRecord* TaskLedger::FindTask(uint64_t key) const {
  const uint32_t slot = key_index_.Find(key);
  return slot == kNilSlot ? nullptr : &task_slots_[slot];
}

void TaskLedger::SetEffectiveMode(TimestampMode mode) {
  effective_mode_ = mode;
  if (mode == TimestampMode::kSampled) {
    // Rearm the deadline against the current cached stamp, preserving the
    // "refresh once now >= cached + interval" semantics across mode flips.
    sample_deadline_ = cached_now_ + kTimestampSampleInterval;
  }
}

void TaskLedger::RegisterTask(uint64_t key, bool background, bool cancellable,
                              TimeMicros now) {
  TaskId id = next_task_id_++;
  // One probe finds a stale registration under the same key (to replace) or
  // inserts the key; `index_cell` receives the new slot below.
  uint32_t& index_cell = key_index_.FindOrInsert(key);
  if (index_cell != kNilSlot) {
    ReleaseSlot(index_cell);
  }
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(task_slots_.size());
    task_slots_.emplace_back();
    slot_prev_.push_back(kNilSlot);
    slot_next_.push_back(kNilSlot);
    usage_.resize(usage_.size() + usage_stride_);
  }
  TaskRecord& rec = task_slots_[slot];
  rec = TaskRecord{};
  rec.id = id;
  rec.key = key;
  rec.created_at = now;
  rec.background = background;
  rec.cancellable = cancellable;
  // Append at the live-list tail: ids are monotone, so the head-to-tail walk
  // stays sorted by ascending TaskId (the estimator's deterministic order).
  slot_prev_[slot] = live_tail_;
  slot_next_[slot] = kNilSlot;
  if (live_tail_ == kNilSlot) {
    live_head_ = slot;
  } else {
    slot_next_[live_tail_] = slot;
  }
  live_tail_ = slot;
  index_cell = slot;
}

void TaskLedger::FreeTask(uint64_t key) {
  const uint32_t slot = key_index_.Erase(key);
  if (slot != kNilSlot) {
    ReleaseSlot(slot);
  }
}

void TaskLedger::ReleaseSlot(uint32_t slot) {
  // Fold the departing task's open holdings into the per-resource ledger and
  // clear its usage row for the next occupant.
  TaskResourceUsage* row = usage_.data() + static_cast<size_t>(slot) * usage_stride_;
  for (size_t r = 0; r < resources_.size(); r++) {
    if (row[r].active_units != 0) {
      resources_[r].leaked_units += row[r].active_units;
    }
  }
  std::fill_n(row, usage_stride_, TaskResourceUsage{});
  // Unlink from the live list.
  const uint32_t prev = slot_prev_[slot];
  const uint32_t next = slot_next_[slot];
  if (prev == kNilSlot) {
    live_head_ = next;
  } else {
    slot_next_[prev] = next;
  }
  if (next == kNilSlot) {
    live_tail_ = prev;
  } else {
    slot_prev_[next] = prev;
  }
  free_slots_.push_back(slot);
}

std::vector<ResourceAudit> TaskLedger::AuditAccounting() const {
  std::vector<uint64_t> live_held(resources_.size(), 0);
  for (uint32_t slot = live_head_; slot != kNilSlot; slot = slot_next_[slot]) {
    const TaskResourceUsage* row = usage_row(slot);
    for (size_t r = 0; r < resources_.size(); r++) {
      live_held[r] += row[r].active_units;
    }
  }
  std::vector<ResourceAudit> out;
  out.reserve(resources_.size());
  for (size_t r = 0; r < resources_.size(); r++) {
    const ResourceRecord& res = resources_[r];
    ResourceAudit row;
    row.id = res.id;
    row.name = res.name;
    row.cls = res.cls;
    row.acquired = res.total_gets;
    row.released = res.total_frees;
    row.leaked = res.leaked_units;
    row.overfreed = res.overfreed_units;
    row.live_held = live_held[r];
    out.push_back(std::move(row));
  }
  return out;
}

TaskRecord* TaskLedger::Lookup(uint64_t key) {
  const uint32_t slot = key_index_.Find(key);
  if (slot == kNilSlot) {
    stats_->ignored_events++;
    return nullptr;
  }
  return &task_slots_[slot];
}

TaskResourceUsage* TaskLedger::UsageFor(uint64_t key, ResourceId resource) {
  const uint32_t slot = key_index_.Find(key);
  if (slot == kNilSlot) {
    stats_->ignored_events++;
    return nullptr;
  }
  const size_t r = ResourceSlot(resource);
  if (r == static_cast<size_t>(-1)) {
    // Event against a resource id that was never registered: counted in
    // trace_events by the caller (like always), otherwise untracked — such
    // usage was observationally dead weight in the map-based ledger too (it
    // could never reach the estimator, audits, or digests).
    return nullptr;
  }
  TaskResourceUsage* cell = usage_.data() + static_cast<size_t>(slot) * usage_stride_ + r;
  cell->touched = true;
  return cell;
}

void TaskLedger::RecordGet(uint64_t key, ResourceId resource, uint64_t amount,
                           TimeMicros now) {
  stats_->trace_events++;
  TaskResourceUsage* usage = UsageFor(key, resource);
  if (usage == nullptr) {
    return;
  }
  now = Quantize(now);
  usage->acquired += amount;
  if (usage->active_units == 0) {
    usage->hold_started_at = now;
  }
  usage->active_units += amount;
  ResourceRecord& res = resources_[ResourceSlot(resource)];
  // Window gets count API calls, not units: the §3.4 eviction ratio is
  // "slowByResource calls / getResource calls" regardless of whether a call
  // acquires one page or a multi-KB allocation.
  res.window.gets++;
  res.total_gets += amount;
}

void TaskLedger::RecordFree(uint64_t key, ResourceId resource, uint64_t amount,
                            TimeMicros now) {
  stats_->trace_events++;
  TaskResourceUsage* usage = UsageFor(key, resource);
  if (usage == nullptr) {
    return;
  }
  now = Quantize(now);
  usage->released += amount;
  uint64_t dec = std::min(usage->active_units, amount);
  usage->active_units -= dec;
  ResourceRecord& res = resources_[ResourceSlot(resource)];
  res.total_frees += amount;
  res.overfreed_units += amount - dec;
  if (usage->active_units == 0 && dec > 0 && now > usage->hold_started_at) {
    usage->hold_time += now - usage->hold_started_at;
    // Window counters take the part of the closed interval inside this
    // window; earlier parts were visible as an open interval before.
    TimeMicros from = std::max(usage->hold_started_at, window_start_);
    if (now > from) {
      res.window.hold_time += now - from;
    }
  }
  res.window.frees += amount;
}

void TaskLedger::RecordWaitBegin(uint64_t key, ResourceId resource, TimeMicros now) {
  stats_->trace_events++;
  TaskResourceUsage* usage = UsageFor(key, resource);
  if (usage == nullptr || usage->waiting) {
    return;
  }
  usage->waiting = true;
  usage->wait_started_at = Quantize(now);
}

void TaskLedger::RecordWaitEnd(uint64_t key, ResourceId resource, TimeMicros now) {
  stats_->trace_events++;
  TaskResourceUsage* usage = UsageFor(key, resource);
  if (usage == nullptr || !usage->waiting) {
    return;
  }
  now = Quantize(now);
  usage->waiting = false;
  if (now > usage->wait_started_at) {
    usage->wait_time += now - usage->wait_started_at;
  }
  usage->slow_events++;
  ResourceRecord& res = resources_[ResourceSlot(resource)];
  res.window.slow_events++;
  res.total_slow_events++;
  TimeMicros from = std::max(usage->wait_started_at, window_start_);
  if (now > from) {
    res.window.wait_time += now - from;
  }
}

void TaskLedger::RecordUsage(uint64_t key, ResourceId resource, TimeMicros waited,
                             TimeMicros used) {
  stats_->trace_events++;
  TaskResourceUsage* usage = UsageFor(key, resource);
  if (usage == nullptr) {
    return;
  }
  usage->wait_time += waited;
  usage->hold_time += used;
  ResourceRecord& res = resources_[ResourceSlot(resource)];
  res.window.wait_time += waited;
  res.window.hold_time += used;
  if (waited > 0) {
    res.window.slow_events++;
    res.total_slow_events++;
    usage->slow_events++;
  }
}

void TaskLedger::RecordProgress(uint64_t key, uint64_t done, uint64_t total) {
  TaskRecord* task = Lookup(key);
  if (task == nullptr) {
    return;
  }
  task->has_progress = true;
  task->progress_done = done;
  task->progress_total = total;
}

void TaskLedger::RollWindow(TimeMicros now) {
  window_start_ = now;
  for (ResourceRecord& res : resources_) {
    res.window.Reset();
  }
}

const TaskResourceUsage* TaskLedger::FindUsage(uint64_t key, ResourceId resource) const {
  const uint32_t slot = key_index_.Find(key);
  if (slot == kNilSlot) {
    return nullptr;
  }
  const size_t r = ResourceSlot(resource);
  if (r == static_cast<size_t>(-1)) {
    return nullptr;
  }
  const TaskResourceUsage* cell = usage_row(slot) + r;
  return cell->touched ? cell : nullptr;
}

std::vector<ResourceId> TaskLedger::UsedResources(uint64_t key) const {
  std::vector<ResourceId> out;
  const uint32_t slot = key_index_.Find(key);
  if (slot == kNilSlot) {
    return out;
  }
  const TaskResourceUsage* row = usage_row(slot);
  for (size_t r = 0; r < resources_.size(); r++) {
    if (row[r].touched) {
      out.push_back(static_cast<ResourceId>(r + 1));
    }
  }
  return out;
}

TaskResourceUsage* TaskLedger::MutableUsage(uint64_t key, ResourceId resource) {
  const uint32_t slot = key_index_.Find(key);
  if (slot == kNilSlot) {
    return nullptr;
  }
  const size_t r = ResourceSlot(resource);
  if (r == static_cast<size_t>(-1)) {
    return nullptr;
  }
  TaskResourceUsage* cell = usage_.data() + static_cast<size_t>(slot) * usage_stride_ + r;
  cell->touched = true;
  return cell;
}

TaskRecord* TaskLedger::MutableTask(uint64_t key) {
  const uint32_t slot = key_index_.Find(key);
  return slot == kNilSlot ? nullptr : &task_slots_[slot];
}

ResourceRecord* TaskLedger::MutableResource(ResourceId id) {
  const size_t i = ResourceSlot(id);
  return i == static_cast<size_t>(-1) ? nullptr : &resources_[i];
}

}  // namespace atropos
