// The decision flight recorder: a bounded ring of FlightEvents whose slots
// are built on first record. The constructor reserves `capacity` slots but
// constructs none, so a recorder costs only what it has recorded.
//
// Record() is O(1) and allocation-free apart from the event payload the
// caller already built (the reservation means no slot ever moves); when the
// ring is full the oldest event is overwritten, so a recorder can stay
// attached to a long-running system and always hold the most recent history
// (the post-mortem that matters).
// A disabled recorder reduces every Record call at the emission site to one
// branch — emitters are expected to guard payload construction with
// `recorder->enabled()` so an idle recorder costs nothing measurable.

#ifndef SRC_OBS_FLIGHT_RECORDER_H_
#define SRC_OBS_FLIGHT_RECORDER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/obs/events.h"

namespace atropos {

class FlightRecorder {
 public:
  explicit FlightRecorder(size_t capacity = kDefaultCapacity);

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  // Stamps `ev.seq` and appends; overwrites the oldest event when full.
  // No-op while disabled.
  void Record(FlightEvent ev);

  // Events in recording order (oldest first), honouring wraparound.
  std::vector<FlightEvent> Snapshot() const;

  // Visits events in recording order without copying them — the iteration
  // path the invariant oracles audit a full run through.
  void ForEach(const std::function<void(const FlightEvent&)>& fn) const;

  // Sets the label of the most recently recorded event of `kind` if its
  // label is still empty. Lets a layer with more context (e.g. the workload
  // runner, which can map a task key to a request type) enrich an event the
  // runtime just emitted, without threading naming callbacks through the
  // control loop.
  void AnnotateLast(ObsEventKind kind, const std::string& label);

  // Drops every event and built slot; the reservation stays.
  void Clear();

  size_t size() const { return ring_.size(); }
  // The bound on held events. The ring is a bounded ring whose slots are
  // built on first record, so the bound is reserved, not constructed.
  size_t capacity() const { return capacity_; }
  uint64_t total_recorded() const { return total_; }
  // Events lost to wraparound since the last Clear().
  uint64_t overwritten() const { return total_ - ring_.size(); }

  static constexpr size_t kDefaultCapacity = 4096;

 private:
  size_t capacity_;
  std::vector<FlightEvent> ring_;  // built slots, at most capacity_
  size_t head_ = 0;                // next write position
  uint64_t total_ = 0;
  bool enabled_ = true;
};

}  // namespace atropos

#endif  // SRC_OBS_FLIGHT_RECORDER_H_
