// Test double that records the instrumentation stream apps emit.

#ifndef SRC_TESTING_RECORDING_CONTROLLER_H_
#define SRC_TESTING_RECORDING_CONTROLLER_H_

#include <vector>

#include "src/atropos/controller.h"

namespace atropos {

class RecordingController : public OverloadController {
 public:
  std::string_view name() const override { return "recording"; }

  void OnEvent(const TraceEvent& ev) override { events.push_back(ev); }

  int Count(TraceEventKind kind) const {
    int n = 0;
    for (const TraceEvent& e : events) {
      if (e.kind == kind) {
        n++;
      }
    }
    return n;
  }

  int CountFor(TraceEventKind kind, uint64_t key) const {
    int n = 0;
    for (const TraceEvent& e : events) {
      if (e.kind == kind && e.key == key) {
        n++;
      }
    }
    return n;
  }

  // Sums field `a` (amount / waited / done / latency, by kind).
  uint64_t SumAmount(TraceEventKind kind, uint64_t key) const {
    uint64_t sum = 0;
    for (const TraceEvent& e : events) {
      if (e.kind == kind && e.key == key) {
        sum += e.a;
      }
    }
    return sum;
  }

  std::vector<TraceEvent> events;
};

}  // namespace atropos

#endif  // SRC_TESTING_RECORDING_CONTROLLER_H_
