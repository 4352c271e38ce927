// One instrumentation call as a timestamped record (paper §3.2).
//
// A TraceEvent is the single unit of work from the producer hook to the
// ledger: ConcurrentFrontend's producers stamp it and push it through a ring,
// AtroposRuntime's own hooks stamp it and apply it in place, and either way
// AtroposRuntime::Apply hands `time` to the ledger and window as the event's
// `now`. The stamp is the raw clock reading; the ledger applies the §3.2
// sampled-mode quantization, never the producer.

#ifndef SRC_ATROPOS_TRACE_EVENT_H_
#define SRC_ATROPOS_TRACE_EVENT_H_

#include <cstdint>
#include <type_traits>

#include "src/atropos/types.h"
#include "src/common/clock.h"

namespace atropos {

enum class TraceEventKind : uint8_t {
  kTaskRegistered = 0,
  kTaskFreed = 1,
  kGet = 2,
  kFree = 3,
  kWaitBegin = 4,
  kWaitEnd = 5,
  kRequestStart = 6,
  kRequestEnd = 7,
  kUsage = 8,
  kProgress = 9,
};

// Fixed-size POD so ring slots are trivially copyable and the producer path
// never allocates. The factories leave `time` at 0 for the stamping site.
struct TraceEvent {
  TimeMicros time = 0;  // raw clock reading when the hook ran
  uint64_t key = 0;
  uint64_t a = 0;  // amount | waited | done | latency, by kind
  uint64_t b = 0;  // used | total, by kind
  ResourceId resource = kInvalidResourceId;
  int32_t request_type = 0;
  int32_t client_class = 0;
  TraceEventKind kind = TraceEventKind::kGet;
  bool background = false;
  bool cancellable = true;

  static TraceEvent TaskRegistered(uint64_t key, bool background, bool cancellable) {
    return {.key = key, .kind = TraceEventKind::kTaskRegistered, .background = background,
            .cancellable = cancellable};
  }
  static TraceEvent TaskFreed(uint64_t key) {
    return {.key = key, .kind = TraceEventKind::kTaskFreed};
  }
  static TraceEvent Get(uint64_t key, ResourceId resource, uint64_t amount) {
    return {.key = key, .a = amount, .resource = resource, .kind = TraceEventKind::kGet};
  }
  static TraceEvent Free(uint64_t key, ResourceId resource, uint64_t amount) {
    return {.key = key, .a = amount, .resource = resource, .kind = TraceEventKind::kFree};
  }
  static TraceEvent WaitBegin(uint64_t key, ResourceId resource) {
    return {.key = key, .resource = resource, .kind = TraceEventKind::kWaitBegin};
  }
  static TraceEvent WaitEnd(uint64_t key, ResourceId resource) {
    return {.key = key, .resource = resource, .kind = TraceEventKind::kWaitEnd};
  }
  static TraceEvent RequestStart(uint64_t key, int request_type, int client_class) {
    return {.key = key, .request_type = request_type, .client_class = client_class,
            .kind = TraceEventKind::kRequestStart};
  }
  static TraceEvent RequestEnd(uint64_t key, TimeMicros latency, int request_type,
                               int client_class) {
    return {.key = key, .a = latency, .request_type = request_type,
            .client_class = client_class, .kind = TraceEventKind::kRequestEnd};
  }
  static TraceEvent Usage(uint64_t key, ResourceId resource, TimeMicros waited,
                          TimeMicros used) {
    return {.key = key, .a = waited, .b = used, .resource = resource,
            .kind = TraceEventKind::kUsage};
  }
  static TraceEvent Progress(uint64_t key, uint64_t done, uint64_t total) {
    return {.key = key, .a = done, .b = total, .kind = TraceEventKind::kProgress};
  }
};
static_assert(std::is_trivially_copyable_v<TraceEvent>, "ring slots must be memcpy-able");

}  // namespace atropos

#endif  // SRC_ATROPOS_TRACE_EVENT_H_
