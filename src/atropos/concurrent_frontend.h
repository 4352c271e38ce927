// Concurrent ingestion front-end for the Atropos instrumentation stream.
//
// AtroposRuntime is deliberately single-threaded: its registries, window
// accounting, and control loop are plain maps with no synchronization, which
// keeps the decision logic simple and deterministic. Real applications,
// however, call getResource/freeResource/slowByResource (§3.2) from many
// threads at once, and the paper's overhead argument only holds if those
// calls stay cheap under contention-free parallel traffic.
//
// ConcurrentFrontend bridges the two worlds:
//
//   app thread 1 ──► EventRing (SPSC) ─┐
//   app thread 2 ──► EventRing (SPSC) ─┼─► Tick(): k-way merge by timestamp
//   app thread N ──► EventRing (SPSC) ─┘   into AtroposRuntime::Apply, then
//                                          run the control loop
//
// Each producer thread owns one fixed-capacity single-producer/single-
// consumer ring of POD TraceEvents. The hot path is one hardware counter
// read (Clock::NowTicks) plus one ring slot write — no locks, no allocation,
// no shared cache lines between producers. When a ring is full the event is
// dropped and counted (lossy-with-counter): under the overload conditions
// Atropos exists for, losing a trace event is strictly better than blocking
// an application thread.
//
// Timestamps are taken once, at enqueue, and travel as data: raw ticks on the
// ring, microseconds at Apply. Tick() reads one (NowTicks, NowMicros) anchor
// pair after its last pop, so every drained stamp was taken before it, and
// maps each stamp it applies linearly between the previous Tick's anchor and
// this one, clamped to that interval; AtroposRuntime::Apply hands the result
// to the ledger and window as the event's `now`. Wait/hold attribution and
// the §3.2 sampled/per-event semantics are therefore those of an application
// that had called the runtime directly at the moment the event happened;
// drain latency never moves a stamp. The converted stamp is unquantized: the
// ledger quantizes it in sampled mode, never the producer. Under a clock
// whose ticks are microseconds (ManualClock, the simulator) the mapping is
// exactly the identity.
//
// Drain order is a k-way merge. Tick() pops each ring straight into its own
// run of a reusable buffer; a ring is FIFO with nondecreasing stamps, so each
// run is already sorted. The runs are merged on the raw ticks by (time,
// producer registration index), which is the order a stable sort by time of
// the runs concatenated in registration order gives, and a single non-empty
// run is applied as is. No step allocates once the buffer has reached its
// high-water mark. The pipeline is deterministic: the same events produce
// byte-for-byte the same decision stream as single-threaded feeding
// (concurrent_frontend_test).
//
// Threading contract:
//   - Instrumentation hooks: any thread; each calling thread is bound to its
//     own ring on first use (or via an explicit RegisterProducer() handle).
//   - Tick(): exactly one drainer thread (typically the control-loop timer).
//   - Setup (RegisterResource, SetCancelAction, BindMetrics, recorder
//     attachment): single-threaded, before producers start.
//
// Producer lifecycle: a thread that was auto-bound by the hooks may exit at
// any time (live-mode worker pools shrink mid-run). Its thread-local binding
// marks the producer retired on thread exit; the next Tick() drains whatever
// the ring still holds — every event pushed before the exit happens-before
// the retirement store, so none are lost — folds the ring's drop counter into
// the frontend totals, and frees the ring. Explicitly RegisterProducer()ed
// handles are never auto-retired; they stay valid for the frontend's
// lifetime.

#ifndef SRC_ATROPOS_CONCURRENT_FRONTEND_H_
#define SRC_ATROPOS_CONCURRENT_FRONTEND_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/atropos/config.h"
#include "src/atropos/controller.h"
#include "src/atropos/malthusian_mutex.h"
#include "src/atropos/runtime.h"
#include "src/atropos/trace_event.h"
#include "src/common/clock.h"
#include "src/common/thread_annotations.h"
#include "src/obs/metrics.h"

namespace atropos {

static_assert(sizeof(TraceEvent) == 48,
              "EventRing::Push copies TraceEvent field by field: add a new field there");

// Fixed-capacity single-producer/single-consumer ring. Push is producer-
// thread-only, PopBatch consumer-thread-only; the two sides synchronize through
// the head/tail indices (release on publish, acquire on read). A full ring
// drops the event and counts it — producers never block.
class EventRing {
 public:
  explicit EventRing(size_t capacity);

  // Producer side: stores `ev` stamped with `time`. Returns false (and counts
  // the drop) when full. Inline so it folds into the producer's OnEvent.
  // `ev` was usually stored field by field just before (a named hook builds
  // it on the caller's stack), so it is copied field by field: a whole-struct
  // copy reads it with 16-byte loads that span several of those stores and
  // stall on store forwarding, which cost ~5–15 ns per event on the `ingest`
  // benchmark.
  bool Push(const TraceEvent& ev, uint64_t time) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    const uint64_t head = head_.load(std::memory_order_acquire);
    if (tail - head >= slots_.size()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    TraceEvent& slot = slots_[tail & mask_];
    slot.time = time;
    slot.key = ev.key;
    slot.a = ev.a;
    slot.b = ev.b;
    slot.resource = ev.resource;
    slot.request_type = ev.request_type;
    slot.client_class = ev.client_class;
    slot.kind = ev.kind;
    slot.background = ev.background;
    slot.cancellable = ev.cancellable;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  // Consumer side: pops up to `max` events into `out`, returning the number
  // popped. One acquire load of the published tail and at most two memcpy
  // spans (wrap-around), then a single release store of the head.
  size_t PopBatch(TraceEvent* out, size_t max);

  // Racy-but-monotone observations, safe from any thread.
  size_t SizeApprox() const;
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  size_t capacity() const { return slots_.size(); }

 private:
  std::vector<TraceEvent> slots_;
  size_t mask_;
  // Producer and consumer indices on separate cache lines so the two sides
  // don't false-share.
  alignas(64) std::atomic<uint64_t> tail_{0};  // next write (producer-owned)
  alignas(64) std::atomic<uint64_t> head_{0};  // next read (consumer-owned)
  alignas(64) std::atomic<uint64_t> dropped_{0};
};

class ConcurrentFrontend final : public OverloadController {
 public:
  struct Options {
    // Per-producer ring capacity, rounded up to a power of two. Sized for
    // one control window of events from one thread; overflow is counted.
    size_t ring_capacity = 1 << 14;
  };

  ConcurrentFrontend(Clock* clock, AtroposConfig config, Options options);
  ConcurrentFrontend(Clock* clock, AtroposConfig config);
  ~ConcurrentFrontend() override;

  std::string_view name() const override { return "atropos_concurrent"; }

  // Explicit per-thread producer handle. One handle == one SPSC ring == one
  // producing thread (the SPSC discipline is the caller's responsibility when
  // handles are held explicitly; OnEvent below binds the calling thread
  // automatically instead). Handles stay valid for the frontend's lifetime.
  // Thread-safe.
  class Producer {
   public:
    // Enqueues the event stamped with the clock's raw ticks (Tick() turns
    // them into microseconds). Returns true when it reached the ring and
    // false when a full ring dropped (and counted) it — callers that need
    // loss-free delivery (benchmarks, batch loaders) can retry on false as
    // backpressure; OnEvent below ignores the result (lossy-with-counter).
    // Inline so it folds into OnEvent.
    bool Push(const TraceEvent& ev) { return ring_.Push(ev, clock_->NowTicks()); }

    uint64_t dropped() const { return ring_.dropped(); }

   private:
    friend class ConcurrentFrontend;
    Producer(Clock* clock, size_t ring_capacity) : clock_(clock), ring_(ring_capacity) {}

    Clock* clock_;
    EventRing ring_;
    // Set (release) by the owning thread's TLS destructor at thread exit,
    // after its last Push; observed (acquire) by Tick(), which then drains
    // the ring to empty and frees the producer.
    std::atomic<bool> retired_{false};
  };

  Producer* RegisterProducer() ATROPOS_EXCLUDES(registry_mu_);

  // ---- OverloadController: producer side ----------------------------------
  // Stamps the event and enqueues it on the calling thread's ring,
  // auto-registering the thread on first use.
  void OnEvent(const TraceEvent& ev) override;

  // ---- Setup (single-threaded, before producers start) --------------------
  ResourceId RegisterResource(std::string name, ResourceClass cls) override {
    return runtime_.RegisterResource(std::move(name), cls);
  }
  // Publishes intake gauges (intake.ring_depth, intake.drained_per_tick,
  // intake.dropped_events, intake.producers) at every Tick. Null detaches.
  void BindMetrics(MetricsRegistry* metrics);

  // ---- Drainer thread -----------------------------------------------------
  // Drains all rings, reads this Tick's clock anchor, applies their events to
  // the runtime in one k-way timestamp merge, then runs the runtime's control
  // loop for the closing window.
  void Tick() override ATROPOS_EXCLUDES(registry_mu_);

  bool ReexecutionRecommended() const override {  // drainer thread only
    return runtime_.ReexecutionRecommended();
  }

  // Direct access to the wrapped runtime for setup (SetCancelAction,
  // SetRecorder) and introspection; drainer thread only once producers run.
  AtroposRuntime& runtime() { return runtime_; }
  const AtroposRuntime& runtime() const { return runtime_; }

  struct IntakeStats {
    uint64_t drained_total = 0;      // events applied to the runtime, ever
    uint64_t drained_last_tick = 0;  // events applied by the last Tick()
    uint64_t dropped_total = 0;      // ring-overflow drops, incl. freed rings
    uint64_t max_ring_depth = 0;     // deepest ring observed at last drain
    uint64_t producers = 0;          // currently live producer rings
    uint64_t producers_seen = 0;     // producers ever registered
    uint64_t producers_retired = 0;  // producers drained and freed after exit
  };
  // Drainer thread only (values are refreshed by Tick()).
  const IntakeStats& intake_stats() const { return intake_; }

  // Rings still registered (not yet retired-and-drained). Thread-safe.
  size_t live_producer_count() ATROPOS_EXCLUDES(registry_mu_);

 private:
  friend struct CapturedTlsBindings;
  friend struct ConcurrentFrontendTestPeer;

  Producer* ThisThreadProducer() ATROPOS_EXCLUDES(registry_mu_);
  // Producer bindings the calling thread holds: one per frontend it has fed
  // that was still alive when the thread last bound a new one (tests).
  static size_t ThisThreadBindingCount();
  // Called from an exiting thread's TLS destructor (under the process-wide
  // frontend registry lock, so `p` cannot be concurrently destroyed). Lock-
  // free on the frontend itself: a single release store.
  void RetireProducer(Producer* p) { p->retired_.store(true, std::memory_order_release); }
  // Applies the drained runs to the runtime in (time, run index) order, each
  // stamp converted to microseconds against the anchors (anchor_ticks_,
  // anchor_micros_) and (ticks, micros), and empties runs_.
  void ApplyMerged(uint64_t ticks, TimeMicros micros);

  const uint64_t instance_id_;  // never reused; keys the thread-local cache
  Clock* clock_;
  AtroposRuntime runtime_;
  Options options_;

  // Guards producers_. Registration is rare but bursty (worker-pool spin-up)
  // and the drainer takes this lock every Tick, so the guard is a Malthusian
  // mutex: surplus waiters are culled to sleep instead of spinning against
  // the drainer (DESIGN.md §17).
  MalthusianMutex registry_mu_;
  std::vector<std::unique_ptr<Producer>> producers_ ATROPOS_GUARDED_BY(registry_mu_);
  uint64_t producers_seen_ ATROPOS_GUARDED_BY(registry_mu_) = 0;
  uint64_t producers_retired_ ATROPOS_GUARDED_BY(registry_mu_) = 0;
  // Drops carried over from rings already freed, so dropped_total stays
  // monotone across retirements.
  uint64_t retired_dropped_ ATROPOS_GUARDED_BY(registry_mu_) = 0;

  // Drainer-thread state. drain_buf_ only grows (to the high-water mark of
  // one Tick's events); runs_ holds one [next, end) range of it per
  // non-empty ring, in registration order.
  struct Run {
    size_t next;
    size_t end;
  };
  std::vector<TraceEvent> drain_buf_;
  std::vector<Run> runs_;
  // The clock reading pair the last Tick (or the constructor) anchored at.
  uint64_t anchor_ticks_;
  TimeMicros anchor_micros_;
  IntakeStats intake_;
  Gauge* ring_depth_gauge_ = nullptr;
  Gauge* drained_gauge_ = nullptr;
  Gauge* dropped_gauge_ = nullptr;
  Gauge* producers_gauge_ = nullptr;
};

}  // namespace atropos

#endif  // SRC_ATROPOS_CONCURRENT_FRONTEND_H_
