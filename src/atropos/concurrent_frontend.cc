#include "src/atropos/concurrent_frontend.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <unordered_map>

namespace atropos {

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

std::atomic<uint64_t> g_next_frontend_id{1};

// Process-wide registry of live frontends, keyed by never-reused instance id.
// An exiting thread's TLS destructor resolves its bindings through this map
// so a binding to an already-destroyed frontend is simply skipped, never
// dereferenced. Function-local statics so the registry outlives any static
// frontend regardless of construction order.
std::mutex& FrontendRegistryMu() {
  static std::mutex mu;
  return mu;
}

std::unordered_map<uint64_t, ConcurrentFrontend*>& FrontendRegistry() {
  static std::unordered_map<uint64_t, ConcurrentFrontend*> map;
  return map;
}

}  // namespace

// One thread's auto-registered producer bindings. The destructor runs at
// thread exit — after the thread's last instrumentation call — and marks each
// bound producer retired so the drainer can reclaim its ring once emptied.
// Holding the registry lock across RetireProducer pins the frontend (its
// destructor unregisters under the same lock before members are torn down).
struct CapturedTlsBindings {
  struct Binding {
    uint64_t frontend_id;
    ConcurrentFrontend::Producer* producer;
  };
  std::vector<Binding> bindings;

  ~CapturedTlsBindings() {
    std::lock_guard<std::mutex> lock(FrontendRegistryMu());
    for (const Binding& b : bindings) {
      auto it = FrontendRegistry().find(b.frontend_id);
      if (it != FrontendRegistry().end()) {
        it->second->RetireProducer(b.producer);
      }
    }
  }
};

namespace {

CapturedTlsBindings& ThisThreadBindings() {
  thread_local CapturedTlsBindings tls;
  return tls;
}

}  // namespace

// ---- EventRing -------------------------------------------------------------

EventRing::EventRing(size_t capacity) : slots_(RoundUpPow2(std::max<size_t>(capacity, 2))) {
  mask_ = slots_.size() - 1;
}

size_t EventRing::PopBatch(TraceEvent* out, size_t max) {
  const uint64_t head = head_.load(std::memory_order_relaxed);
  const uint64_t tail = tail_.load(std::memory_order_acquire);
  const size_t n = std::min(static_cast<size_t>(tail - head), max);
  if (n == 0) {
    return 0;
  }
  // Slots in [head, head + n) were published by the release store of tail_,
  // so after the acquire load above they are plain memory: copy them in at
  // most two contiguous spans (the ring may wrap) and retire them with a
  // single release store of head_.
  const size_t start = static_cast<size_t>(head & mask_);
  const size_t first = std::min(n, slots_.size() - start);
  std::memcpy(out, slots_.data() + start, first * sizeof(TraceEvent));
  if (n > first) {
    std::memcpy(out + first, slots_.data(), (n - first) * sizeof(TraceEvent));
  }
  head_.store(head + n, std::memory_order_release);
  return n;
}

size_t EventRing::SizeApprox() const {
  const uint64_t head = head_.load(std::memory_order_acquire);
  const uint64_t tail = tail_.load(std::memory_order_acquire);
  return tail >= head ? static_cast<size_t>(tail - head) : 0;
}

// ---- ConcurrentFrontend ----------------------------------------------------

ConcurrentFrontend::ConcurrentFrontend(Clock* clock, AtroposConfig config, Options options)
    : instance_id_(g_next_frontend_id.fetch_add(1, std::memory_order_relaxed)),
      clock_(clock),
      runtime_(clock, config),
      options_(options),
      anchor_ticks_(clock->NowTicks()),
      anchor_micros_(clock->NowMicros()) {
  std::lock_guard<std::mutex> lock(FrontendRegistryMu());
  FrontendRegistry().emplace(instance_id_, this);
}

ConcurrentFrontend::ConcurrentFrontend(Clock* clock, AtroposConfig config)
    : ConcurrentFrontend(clock, config, Options{}) {}

ConcurrentFrontend::~ConcurrentFrontend() {
  // Unregister before members are destroyed: an exiting thread holding the
  // registry lock may still be retiring a producer owned by this frontend.
  std::lock_guard<std::mutex> lock(FrontendRegistryMu());
  FrontendRegistry().erase(instance_id_);
}

ConcurrentFrontend::Producer* ConcurrentFrontend::RegisterProducer() {
  MalthusianLockGuard lock(registry_mu_);
  producers_.push_back(
      std::unique_ptr<Producer>(new Producer(clock_, options_.ring_capacity)));
  producers_seen_++;
  return producers_.back().get();
}

size_t ConcurrentFrontend::live_producer_count() {
  MalthusianLockGuard lock(registry_mu_);
  return producers_.size();
}

ConcurrentFrontend::Producer* ConcurrentFrontend::ThisThreadProducer() {
  // Keyed by a never-reused instance id so a binding to a destroyed frontend
  // can go stale but never alias a live one. The wrapper's destructor retires
  // the bindings at thread exit (see CapturedTlsBindings).
  CapturedTlsBindings& tls = ThisThreadBindings();
  for (const CapturedTlsBindings::Binding& b : tls.bindings) {
    if (b.frontend_id == instance_id_) {
      return b.producer;
    }
  }
  Producer* p = RegisterProducer();
  {
    // Binding is rare (once per thread per frontend), so it is where the
    // bindings to frontends destroyed since are dropped: a long-lived thread
    // that feeds many short-lived frontends keeps a short list to scan.
    std::lock_guard<std::mutex> lock(FrontendRegistryMu());
    std::erase_if(tls.bindings, [](const CapturedTlsBindings::Binding& b) {
      return !FrontendRegistry().contains(b.frontend_id);
    });
  }
  tls.bindings.push_back(CapturedTlsBindings::Binding{instance_id_, p});
  return p;
}

size_t ConcurrentFrontend::ThisThreadBindingCount() {
  return ThisThreadBindings().bindings.size();
}

void ConcurrentFrontend::OnEvent(const TraceEvent& ev) { ThisThreadProducer()->Push(ev); }

void ConcurrentFrontend::BindMetrics(MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    ring_depth_gauge_ = drained_gauge_ = dropped_gauge_ = producers_gauge_ = nullptr;
    return;
  }
  ring_depth_gauge_ = metrics->GetGauge("intake.ring_depth");
  drained_gauge_ = metrics->GetGauge("intake.drained_per_tick");
  dropped_gauge_ = metrics->GetGauge("intake.dropped_events");
  producers_gauge_ = metrics->GetGauge("intake.producers");
}

void ConcurrentFrontend::Tick() {
  size_t drained = 0;
  uint64_t max_depth = 0;
  uint64_t dropped = 0;
  size_t producer_count = 0;
  uint64_t seen = 0;
  uint64_t retired_count = 0;
  {
    MalthusianLockGuard lock(registry_mu_);
    size_t keep = 0;
    for (size_t i = 0; i < producers_.size(); i++) {
      std::unique_ptr<Producer>& p = producers_[i];
      // Retirement is observed *before* draining: the owning thread's last
      // Push happens-before its TLS destructor's release store, so seeing
      // retired==true here guarantees this drain empties the ring for good.
      // A flip to retired *after* this load is deliberately ignored until
      // the next Tick — removing on a post-drain observation could free a
      // ring that still holds events pushed just before the exit.
      const bool retired = p->retired_.load(std::memory_order_acquire);
      // Pop the ring straight into its own run: the ring is FIFO with
      // nondecreasing stamps, so the run is already sorted.
      const size_t available = p->ring_.SizeApprox();
      if (drain_buf_.size() < drained + available) {
        drain_buf_.resize(drained + available);
      }
      const size_t n = p->ring_.PopBatch(drain_buf_.data() + drained, available);
      if (n > 0) {
        runs_.push_back(Run{drained, drained + n});
        drained += n;
      }
      max_depth = std::max<uint64_t>(max_depth, n);
      if (retired) {
        retired_dropped_ += p->ring_.dropped();
        producers_retired_++;
      } else {
        dropped += p->ring_.dropped();
        producers_[keep++] = std::move(p);
      }
    }
    producers_.resize(keep);
    dropped += retired_dropped_;
    producer_count = producers_.size();
    seen = producers_seen_;
    retired_count = producers_retired_;
  }

  // Every stamp popped above was taken before this anchor.
  const uint64_t ticks = clock_->NowTicks();
  const TimeMicros micros = clock_->NowMicros();
  ApplyMerged(ticks, micros);
  anchor_ticks_ = ticks;
  anchor_micros_ = micros;

  intake_.drained_last_tick = drained;
  intake_.drained_total += drained;
  intake_.dropped_total = dropped;
  intake_.max_ring_depth = max_depth;
  intake_.producers = producer_count;
  intake_.producers_seen = seen;
  intake_.producers_retired = retired_count;
  if (ring_depth_gauge_ != nullptr) {
    ring_depth_gauge_->Set(static_cast<double>(max_depth));
    drained_gauge_->Set(static_cast<double>(drained));
    dropped_gauge_->Set(static_cast<double>(dropped));
    producers_gauge_->Set(static_cast<double>(producer_count));
  }

  runtime_.Tick();
}

// atropos-lint: alloc-free
void ConcurrentFrontend::ApplyMerged(uint64_t ticks, TimeMicros micros) {
  // Stamps map linearly from [t0, t1] ticks onto [u0, u1] µs, clamped to that
  // interval, with the slope in 32.32 fixed point and the product rounded to
  // the nearest µs. When ticks are µs the slope is exactly 1 and the mapping
  // the identity; a clock that did not advance maps every stamp to u0.
  using U128 = unsigned __int128;
  const uint64_t t0 = anchor_ticks_;
  const TimeMicros u0 = anchor_micros_;
  const uint64_t span = micros > u0 ? micros - u0 : 0;
  const uint64_t mult =
      ticks > t0 ? static_cast<uint64_t>((static_cast<U128>(span) << 32) / (ticks - t0)) : 0;
  auto apply = [&](TraceEvent& ev) {
    const uint64_t dt = ev.time > t0 ? ev.time - t0 : 0;
    const U128 du = (static_cast<U128>(dt) * mult + (U128{1} << 31)) >> 32;
    ev.time = u0 + static_cast<TimeMicros>(du < span ? du : span);
    runtime_.Apply(ev);
  };
  // Each round applies the earliest head, ties to the lower run index (the
  // earlier-registered producer), and drops a run once it is empty.
  while (runs_.size() > 1) {
    size_t c = 0;
    for (size_t r = 1; r < runs_.size(); r++) {
      if (drain_buf_[runs_[r].next].time < drain_buf_[runs_[c].next].time) {
        c = r;
      }
    }
    Run& run = runs_[c];
    apply(drain_buf_[run.next++]);
    if (run.next == run.end) {
      runs_.erase(runs_.begin() + static_cast<ptrdiff_t>(c));
    }
  }
  // The last run (k == 1, or what outlived the others) needs no comparisons.
  if (!runs_.empty()) {
    for (size_t i = runs_[0].next; i < runs_[0].end; i++) {
      apply(drain_buf_[i]);
    }
    runs_.clear();
  }
}

}  // namespace atropos
