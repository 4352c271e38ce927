#include "src/db/buffer_pool.h"

#include <deque>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/sim/coro.h"
#include "src/testing/recording_controller.h"

namespace atropos {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolOptions SmallPool() {
    BufferPoolOptions opt;
    opt.capacity_pages = 4;
    opt.hit_cost = 1;
    opt.miss_cost = 100;
    opt.clean_evict_cost = 10;
    opt.dirty_evict_cost = 200;
    return opt;
  }

  Executor ex_;
  RecordingController ctl_;
};

Coro AccessPage(Executor& ex, BufferPool& pool, uint64_t key, uint64_t page, bool write,
                CancelToken* token, std::vector<PageAccess>& out) {
  co_await BindExecutor{ex};
  out.push_back(co_await pool.Access(key, page, write, token));
}

TEST_F(BufferPoolTest, MissThenHit) {
  BufferPool pool(ex_, SmallPool(), &ctl_, 1);
  std::vector<PageAccess> out;
  AccessPage(ex_, pool, 1, 42, false, nullptr, out);
  ex_.Run();
  AccessPage(ex_, pool, 1, 42, false, nullptr, out);
  ex_.Run();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_FALSE(out[0].hit);
  EXPECT_TRUE(out[1].hit);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.resident_pages(), 1u);
}

TEST_F(BufferPoolTest, CapacityTriggersLruEviction) {
  BufferPool pool(ex_, SmallPool(), &ctl_, 1);
  std::vector<PageAccess> out;
  for (uint64_t p = 0; p < 5; p++) {
    AccessPage(ex_, pool, 1, p, false, nullptr, out);
    ex_.Run();
  }
  EXPECT_EQ(pool.resident_pages(), 4u);
  EXPECT_EQ(pool.evictions(), 1u);
  EXPECT_TRUE(out[4].evicted);
  // Page 0 (LRU) was evicted; accessing it again misses.
  AccessPage(ex_, pool, 1, 0, false, nullptr, out);
  ex_.Run();
  EXPECT_FALSE(out[5].hit);
}

TEST_F(BufferPoolTest, TouchingPageProtectsItFromEviction) {
  BufferPool pool(ex_, SmallPool(), &ctl_, 1);
  std::vector<PageAccess> out;
  for (uint64_t p = 0; p < 4; p++) {
    AccessPage(ex_, pool, 1, p, false, nullptr, out);
    ex_.Run();
  }
  // Re-touch page 0 so page 1 becomes the LRU victim.
  AccessPage(ex_, pool, 1, 0, false, nullptr, out);
  ex_.Run();
  AccessPage(ex_, pool, 1, 99, false, nullptr, out);
  ex_.Run();
  AccessPage(ex_, pool, 1, 0, false, nullptr, out);
  ex_.Run();
  EXPECT_TRUE(out.back().hit);  // page 0 survived
}

TEST_F(BufferPoolTest, DirtyEvictionCostsMore) {
  BufferPool pool(ex_, SmallPool(), &ctl_, 1);
  std::vector<PageAccess> out;
  // Fill with dirty pages.
  for (uint64_t p = 0; p < 4; p++) {
    AccessPage(ex_, pool, 1, p, /*write=*/true, nullptr, out);
    ex_.Run();
  }
  AccessPage(ex_, pool, 1, 50, false, nullptr, out);
  ex_.Run();
  EXPECT_TRUE(out[4].evicted);
  EXPECT_EQ(out[4].stall, 200u);  // dirty_evict_cost
}

TEST_F(BufferPoolTest, EvictionAttributedToPageOwner) {
  BufferPool pool(ex_, SmallPool(), &ctl_, 1);
  std::vector<PageAccess> out;
  for (uint64_t p = 0; p < 4; p++) {
    AccessPage(ex_, pool, 10, p, false, nullptr, out);  // owner 10 loads the pool
    ex_.Run();
  }
  AccessPage(ex_, pool, 20, 99, false, nullptr, out);  // task 20 evicts
  ex_.Run();
  // freeResource charged to the page's owner (Fig 8 semantics).
  EXPECT_EQ(ctl_.CountFor(TraceEventKind::kFree, 10), 1);
  // The evicting task gets the wait bracket and the get for the new page.
  EXPECT_EQ(ctl_.CountFor(TraceEventKind::kWaitBegin, 20), 1);
  EXPECT_EQ(ctl_.CountFor(TraceEventKind::kGet, 20), 1);
}

TEST_F(BufferPoolTest, ResidentOwnedByTracksOwners) {
  BufferPool pool(ex_, SmallPool(), &ctl_, 1);
  std::vector<PageAccess> out;
  AccessPage(ex_, pool, 10, 1, false, nullptr, out);
  ex_.Run();
  AccessPage(ex_, pool, 20, 2, false, nullptr, out);
  ex_.Run();
  EXPECT_EQ(pool.ResidentOwnedBy(10), 1u);
  EXPECT_EQ(pool.ResidentOwnedBy(20), 1u);
  EXPECT_EQ(pool.ResidentOwnedBy(30), 0u);
}

TEST_F(BufferPoolTest, CancelledAccessReturnsCancelled) {
  BufferPool pool(ex_, SmallPool(), &ctl_, 1);
  CancelToken token(ex_);
  token.Cancel();
  std::vector<PageAccess> out;
  AccessPage(ex_, pool, 1, 7, false, &token, out);
  ex_.Run();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].status.IsCancelled());
}

TEST_F(BufferPoolTest, DeviceBackedMissesShareTheDisk) {
  IoDevice disk(ex_, 1e6);  // 1 MB/s
  BufferPoolOptions opt = SmallPool();
  opt.device = &disk;
  opt.page_bytes = 100000;  // 0.1 s per page read
  BufferPool pool(ex_, opt, &ctl_, 1);
  std::vector<PageAccess> out;
  AccessPage(ex_, pool, 1, 1, false, nullptr, out);
  AccessPage(ex_, pool, 2, 2, false, nullptr, out);
  ex_.Run();
  ASSERT_EQ(out.size(), 2u);
  // Two misses serialized through the device: 0.1 s + 0.1 s.
  EXPECT_EQ(ex_.now(), Millis(200));
}

TEST_F(BufferPoolTest, AdmissionGateSerializesMisses) {
  BufferPoolOptions opt = SmallPool();
  opt.admission_limit = 1;  // one evict-and-read section at a time
  BufferPool pool(ex_, opt, &ctl_, 1);
  std::vector<PageAccess> out;
  AccessPage(ex_, pool, 1, 1, false, nullptr, out);
  AccessPage(ex_, pool, 2, 2, false, nullptr, out);
  ex_.Run();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out[0].status.ok());
  EXPECT_TRUE(out[1].status.ok());
  // Two 100 us miss reads serialized by the gate instead of overlapping.
  EXPECT_EQ(ex_.now(), 200u);
  EXPECT_EQ(pool.admission_aborts(), 0u);
}

TEST_F(BufferPoolTest, CancelAbortsMissParkedAtAdmission) {
  BufferPoolOptions opt = SmallPool();
  opt.admission_limit = 1;
  BufferPool pool(ex_, opt, &ctl_, 1);
  CancelToken token(ex_);
  std::vector<PageAccess> out;
  AccessPage(ex_, pool, 1, 1, false, nullptr, out);   // holds the gate [0,100)
  AccessPage(ex_, pool, 2, 2, false, &token, out);    // parked at admission
  ex_.CallAt(20, [&] { token.Cancel(); });
  ex_.Run();
  ASSERT_EQ(out.size(), 2u);
  // Completion order: the abort resolves at t=20, the gate holder at t=100.
  // Aborted in place — without the abortable gate the second access would
  // have been admitted at t=100 and only then observed the cancellation.
  EXPECT_TRUE(out[0].status.IsCancelled());
  EXPECT_TRUE(out[1].status.ok());
  EXPECT_EQ(pool.admission_aborts(), 1u);
  // The slot was never taken, so the gate is immediately reusable.
  AccessPage(ex_, pool, 3, 3, false, nullptr, out);
  ex_.Run();
  EXPECT_TRUE(out[2].status.ok());
}

TEST_F(BufferPoolTest, ConcurrentMissesOnSamePageDoNotDoubleInsert) {
  BufferPool pool(ex_, SmallPool(), &ctl_, 1);
  std::vector<PageAccess> out;
  AccessPage(ex_, pool, 1, 7, false, nullptr, out);
  AccessPage(ex_, pool, 2, 7, false, nullptr, out);
  ex_.Run();
  EXPECT_EQ(pool.resident_pages(), 1u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out[0].status.ok());
  EXPECT_TRUE(out[1].status.ok());
}

// ---------------------------------------------------------------------------
// Model check: BufferPool against a node-based reference LRU.

// The pool's algorithm over a std::list LRU and a page-keyed
// std::unordered_map, with the same awaits in the same order. It also counts
// the paths a random script must reach.
class ReferencePool {
 public:
  ReferencePool(Executor& executor, const BufferPoolOptions& options, OverloadController* tracer,
                ResourceId resource)
      : executor_(executor), options_(options), tracer_(tracer), resource_(resource) {
    if (options_.admission_limit > 0) {
      admission_ = std::make_unique<SimSemaphore>(executor_, options_.admission_limit);
    }
  }

  Task<PageAccess> Access(uint64_t key, uint64_t page_id, bool write, CancelToken* token) {
    PageAccess out;
    if (token != nullptr && token->cancelled()) {
      out.status = Status::Cancelled();
      co_return out;
    }
    if (auto it = frames_.find(page_id); it != frames_.end()) {
      hits_++;
      out.hit = true;
      Touch(it->second, page_id);
      it->second.dirty = it->second.dirty || write;
      co_await Delay{executor_, options_.hit_cost};
      out.status = Status::Ok();
      co_return out;
    }
    misses_++;
    if (admission_ != nullptr) {
      Status admitted = co_await admission_->Acquire(1, token);
      if (!admitted.ok()) {
        admission_aborts_++;
        out.status = std::move(admitted);
        co_return out;
      }
    }
    if (frames_.size() >= options_.capacity_pages && !lru_.empty()) {
      auto victim = frames_.find(lru_.back());
      const bool dirty = victim->second.dirty;
      const uint64_t owner = victim->second.owner_key;
      lru_.pop_back();
      frames_.erase(victim);
      evictions_++;
      dirty_evictions_ += dirty ? 1 : 0;
      out.evicted = true;
      out.stall = dirty ? options_.dirty_evict_cost : options_.clean_evict_cost;
      tracer_->OnFree(owner, resource_, 1);
      tracer_->OnWaitBegin(key, resource_);
      co_await Delay{executor_, out.stall};
    }
    co_await Delay{executor_, options_.miss_cost};
    if (out.evicted) {
      tracer_->OnWaitEnd(key, resource_);
    }
    if (admission_ != nullptr) {
      admission_->Release(1);
    }
    if (token != nullptr && token->cancelled()) {
      out.status = Status::Cancelled();
      co_return out;
    }
    if (auto it = frames_.find(page_id); it != frames_.end()) {
      refreshes_++;
      Touch(it->second, page_id);
      it->second.dirty = it->second.dirty || write;
      out.status = Status::Ok();
      co_return out;
    }
    lru_.push_front(page_id);
    frames_.emplace(page_id, Frame{key, write, lru_.begin()});
    tracer_->OnGet(key, resource_, 1);
    out.status = Status::Ok();
    co_return out;
  }

  uint64_t resident_pages() const { return frames_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }
  uint64_t admission_aborts() const { return admission_aborts_; }
  uint64_t ResidentOwnedBy(uint64_t key) const {
    uint64_t n = 0;
    for (const auto& [page, frame] : frames_) {
      n += frame.owner_key == key ? 1 : 0;
    }
    return n;
  }
  uint64_t dirty_evictions() const { return dirty_evictions_; }
  uint64_t refreshes() const { return refreshes_; }

 private:
  struct Frame {
    uint64_t owner_key;
    bool dirty;
    std::list<uint64_t>::iterator lru_pos;
  };

  void Touch(Frame& frame, uint64_t page_id) {
    lru_.erase(frame.lru_pos);
    lru_.push_front(page_id);
    frame.lru_pos = lru_.begin();
  }

  Executor& executor_;
  BufferPoolOptions options_;
  OverloadController* tracer_;
  ResourceId resource_;
  std::unordered_map<uint64_t, Frame> frames_;
  std::list<uint64_t> lru_;  // front = MRU
  std::unique_ptr<SimSemaphore> admission_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t admission_aborts_ = 0;
  uint64_t dirty_evictions_ = 0;
  uint64_t refreshes_ = 0;
};

struct ScriptStep {
  TimeMicros at = 0;
  uint64_t key = 0;
  uint64_t page = 0;
  bool write = false;
  TimeMicros cancel_after = 0;  // 0: never cancelled
};

// Random arrivals over a working set twice the pool's capacity. Some steps
// share a tenant key (so a key owns several pages), some arrive as a twin
// missing on the same page at the same instant, and some are cancelled
// mid-access.
std::vector<ScriptStep> RandomScript(uint64_t seed, int steps) {
  Rng rng(seed);
  std::vector<ScriptStep> script;
  TimeMicros now = 0;
  for (int i = 0; i < steps; i++) {
    ScriptStep step;
    now += rng.NextBounded(60);
    step.at = now;
    step.key = rng.NextBernoulli(0.2) ? 1'000'000 + rng.NextBounded(3)
                                      : static_cast<uint64_t>(script.size()) + 1;
    step.page = rng.NextBounded(12);
    step.write = rng.NextBernoulli(0.3);
    if (rng.NextBernoulli(0.1)) {
      step.cancel_after = 1 + rng.NextBounded(150);
    }
    script.push_back(step);
    if (rng.NextBernoulli(0.15)) {
      ScriptStep twin = step;
      twin.key = static_cast<uint64_t>(script.size()) + 1;
      twin.write = !step.write;
      twin.cancel_after = 0;
      script.push_back(twin);
    }
  }
  return script;
}

struct Observed {
  std::vector<TraceEvent> events;
  std::vector<uint64_t> victim_owners;  // OnFree keys, in eviction order
  std::vector<int> codes;               // per step: status code, -1 if unfinished
  std::vector<bool> hit;
  std::vector<bool> evicted;
  std::vector<TimeMicros> stall;
  std::vector<TimeMicros> done_at;
  std::vector<uint64_t> owned;  // ResidentOwnedBy(step key) after the run
  uint64_t hits = 0, misses = 0, evictions = 0, admission_aborts = 0, resident = 0;
  uint64_t dirty_evictions = 0, refreshes = 0;  // counted by the model only
};

void CountModelPaths(const ReferencePool& model, Observed& obs) {
  obs.dirty_evictions = model.dirty_evictions();
  obs.refreshes = model.refreshes();
}
void CountModelPaths(const BufferPool&, Observed&) {}

template <typename Pool>
Coro ScriptedAccess(Executor& ex, Pool& pool, const ScriptStep& step, CancelToken* token,
                    Observed& obs, size_t i) {
  co_await BindExecutor{ex};
  PageAccess r = co_await pool.Access(step.key, step.page, step.write, token);
  obs.codes[i] = static_cast<int>(r.status.code());
  obs.hit[i] = r.hit;
  obs.evicted[i] = r.evicted;
  obs.stall[i] = r.stall;
  obs.done_at[i] = ex.now();
}

template <typename Pool>
Observed RunScript(const std::vector<ScriptStep>& script, const BufferPoolOptions& opt) {
  Executor ex;
  RecordingController ctl;
  Pool pool(ex, opt, &ctl, 1);
  std::deque<CancelToken> tokens;
  Observed obs;
  const size_t n = script.size();
  obs.codes.assign(n, -1);
  obs.hit.assign(n, false);
  obs.evicted.assign(n, false);
  obs.stall.assign(n, 0);
  obs.done_at.assign(n, 0);
  for (size_t i = 0; i < n; i++) {
    const ScriptStep& step = script[i];
    CancelToken* token = &tokens.emplace_back(ex);
    ex.CallAt(step.at, [&, token, i] { ScriptedAccess(ex, pool, script[i], token, obs, i); });
    if (step.cancel_after > 0) {
      ex.CallAt(step.at + step.cancel_after, [token] { token->Cancel(); });
    }
  }
  ex.Run();
  obs.events = ctl.events;
  for (const TraceEvent& e : ctl.events) {
    if (e.kind == TraceEventKind::kFree) {
      obs.victim_owners.push_back(e.key);
    }
  }
  for (const ScriptStep& step : script) {
    obs.owned.push_back(pool.ResidentOwnedBy(step.key));
  }
  obs.hits = pool.hits();
  obs.misses = pool.misses();
  obs.evictions = pool.evictions();
  obs.admission_aborts = pool.admission_aborts();
  obs.resident = pool.resident_pages();
  CountModelPaths(pool, obs);
  return obs;
}

TEST(BufferPoolModelTest, MatchesReferenceLruOnRandomScripts) {
  for (uint64_t admission_limit : {uint64_t{0}, uint64_t{2}}) {
    for (uint64_t seed : {1, 2, 3, 4}) {
      SCOPED_TRACE(testing::Message() << "admission_limit=" << admission_limit
                                      << " seed=" << seed);
      BufferPoolOptions opt;
      opt.capacity_pages = 6;
      opt.hit_cost = 2;
      opt.miss_cost = 80;
      opt.clean_evict_cost = 10;
      opt.dirty_evict_cost = 250;
      opt.admission_limit = admission_limit;
      const std::vector<ScriptStep> script = RandomScript(seed, 400);

      const Observed want = RunScript<ReferencePool>(script, opt);
      const Observed got = RunScript<BufferPool>(script, opt);

      // The script reaches every path it is meant to.
      EXPECT_GT(want.hits, 0u);
      EXPECT_GT(want.evictions, want.dirty_evictions);
      EXPECT_GT(want.dirty_evictions, 0u);
      EXPECT_GT(want.refreshes, 0u);
      if (admission_limit > 0) {
        EXPECT_GT(want.admission_aborts, 0u);
      }

      EXPECT_EQ(got.hits, want.hits);
      EXPECT_EQ(got.misses, want.misses);
      EXPECT_EQ(got.evictions, want.evictions);
      EXPECT_EQ(got.admission_aborts, want.admission_aborts);
      EXPECT_EQ(got.resident, want.resident);
      EXPECT_EQ(got.victim_owners, want.victim_owners);
      EXPECT_EQ(got.owned, want.owned);
      EXPECT_EQ(got.codes, want.codes);
      EXPECT_EQ(got.hit, want.hit);
      EXPECT_EQ(got.evicted, want.evicted);
      EXPECT_EQ(got.stall, want.stall);
      EXPECT_EQ(got.done_at, want.done_at);
      ASSERT_EQ(got.events.size(), want.events.size());
      for (size_t i = 0; i < got.events.size(); i++) {
        SCOPED_TRACE(testing::Message() << "event " << i);
        EXPECT_EQ(got.events[i].kind, want.events[i].kind);
        EXPECT_EQ(got.events[i].key, want.events[i].key);
        EXPECT_EQ(got.events[i].resource, want.events[i].resource);
        EXPECT_EQ(got.events[i].a, want.events[i].a);
      }
    }
  }
}

}  // namespace
}  // namespace atropos
