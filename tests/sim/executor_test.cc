#include "src/sim/executor.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <set>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/coro.h"

namespace atropos {
namespace {

TEST(ExecutorTest, CallbacksFireInTimeOrder) {
  Executor ex;
  std::vector<int> order;
  ex.CallAt(300, [&] { order.push_back(3); });
  ex.CallAt(100, [&] { order.push_back(1); });
  ex.CallAt(200, [&] { order.push_back(2); });
  ex.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(ex.now(), 300u);
}

TEST(ExecutorTest, TiesFireInSubmissionOrder) {
  Executor ex;
  std::vector<int> order;
  for (int i = 0; i < 10; i++) {
    ex.CallAt(50, [&order, i] { order.push_back(i); });
  }
  ex.Run();
  for (int i = 0; i < 10; i++) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(ExecutorTest, RunUntilStopsAtHorizonAndAdvancesClock) {
  Executor ex;
  int fired = 0;
  ex.CallAt(100, [&] { fired++; });
  ex.CallAt(900, [&] { fired++; });
  ex.Run(500);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(ex.now(), 500u);
  EXPECT_TRUE(ex.has_pending());
  ex.Run();
  EXPECT_EQ(fired, 2);
}

TEST(ExecutorTest, EventsExactlyAtHorizonFire) {
  Executor ex;
  bool fired = false;
  ex.CallAt(500, [&] { fired = true; });
  ex.Run(500);
  EXPECT_TRUE(fired);
}

TEST(ExecutorTest, ScheduledInPastClampsToNow) {
  Executor ex;
  ex.CallAt(1000, [&] {
    // From inside an event at t=1000, scheduling "at 500" runs at 1000.
    ex.CallAt(500, [&] { EXPECT_EQ(ex.now(), 1000u); });
  });
  ex.Run();
}

TEST(ExecutorTest, NestedSchedulingWorks) {
  Executor ex;
  int depth = 0;
  std::function<void()> recur = [&] {
    if (++depth < 5) {
      ex.CallAfter(10, recur);
    }
  };
  ex.CallAt(0, recur);
  ex.Run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(ex.now(), 40u);
}

Coro SimpleProcess(Executor& ex, std::vector<TimeMicros>& times) {
  co_await BindExecutor{ex};
  times.push_back(ex.now());
  co_await Delay{ex, 100};
  times.push_back(ex.now());
  co_await Delay{ex, 250};
  times.push_back(ex.now());
}

TEST(CoroTest, DelaysAdvanceVirtualTime) {
  Executor ex;
  std::vector<TimeMicros> times;
  SimpleProcess(ex, times);
  ex.Run();
  EXPECT_EQ(times, (std::vector<TimeMicros>{0, 100, 350}));
  EXPECT_EQ(ex.live_procs(), 0);
}

Coro CountingProcess(Executor& ex, int& running) {
  co_await BindExecutor{ex};
  running++;
  co_await Delay{ex, 10};
  running--;
}

TEST(CoroTest, LiveProcAccountingTracksCompletion) {
  Executor ex;
  int running = 0;
  CountingProcess(ex, running);
  CountingProcess(ex, running);
  EXPECT_EQ(ex.live_procs(), 2);
  ex.Run();
  EXPECT_EQ(running, 0);
  EXPECT_EQ(ex.live_procs(), 0);
}

Coro YieldingProcess(Executor& ex, std::vector<int>& order, int id) {
  co_await BindExecutor{ex};
  order.push_back(id);
  co_await YieldNow{ex};
  order.push_back(id + 100);
}

TEST(CoroTest, YieldNowPreservesFifoFairness) {
  Executor ex;
  std::vector<int> order;
  YieldingProcess(ex, order, 1);
  YieldingProcess(ex, order, 2);
  ex.Run();
  // Both run their first half eagerly, then resume in spawn order.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 101, 102}));
}

Coro ReservedProcess(Executor& ex, TimeMicros t, uint64_t seq, std::vector<int>& order, int id) {
  co_await BindExecutor{ex};
  co_await ResumeAtReserved{ex, t, seq};
  order.push_back(id);
}

TEST(ExecutorTest, ReserveSeqsHandsOutConsecutiveBlocks) {
  Executor ex;
  uint64_t a = ex.ReserveSeqs(3);
  uint64_t b = ex.ReserveSeqs(0);
  uint64_t c = ex.ReserveSeqs(2);
  EXPECT_EQ(b, a + 3);
  EXPECT_EQ(c, a + 3);
  EXPECT_FALSE(ex.has_pending());
}

TEST(ExecutorTest, ReservedSeqOrdersAsIfPushedAtReservation) {
  Executor ex;
  std::vector<int> order;
  ex.CallAt(100, [&] { order.push_back(1); });
  uint64_t seq = ex.ReserveSeqs(1);
  ex.CallAt(100, [&] { order.push_back(3); });
  // Pushed long after the reservation (from an event at t=50), the reserved
  // event still sits between the pushes made before and after reserving.
  ex.CallAt(50, [&] { ReservedProcess(ex, 100, seq, order, 2); });
  ex.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(ex.live_procs(), 0);
}

Coro WakeAt(Executor& ex, TimeMicros t, std::vector<int>& order, int id) {
  co_await BindExecutor{ex};
  co_await Delay{ex, t - ex.now()};
  order.push_back(id);
}

// Callbacks and wakes sit in separate heaps; a tie on time is broken by the
// seq, which both draw from one counter, whichever queue was pushed first.
TEST(ExecutorTest, CallbackAndWakeTiedOnTimeFireInSeqOrder) {
  {
    Executor ex;
    std::vector<int> order;
    ex.CallAt(100, [&] { order.push_back(1); });
    WakeAt(ex, 100, order, 2);
    ex.CallAt(100, [&] { order.push_back(3); });
    ex.Run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  }
  {
    Executor ex;
    std::vector<int> order;
    WakeAt(ex, 100, order, 1);
    ex.CallAt(100, [&] { order.push_back(2); });
    WakeAt(ex, 100, order, 3);
    ex.Run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(ex.live_procs(), 0);
  }
}

TEST(ExecutorTest, RunUntilLeavesTheQueuePastTheHorizon) {
  for (bool wake_first : {true, false}) {
    Executor ex;
    std::vector<int> order;
    if (wake_first) {
      WakeAt(ex, 100, order, 1);
      ex.CallAt(900, [&] { order.push_back(2); });
    } else {
      ex.CallAt(100, [&] { order.push_back(1); });
      WakeAt(ex, 900, order, 2);
    }
    EXPECT_EQ(ex.Run(500), 1u);
    EXPECT_EQ(order, (std::vector<int>{1}));
    EXPECT_EQ(ex.now(), 500u);
    EXPECT_EQ(ex.pending_count(), 1u);
    EXPECT_EQ(ex.Run(), 1u);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(ex.now(), 900u);
    EXPECT_FALSE(ex.has_pending());
  }
}

// Differential test: random pushes (fresh and reserved seqs, many tied
// times, some from inside firing events) interleaved with Run(until) steps,
// checked against a std::set model of (time, seq) keys. Every firing event
// must be the model's minimum.
class OrderModel {
 public:
  using Key = std::pair<TimeMicros, uint64_t>;

  explicit OrderModel(uint64_t seed) : rng_(seed) {}

  void Step() {
    switch (rng_.NextBounded(10)) {
      case 0:
      case 1:
      case 2:
        PushCallback(/*may_nest=*/true);
        break;
      case 3:
      case 4:
        PushCoroutine(Fresh(), /*reserved=*/false);
        break;
      case 5:
        Reserve();
        break;
      case 6:
      case 7:
        if (!reserved_.empty()) {
          size_t i = rng_.NextBounded(reserved_.size());
          uint64_t seq = reserved_[i];
          reserved_.erase(reserved_.begin() + static_cast<std::ptrdiff_t>(i));
          PushCoroutine(seq, /*reserved=*/true);
        }
        break;
      default:
        RunUntil(ex_.now() + rng_.NextBounded(12));
        break;
    }
  }

  void RunUntil(TimeMicros until) {
    ex_.Run(until);
    if (!model_.empty()) {
      EXPECT_GT(model_.begin()->first, until);
    }
  }

  void Drain() { ex_.Run(); }

  Executor& ex() { return ex_; }
  const std::set<Key>& model() const { return model_; }
  int fired() const { return fired_; }
  int pushed() const { return pushed_; }
  int mismatches() const { return mismatches_; }

 private:
  uint64_t Fresh() { return next_seq_++; }

  void Reserve() {
    size_t n = 1 + rng_.NextBounded(4);
    uint64_t base = ex_.ReserveSeqs(n);
    EXPECT_EQ(base, next_seq_);
    for (size_t i = 0; i < n; i++) {
      reserved_.push_back(base + i);
    }
    next_seq_ += n;
  }

  // A time at or after now whose (time, seq) key has not already been passed.
  TimeMicros PickTime(uint64_t seq) {
    TimeMicros t = ex_.now() + rng_.NextBounded(8);
    if (Key{t, seq} < last_fired_) {
      t = ex_.now() + 1;
    }
    return t;
  }

  void PushCallback(bool may_nest) {
    uint64_t seq = Fresh();
    TimeMicros t = PickTime(seq);
    bool nest = may_nest && rng_.NextBounded(4) == 0;
    Expect(t, seq);
    ex_.CallAt(t, [this, seq, nest] {
      Fired(seq);
      if (nest) {
        PushCallback(/*may_nest=*/false);
      }
    });
  }

  void PushCoroutine(uint64_t seq, bool reserved) {
    TimeMicros t = PickTime(seq);
    Expect(t, seq);
    Waiter(t, seq, reserved);
  }

  Coro Waiter(TimeMicros t, uint64_t seq, bool reserved) {
    co_await BindExecutor{ex_};
    if (reserved) {
      co_await ResumeAtReserved{ex_, t, seq};
    } else {
      co_await Delay{ex_, t - ex_.now()};
    }
    Fired(seq);
  }

  void Expect(TimeMicros t, uint64_t seq) {
    model_.insert(Key{t, seq});
    pushed_++;
  }

  void Fired(uint64_t seq) {
    Key key{ex_.now(), seq};
    if (model_.empty() || *model_.begin() != key) {
      mismatches_++;
      model_.erase(key);
    } else {
      model_.erase(model_.begin());
    }
    last_fired_ = key;
    fired_++;
  }

  Executor ex_;
  Rng rng_;
  std::set<Key> model_;
  std::vector<uint64_t> reserved_;
  uint64_t next_seq_ = 0;
  Key last_fired_{0, 0};
  int pushed_ = 0;
  int fired_ = 0;
  int mismatches_ = 0;
};

TEST(ExecutorTest, FiringOrderMatchesTimeSeqModel) {
  OrderModel m(/*seed=*/7);
  for (int i = 0; i < 10'000; i++) {
    m.Step();
  }
  m.Drain();
  EXPECT_EQ(m.mismatches(), 0);
  EXPECT_TRUE(m.model().empty());
  EXPECT_EQ(m.fired(), m.pushed());
  EXPECT_GT(m.fired(), 5'000);
  EXPECT_FALSE(m.ex().has_pending());
  EXPECT_EQ(m.ex().live_procs(), 0);
}

}  // namespace
}  // namespace atropos
