// Application-level tests: request handling, cancellation initiators,
// throttling, and control-surface actions across the four simulated servers.

#include <gtest/gtest.h>

#include "src/apps/minidb.h"
#include "src/apps/minikv.h"
#include "src/apps/minisearch.h"
#include "src/apps/miniweb.h"
#include "src/testing/recording_controller.h"

namespace atropos {
namespace {

struct Done {
  std::vector<std::pair<uint64_t, OutcomeKind>> outcomes;
  CompletionFn Fn() {
    return [this](const AppRequest& req, OutcomeKind kind) {
      outcomes.emplace_back(req.key, kind);
    };
  }
  OutcomeKind Of(uint64_t key) const {
    for (const auto& [k, o] : outcomes) {
      if (k == key) {
        return o;
      }
    }
    return OutcomeKind::kRejected;
  }
  bool Has(uint64_t key) const {
    for (const auto& [k, o] : outcomes) {
      if (k == key) {
        return true;
      }
    }
    return false;
  }
};

AppRequest Req(uint64_t key, int type, uint64_t arg = 0, bool non_cancellable = false) {
  AppRequest r;
  r.key = key;
  r.type = type;
  r.arg = arg;
  r.non_cancellable = non_cancellable;
  return r;
}

// --------------------------------------------------------------------------
// MiniDb

class MiniDbTest : public ::testing::Test {
 protected:
  Executor ex_;
  RecordingController ctl_;
  Done done_;
};

TEST_F(MiniDbTest, PointSelectCompletesThroughAllLayers) {
  MiniDbOptions opt;
  opt.use_tickets = true;
  opt.use_table_locks = true;
  opt.use_buffer_pool = true;
  MiniDb db(ex_, &ctl_, opt);
  db.Start(Req(1, kDbPointSelect), done_.Fn());
  ex_.Run();
  EXPECT_EQ(done_.Of(1), OutcomeKind::kCompleted);
}

TEST_F(MiniDbTest, BackupConvoyBlocksVictims) {
  MiniDbOptions opt;
  opt.use_table_locks = true;
  opt.scan_rows = 10'000'000;  // 4 s scan
  MiniDb db(ex_, &ctl_, opt);
  db.Start(Req(1, kDbTableScan, 2), done_.Fn());
  ex_.CallAt(Millis(10), [&] { db.Start(Req(2, kDbBackup), done_.Fn()); });
  ex_.CallAt(Millis(20), [&] { db.Start(Req(3, kDbPointSelect, 0), done_.Fn()); });
  ex_.Run(Seconds(1));
  // The victim on table 0 is convoyed behind the backup's held X lock.
  EXPECT_FALSE(done_.Has(3));
  ex_.Run();
  EXPECT_EQ(done_.Of(3), OutcomeKind::kCompleted);
}

TEST_F(MiniDbTest, CancelInitiatorAbortsScanAtCheckpoint) {
  MiniDbOptions opt;
  opt.use_table_locks = true;
  opt.scan_rows = 10'000'000;
  MiniDb db(ex_, &ctl_, opt);
  db.Start(Req(1, kDbTableScan, 2), done_.Fn());
  ex_.CallAt(Millis(50), [&] { db.Cancel(1); });
  ex_.Run();
  EXPECT_EQ(done_.Of(1), OutcomeKind::kCancelled);
  EXPECT_LT(ex_.now(), Millis(100));
}

TEST_F(MiniDbTest, NonCancellableRequestIgnoresInitiator) {
  MiniDbOptions opt;
  opt.use_table_locks = true;
  opt.scan_rows = 1'000'000;  // 0.4 s
  MiniDb db(ex_, &ctl_, opt);
  db.Start(Req(1, kDbTableScan, 2, /*non_cancellable=*/true), done_.Fn());
  ex_.CallAt(Millis(50), [&] { db.Cancel(1); });
  ex_.Run();
  EXPECT_EQ(done_.Of(1), OutcomeKind::kCompleted);
}

TEST_F(MiniDbTest, VictimDropReasonMapsToDroppedOutcome) {
  MiniDbOptions opt;
  opt.use_table_locks = true;
  opt.scan_rows = 10'000'000;
  MiniDb db(ex_, &ctl_, opt);
  db.Start(Req(1, kDbTableScan, 2), done_.Fn());
  ex_.CallAt(Millis(50), [&] { db.CancelTask(1, CancelReason::kVictimDrop); });
  ex_.Run();
  EXPECT_EQ(done_.Of(1), OutcomeKind::kDropped);
}

TEST_F(MiniDbTest, ThrottleSlowsARequest) {
  MiniDbOptions opt;
  opt.use_tickets = true;
  opt.slow_query_cost = 100'000;  // 100 ms
  MiniDb db(ex_, &ctl_, opt);
  db.Start(Req(1, kDbSlowQuery), done_.Fn());
  db.ThrottleTask(1, 4.0);
  ex_.Run();
  EXPECT_EQ(done_.Of(1), OutcomeKind::kCompleted);
  EXPECT_GE(ex_.now(), 350'000u);  // ~4x slower (first step may pre-date the throttle)
}

TEST_F(MiniDbTest, DumpQueryArgEncodesTableAndPages) {
  MiniDbOptions opt;
  opt.use_buffer_pool = true;
  opt.pool.capacity_pages = 10000;
  opt.pool.miss_cost = 10;
  opt.pool.hit_cost = 1;
  MiniDb db(ex_, &ctl_, opt);
  db.Start(Req(1, kDbDumpQuery, (128ull << 8) | 1), done_.Fn());
  ex_.Run();
  EXPECT_EQ(done_.Of(1), OutcomeKind::kCompleted);
  EXPECT_EQ(db.buffer_pool()->misses(), 128u);
}

TEST_F(MiniDbTest, AlterTableHoldsLockAndPool) {
  MiniDbOptions opt;
  opt.use_table_locks = true;
  opt.use_buffer_pool = true;
  opt.pages_per_table = 64;
  MiniDb db(ex_, &ctl_, opt);
  db.Start(Req(1, kDbAlterTable, 0), done_.Fn());
  ex_.CallAt(10, [&] { db.Start(Req(2, kDbInsert, 0), done_.Fn()); });
  ex_.Run();
  EXPECT_EQ(done_.Of(1), OutcomeKind::kCompleted);
  // The insert waited for the exclusive lock held across the rebuild.
  EXPECT_EQ(ctl_.CountFor(TraceEventKind::kWaitBegin, 2), 1);
}

TEST_F(MiniDbTest, VacuumReportsIoUsage) {
  MiniDbOptions opt;
  opt.use_io = true;
  opt.vacuum_bytes = 16 * 1024 * 1024;
  MiniDb db(ex_, &ctl_, opt);
  db.Start(Req(1, kDbVacuum), done_.Fn());
  ex_.Run();
  EXPECT_EQ(done_.Of(1), OutcomeKind::kCompleted);
  EXPECT_GT(ctl_.CountFor(TraceEventKind::kProgress, 1), 0);
}

TEST_F(MiniDbTest, ShutdownStopsBackgroundTasks) {
  MiniDbOptions opt;
  opt.use_undo = true;
  opt.use_wal = true;
  opt.use_mvcc = true;
  {
    MiniDb db(ex_, &ctl_, opt);
    ex_.Run(Seconds(1));
    db.Shutdown();
  }
  ex_.Run();
  EXPECT_EQ(ex_.live_procs(), 0);  // all background loops exited
}

// --------------------------------------------------------------------------
// MiniWeb

class MiniWebTest : public ::testing::Test {
 protected:
  Executor ex_;
  RecordingController ctl_;
  Done done_;
};

TEST_F(MiniWebTest, StaticRequestsComplete) {
  MiniWebOptions opt;
  MiniWeb web(ex_, &ctl_, opt);
  web.Start(Req(1, kWebStatic), done_.Fn());
  ex_.Run();
  EXPECT_EQ(done_.Of(1), OutcomeKind::kCompleted);
}

TEST_F(MiniWebTest, ScriptsExhaustWorkers) {
  MiniWebOptions opt;
  opt.pool.max_clients = 2;
  opt.script_cost = 1'000'000;
  MiniWeb web(ex_, &ctl_, opt);
  web.Start(Req(1, kWebScript), done_.Fn());
  web.Start(Req(2, kWebScript), done_.Fn());
  web.Start(Req(3, kWebStatic), done_.Fn());
  ex_.Run(Millis(500));
  EXPECT_FALSE(done_.Has(3));  // starved behind the scripts
  ex_.Run();
  EXPECT_EQ(done_.Of(3), OutcomeKind::kCompleted);
}

TEST_F(MiniWebTest, ThreadCancelFlagGatesScriptCancellation) {
  MiniWebOptions opt;
  opt.allow_thread_cancel = false;  // Apache default: scripts can't be killed
  opt.script_cost = 200'000;
  MiniWeb web(ex_, &ctl_, opt);
  web.Start(Req(1, kWebScript), done_.Fn());
  ex_.CallAt(Millis(10), [&] { web.Cancel(1); });
  ex_.Run();
  EXPECT_EQ(done_.Of(1), OutcomeKind::kCompleted);  // cancel ignored

  MiniWebOptions opt2;
  opt2.allow_thread_cancel = true;  // §5.2: pthread_cancel-style flag enabled
  opt2.script_cost = 200'000;
  MiniWeb web2(ex_, &ctl_, opt2);
  web2.Start(Req(2, kWebScript), done_.Fn());
  ex_.CallAfter(Millis(10), [&] { web2.Cancel(2); });
  ex_.Run();
  EXPECT_EQ(done_.Of(2), OutcomeKind::kCancelled);
}

TEST_F(MiniWebTest, DarcReservationCapsScriptConcurrency) {
  MiniWebOptions opt;
  opt.pool.max_clients = 4;
  opt.script_cost = 100'000;
  MiniWeb web(ex_, &ctl_, opt);
  web.SetTypeReservation(kWebStatic, 3);  // scripts capped at 1
  web.Start(Req(1, kWebScript), done_.Fn());
  web.Start(Req(2, kWebScript), done_.Fn());
  ex_.Run();
  // The second script serialized behind the first (cap 1): 200 ms total.
  EXPECT_GE(ex_.now(), 200'000u);
}

// --------------------------------------------------------------------------
// MiniSearch

class MiniSearchTest : public ::testing::Test {
 protected:
  Executor ex_;
  RecordingController ctl_;
  Done done_;
};

TEST_F(MiniSearchTest, QueryRunsThroughEnabledLayers) {
  MiniSearchOptions opt;
  opt.use_cache = true;
  opt.use_heap = true;
  opt.use_cpu = true;
  opt.use_queue = true;
  MiniSearch search(ex_, &ctl_, opt);
  search.Start(Req(1, kSearchQuery), done_.Fn());
  ex_.Run();
  EXPECT_EQ(done_.Of(1), OutcomeKind::kCompleted);
  EXPECT_GT(ctl_.CountFor(TraceEventKind::kGet, 1), 0);
  search.Shutdown();
  ex_.Run();
}

TEST_F(MiniSearchTest, BooleanQueryConvoysBehindCommit) {
  MiniSearchOptions opt;
  opt.use_index_lock = true;
  opt.boolean_query_hold = 2'000'000;
  opt.commit_interval = 100'000;
  opt.commit_hold = 10'000;
  MiniSearch search(ex_, &ctl_, opt);
  search.Start(Req(1, kSearchBooleanQuery), done_.Fn());
  ex_.CallAt(200'000, [&] { search.Start(Req(2, kSearchQuery), done_.Fn()); });
  ex_.Run(Seconds(1));
  // The query queued behind the committer's X request behind the boolean.
  EXPECT_FALSE(done_.Has(2));
  search.Shutdown();
  ex_.Run();
  EXPECT_EQ(done_.Of(2), OutcomeKind::kCompleted);
}

TEST_F(MiniSearchTest, AggregationHoldsHeapUntilDone) {
  MiniSearchOptions opt;
  opt.use_heap = true;
  opt.aggregation_alloc_kb = 100'000;
  opt.aggregation_steps = 10;
  opt.aggregation_step_cost = 1000;
  MiniSearch search(ex_, &ctl_, opt);
  search.Start(Req(1, kSearchAggregation), done_.Fn());
  ex_.Run(5000);
  EXPECT_GT(search.heap()->LiveOf(1), 0u);
  ex_.Run();
  EXPECT_EQ(done_.Of(1), OutcomeKind::kCompleted);
  EXPECT_EQ(search.heap()->LiveOf(1), 0u);
}

TEST_F(MiniSearchTest, DocUpdateBlocksSameStripeOnly) {
  MiniSearchOptions opt;
  opt.use_doc_locks = true;
  opt.doc_lock_stripes = 4;
  opt.doc_update_hold = 500'000;
  MiniSearch search(ex_, &ctl_, opt);
  search.Start(Req(1, kSearchDocUpdate, 2), done_.Fn());
  ex_.CallAt(1000, [&] {
    search.Start(Req(2, kSearchDocRead, 2), done_.Fn());  // same stripe
    search.Start(Req(3, kSearchDocRead, 3), done_.Fn());  // different stripe
  });
  ex_.Run(100'000);
  EXPECT_FALSE(done_.Has(2));
  EXPECT_TRUE(done_.Has(3));
  ex_.Run();
  EXPECT_EQ(done_.Of(2), OutcomeKind::kCompleted);
}

TEST_F(MiniSearchTest, CancelLongQueryReleasesCpu) {
  MiniSearchOptions opt;
  opt.use_cpu = true;
  opt.cpu_cores = 1;
  opt.long_query_cpu = 10'000'000;
  MiniSearch search(ex_, &ctl_, opt);
  search.Start(Req(1, kSearchLongQuery), done_.Fn());
  ex_.CallAt(Millis(50), [&] { search.Cancel(1); });
  ex_.Run();
  EXPECT_EQ(done_.Of(1), OutcomeKind::kCancelled);
  EXPECT_LT(ex_.now(), Millis(200));
}

// --------------------------------------------------------------------------
// MiniKv

TEST(MiniKvTest, RangeReadCancellation) {
  Executor ex;
  RecordingController ctl;
  Done done;
  MiniKvOptions opt;
  opt.store.scan_cost_per_key = 100;
  MiniKv kv(ex, &ctl, opt);
  kv.Start(Req(1, kKvRangeRead, 50'000), done.Fn());
  kv.Start(Req(2, kKvPointOp), done.Fn());
  ex.CallAt(Millis(100), [&] { kv.Cancel(1); });
  ex.Run();
  EXPECT_EQ(done.Of(1), OutcomeKind::kCancelled);
  EXPECT_EQ(done.Of(2), OutcomeKind::kCompleted);
  EXPECT_LT(ex.now(), Millis(200));
}

TEST(MiniKvTest, PartiesShareLimitsAClass) {
  Executor ex;
  RecordingController ctl;
  Done done;
  MiniKvOptions opt;
  opt.store.point_op_cost = 1000;
  MiniKv kv(ex, &ctl, opt);
  kv.SetClientShare(1, 0.01);  // class 1 throttled to 1 slot
  AppRequest a = Req(1, kKvPointOp);
  a.client_class = 1;
  AppRequest b = Req(2, kKvPointOp);
  b.client_class = 1;
  kv.Start(a, done.Fn());
  kv.Start(b, done.Fn());
  ex.Run();
  EXPECT_EQ(done.Of(1), OutcomeKind::kCompleted);
  EXPECT_EQ(done.Of(2), OutcomeKind::kCompleted);
  EXPECT_GE(ex.now(), 2000u);  // serialized by the class gate
}

}  // namespace
}  // namespace atropos
