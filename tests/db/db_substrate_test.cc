// Tests for the lock manager, WAL, undo log, and MVCC substrate pieces.

#include <gtest/gtest.h>

#include "src/db/lock_manager.h"
#include "src/db/mvcc.h"
#include "src/db/undo_log.h"
#include "src/db/wal.h"
#include "src/sim/coro.h"
#include "src/testing/recording_controller.h"

namespace atropos {
namespace {

// --------------------------------------------------------------------------
// TableLockManager

Coro RunBackup(Executor& ex, TableLockManager& locks, uint64_t key, CancelToken* token,
               TimeMicros hold, std::vector<std::pair<TimeMicros, Status>>& log) {
  co_await BindExecutor{ex};
  int acquired = 0;
  Status s = co_await locks.AcquireAllExclusive(key, token, &acquired);
  log.emplace_back(ex.now(), s);
  if (!s.ok()) {
    locks.ReleaseAllExclusive(key, acquired);
    co_return;
  }
  co_await Delay{ex, hold};
  locks.ReleaseAllExclusive(key, acquired);
}

Coro HoldShared(Executor& ex, TableLockManager& locks, int table, uint64_t key, TimeMicros hold,
                std::vector<std::pair<TimeMicros, Status>>& log) {
  co_await BindExecutor{ex};
  Status s = co_await locks.table(table).AcquireShared(key, nullptr);
  log.emplace_back(ex.now(), s);
  if (s.ok()) {
    co_await Delay{ex, hold};
    locks.table(table).ReleaseShared(key);
  }
}

TEST(TableLockManagerTest, BackupAcquiresAllTablesInOrder) {
  Executor ex;
  RecordingController ctl;
  TableLockManager locks(ex, 3, &ctl, 1);
  std::vector<std::pair<TimeMicros, Status>> log;
  RunBackup(ex, locks, 100, nullptr, 50, log);
  ex.Run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_TRUE(log[0].second.ok());
  EXPECT_EQ(ctl.CountFor(TraceEventKind::kGet, 100), 3);
  EXPECT_EQ(ctl.CountFor(TraceEventKind::kFree, 100), 3);
}

TEST(TableLockManagerTest, BackupBlockedMidwayHoldsEarlierTables) {
  Executor ex;
  RecordingController ctl;
  TableLockManager locks(ex, 3, &ctl, 1);
  std::vector<std::pair<TimeMicros, Status>> scan_log;
  std::vector<std::pair<TimeMicros, Status>> backup_log;
  std::vector<std::pair<TimeMicros, Status>> victim_log;
  HoldShared(ex, locks, 1, 1, 1000, scan_log);    // scan holds table 1
  RunBackup(ex, locks, 2, nullptr, 10, backup_log);  // blocks at table 1, holds table 0
  HoldShared(ex, locks, 0, 3, 10, victim_log);    // convoyed behind backup's X on table 0
  ex.Run();
  ASSERT_EQ(backup_log.size(), 1u);
  EXPECT_EQ(backup_log[0].first, 1000u);  // waited for the scan
  ASSERT_EQ(victim_log.size(), 1u);
  EXPECT_EQ(victim_log[0].first, 1010u);  // blocked until the backup finished
}

TEST(TableLockManagerTest, CancellingBlockedBackupReleasesHeldTables) {
  Executor ex;
  RecordingController ctl;
  TableLockManager locks(ex, 3, &ctl, 1);
  CancelToken token(ex);
  std::vector<std::pair<TimeMicros, Status>> scan_log;
  std::vector<std::pair<TimeMicros, Status>> backup_log;
  std::vector<std::pair<TimeMicros, Status>> victim_log;
  HoldShared(ex, locks, 1, 1, 1000, scan_log);
  RunBackup(ex, locks, 2, &token, 10, backup_log);
  HoldShared(ex, locks, 0, 3, 10, victim_log);
  ex.CallAt(200, [&] { token.Cancel(); });
  ex.Run();
  ASSERT_EQ(backup_log.size(), 1u);
  EXPECT_TRUE(backup_log[0].second.IsCancelled());
  // The victim on table 0 proceeds right after the cancelled backup's cleanup.
  ASSERT_EQ(victim_log.size(), 1u);
  EXPECT_EQ(victim_log[0].first, 200u);
}

// --------------------------------------------------------------------------
// WriteAheadLog

Coro CommitOne(Executor& ex, WriteAheadLog& wal, uint64_t key, uint64_t records,
               std::vector<std::pair<TimeMicros, Status>>& log) {
  co_await BindExecutor{ex};
  Status s = co_await wal.AppendAndCommit(key, records, nullptr);
  log.emplace_back(ex.now(), s);
}

TEST(WriteAheadLogTest, GroupCommitFlushesBatch) {
  Executor ex;
  RecordingController ctl;
  WalOptions opt;
  opt.flush_interval = 1000;
  opt.flush_base_cost = 100;
  opt.flush_per_record = 10;
  WriteAheadLog wal(ex, opt, &ctl, 1);
  CancelToken stop(ex);
  wal.StartFlusher(999, &stop);
  std::vector<std::pair<TimeMicros, Status>> log;
  CommitOne(ex, wal, 1, 1, log);
  CommitOne(ex, wal, 2, 1, log);
  ex.Run(Millis(5));
  stop.Cancel();
  ex.Run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_TRUE(log[0].second.ok());
  // Both covered by the same group flush at ~1000 + flush cost (120).
  EXPECT_EQ(log[0].first, log[1].first);
  EXPECT_GE(log[0].first, 1100u);
  EXPECT_EQ(wal.flushes(), 1u);
  EXPECT_EQ(wal.pending_records(), 0u);
}

TEST(WriteAheadLogTest, BulkAppendStretchesEveryonesCommit) {
  Executor ex;
  RecordingController ctl;
  WalOptions opt;
  opt.flush_interval = 1000;
  opt.flush_base_cost = 100;
  opt.flush_per_record = 10;
  opt.append_cost = 5;
  WriteAheadLog wal(ex, opt, &ctl, 1);
  CancelToken stop(ex);
  wal.StartFlusher(999, &stop);
  std::vector<std::pair<TimeMicros, Status>> log;
  CommitOne(ex, wal, 1, 1000, log);  // bulk: flush takes 100 + 10*1001
  CommitOne(ex, wal, 2, 1, log);
  ex.Run(Millis(60));
  stop.Cancel();
  ex.Run();
  ASSERT_EQ(log.size(), 2u);
  // The small commit waits for the giant group flush too.
  EXPECT_GE(log[1].first, 10000u);
}

// --------------------------------------------------------------------------
// UndoLog

Coro AppendUndo(Executor& ex, UndoLog& undo, uint64_t key, int n,
                std::vector<TimeMicros>& latencies) {
  co_await BindExecutor{ex};
  for (int i = 0; i < n; i++) {
    TimeMicros start = ex.now();
    co_await undo.Append(key, nullptr);
    latencies.push_back(ex.now() - start);
    co_await Delay{ex, 100};
  }
}

TEST(UndoLogTest, PurgeKeepsBacklogBounded) {
  Executor ex;
  RecordingController ctl;
  UndoLogOptions opt;
  opt.purge_interval = Millis(1);
  opt.purge_batch = 1000;
  UndoLog undo(ex, opt, &ctl, 1);
  CancelToken stop(ex);
  undo.StartPurge(999, &stop);
  std::vector<TimeMicros> latencies;
  AppendUndo(ex, undo, 1, 50, latencies);
  ex.Run(Millis(20));
  stop.Cancel();
  ex.Run();
  EXPECT_LE(undo.backlog(), 1000u);
}

TEST(UndoLogTest, PinBlocksPurgeOfNewerHistory) {
  Executor ex;
  RecordingController ctl;
  UndoLogOptions opt;
  opt.purge_interval = Millis(1);
  opt.purge_batch = 100000;
  UndoLog undo(ex, opt, &ctl, 1);
  CancelToken stop(ex);
  undo.StartPurge(999, &stop);
  undo.PinSnapshot(42);  // pins at record 0
  std::vector<TimeMicros> latencies;
  AppendUndo(ex, undo, 1, 30, latencies);
  ex.Run(Millis(10));
  EXPECT_EQ(undo.backlog(), 30u);  // nothing purgeable past the pin
  undo.UnpinSnapshot(42);
  ex.Run(Millis(15));
  EXPECT_EQ(undo.backlog(), 0u);  // purge caught up after unpin
  stop.Cancel();
  ex.Run();
}

TEST(UndoLogTest, BacklogPenaltySlowsAppends) {
  Executor ex;
  RecordingController ctl;
  UndoLogOptions opt;
  opt.append_base_cost = 10;
  opt.append_cost_per_1k_backlog = 500;
  opt.purge_interval = Seconds(100);  // purge effectively off
  UndoLog undo(ex, opt, &ctl, 1);
  std::vector<TimeMicros> latencies;
  AppendUndo(ex, undo, 1, 2200, latencies);
  ex.Run();
  // Early appends are cheap; appends past 2000 backlog pay 2x500us.
  EXPECT_EQ(latencies.front(), 10u);
  EXPECT_GE(latencies.back(), 1000u);
  // The penalty was reported as waits on the undo resource.
  EXPECT_GT(ctl.CountFor(TraceEventKind::kWaitBegin, 1), 0);
}

TEST(UndoLogTest, PinIsAttributedAsHolding) {
  Executor ex;
  RecordingController ctl;
  UndoLog undo(ex, UndoLogOptions{}, &ctl, 1);
  undo.PinSnapshot(7);
  EXPECT_TRUE(undo.pinned());
  EXPECT_EQ(ctl.CountFor(TraceEventKind::kGet, 7), 1);
  undo.UnpinSnapshot(7);
  EXPECT_FALSE(undo.pinned());
  EXPECT_EQ(ctl.CountFor(TraceEventKind::kFree, 7), 1);
}

// --------------------------------------------------------------------------
// MvccTable

Coro DoBulkWrite(Executor& ex, MvccTable& table, uint64_t key, uint64_t rows, CancelToken* token,
                 std::vector<Status>& out) {
  co_await BindExecutor{ex};
  out.push_back(co_await table.BulkWrite(key, rows, token));
}

Coro DoRead(Executor& ex, MvccTable& table, uint64_t key, std::vector<TimeMicros>& latencies) {
  co_await BindExecutor{ex};
  TimeMicros start = ex.now();
  co_await table.Read(key, nullptr);
  latencies.push_back(ex.now() - start);
}

TEST(MvccTableTest, BulkWriteCreatesDebtThatSlowsReaders) {
  Executor ex;
  RecordingController ctl;
  MvccOptions opt;
  opt.prune_interval = Seconds(100);
  MvccTable table(ex, opt, &ctl, 1);
  std::vector<Status> writes;
  std::vector<TimeMicros> reads;
  DoRead(ex, table, 1, reads);
  ex.Run();
  DoBulkWrite(ex, table, 2, 10000, nullptr, writes);
  ex.Run();
  DoRead(ex, table, 3, reads);
  ex.Run();
  ASSERT_EQ(reads.size(), 2u);
  EXPECT_GT(reads[1], reads[0] + 1000);  // version-walk penalty
  EXPECT_EQ(table.version_debt(), 10000u);
}

TEST(MvccTableTest, PrunerWaitsForWritersThenDrains) {
  Executor ex;
  RecordingController ctl;
  MvccOptions opt;
  opt.prune_interval = Millis(1);
  opt.prune_batch = 100000;
  MvccTable table(ex, opt, &ctl, 1);
  CancelToken stop(ex);
  table.StartPruner(999, &stop);
  std::vector<Status> writes;
  DoBulkWrite(ex, table, 2, 5000, nullptr, writes);
  // While the writer runs, debt persists even with an aggressive pruner.
  ex.Run(Millis(50));
  EXPECT_GT(table.version_debt(), 0u);
  ex.Run(Seconds(3));
  EXPECT_EQ(table.version_debt(), 0u);  // drained after the writer finished
  stop.Cancel();
  ex.Run();
}

TEST(MvccTableTest, CancelledBulkWriteStopsAtCheckpoint) {
  Executor ex;
  RecordingController ctl;
  MvccTable table(ex, MvccOptions{}, &ctl, 1);
  CancelToken token(ex);
  std::vector<Status> writes;
  DoBulkWrite(ex, table, 2, 1'000'000, &token, writes);
  ex.CallAt(Millis(5), [&] { token.Cancel(); });
  ex.Run();
  ASSERT_EQ(writes.size(), 1u);
  EXPECT_TRUE(writes[0].IsCancelled());
  EXPECT_EQ(table.active_writers(), 0);
  // Progress was reported along the way.
  EXPECT_GT(ctl.CountFor(TraceEventKind::kProgress, 2), 0);
}

}  // namespace
}  // namespace atropos
