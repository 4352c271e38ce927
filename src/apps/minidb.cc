#include "src/apps/minidb.h"

#include <algorithm>

namespace atropos {

namespace {
constexpr uint64_t kPurgeKey = kBackgroundKeyBase + 1;
constexpr uint64_t kWalFlusherKey = kBackgroundKeyBase + 2;
constexpr uint64_t kPrunerKey = kBackgroundKeyBase + 3;
}  // namespace

MiniDb::MiniDb(Executor& executor, OverloadController* controller, MiniDbOptions options)
    : App(executor, controller), options_(options), rng_(options.seed),
      heavy_limiter_(executor_, 1024) {
  if (options_.use_table_locks) {
    table_lock_resource_ = controller_->RegisterResource("table_locks", ResourceClass::kLock);
    locks_ = std::make_unique<TableLockManager>(executor_, options_.num_tables, controller_,
                                                table_lock_resource_);
  }
  if (options_.use_tickets) {
    ticket_resource_ = controller_->RegisterResource("innodb_tickets", ResourceClass::kQueue);
    tickets_ = std::make_unique<InstrumentedSemaphore>(executor_, options_.innodb_tickets,
                                                       controller_, ticket_resource_);
  }
  if (options_.use_io) {
    io_resource_ = controller_->RegisterResource("disk_io", ResourceClass::kIo);
    io_ = std::make_unique<IoDevice>(executor_, options_.io_bytes_per_second);
  }
  if (options_.use_buffer_pool) {
    pool_resource_ = controller_->RegisterResource("buffer_pool", ResourceClass::kMemory);
    if (io_ != nullptr) {
      // Misses and dirty flushes share the disk (the real thrashing path).
      options_.pool.device = io_.get();
    }
    pool_ = std::make_unique<BufferPool>(executor_, options_.pool, controller_, pool_resource_);
  }
  if (options_.use_undo) {
    undo_resource_ = controller_->RegisterResource("undo_log", ResourceClass::kLock);
    undo_ = std::make_unique<UndoLog>(executor_, options_.undo, controller_, undo_resource_);
    controller_->OnTaskRegistered(kPurgeKey, /*background=*/true, /*cancellable=*/false);
    auto stop = std::make_unique<CancelToken>(executor_);
    undo_->StartPurge(kPurgeKey, stop.get());
    background_stops_.push_back(std::move(stop));
  }
  if (options_.use_mvcc) {
    mvcc_resource_ = controller_->RegisterResource("mvcc_versions", ResourceClass::kLock);
    mvcc_ = std::make_unique<MvccTable>(executor_, options_.mvcc, controller_, mvcc_resource_);
    controller_->OnTaskRegistered(kPrunerKey, /*background=*/true, /*cancellable=*/false);
    auto stop = std::make_unique<CancelToken>(executor_);
    mvcc_->StartPruner(kPrunerKey, stop.get());
    background_stops_.push_back(std::move(stop));
  }
  if (options_.use_wal) {
    wal_resource_ = controller_->RegisterResource("wal", ResourceClass::kLock);
    wal_ = std::make_unique<WriteAheadLog>(executor_, options_.wal, controller_, wal_resource_);
    controller_->OnTaskRegistered(kWalFlusherKey, /*background=*/true, /*cancellable=*/false);
    auto stop = std::make_unique<CancelToken>(executor_);
    wal_->StartFlusher(kWalFlusherKey, stop.get());
    background_stops_.push_back(std::move(stop));
  }
  InitClientGates(/*num_classes=*/2, /*parties_capacity=*/64);
}

void MiniDb::SetTypeReservation(int request_type, int workers) {
  // DARC reserves workers for the short type; that caps how many tickets the
  // heavy (slow-query) type may occupy concurrently.
  auto tickets = static_cast<int64_t>(options_.innodb_tickets);
  int64_t cap = tickets - workers;
  heavy_limiter_.SetCapacity(static_cast<uint64_t>(std::max<int64_t>(cap, 1)));
}

MiniDb::~MiniDb() { Shutdown(); }

void MiniDb::Shutdown() {
  for (auto& stop : background_stops_) {
    stop->Cancel();
  }
}

uint64_t MiniDb::PageId(int table, uint64_t page) const {
  return static_cast<uint64_t>(table) * options_.pages_per_table + page;
}

int MiniDb::TableOf(const AppRequest& req) const {
  return static_cast<int>(req.arg % static_cast<uint64_t>(options_.num_tables));
}

std::string_view MiniDb::RequestTypeName(int type) const {
  switch (type) {
    case kDbPointSelect:
      return "point_select";
    case kDbRowUpdate:
      return "row_update";
    case kDbDumpQuery:
      return "dump_query";
    case kDbTableScan:
      return "table_scan";
    case kDbBackup:
      return "backup";
    case kDbSlowQuery:
      return "slow_query";
    case kDbSelectForUpdate:
      return "select_for_update";
    case kDbInsert:
      return "insert";
    case kDbMvccRead:
      return "mvcc_read";
    case kDbMvccBulkWrite:
      return "mvcc_bulk_write";
    case kDbWalInsert:
      return "wal_insert";
    case kDbWalBulkInsert:
      return "wal_bulk_insert";
    case kDbIoQuery:
      return "io_query";
    case kDbVacuum:
      return "vacuum";
    case kDbUndoWrite:
      return "undo_write";
    case kDbOldSnapshotRead:
      return "old_snapshot_read";
    case kDbAlterTable:
      return "alter_table";
    default:
      return "request";
  }
}

void MiniDb::Start(const AppRequest& req, CompletionFn done) { Serve(req, std::move(done)); }

Coro MiniDb::Serve(AppRequest req, CompletionFn done) {
  co_await BindExecutor{executor_};
  CancelToken* token = BeginTask(req.key, !req.non_cancellable);
  Status status = co_await GateEnter(req, token);
  if (status.ok()) {
    status = co_await Dispatch(req, token);
    GateExit(req);
  }
  FinishTask(req, done, status);
}

Task<Status> MiniDb::Dispatch(const AppRequest& req, CancelToken* token) {
  switch (req.type) {
    case kDbPointSelect:
      return PointSelect(req, token);
    case kDbRowUpdate:
      return RowUpdate(req, token);
    case kDbDumpQuery:
      return DumpQuery(req, token);
    case kDbTableScan:
      return TableScan(req, token);
    case kDbBackup:
      return Backup(req, token);
    case kDbSlowQuery:
      return SlowQuery(req, token);
    case kDbSelectForUpdate:
      return SelectForUpdate(req, token);
    case kDbInsert:
      return Insert(req, token);
    case kDbMvccRead:
      return MvccRead(req, token);
    case kDbMvccBulkWrite:
      return MvccBulkWrite(req, token);
    case kDbWalInsert:
      return WalInsert(req, token);
    case kDbWalBulkInsert:
      return WalBulkInsert(req, token);
    case kDbIoQuery:
      return IoQuery(req, token);
    case kDbVacuum:
      return Vacuum(req, token);
    case kDbUndoWrite:
      return UndoWrite(req, token);
    case kDbOldSnapshotRead:
      return OldSnapshotRead(req, token);
    case kDbAlterTable:
      return AlterTable(req, token);
    default:
      break;
  }
  return PointSelect(req, token);
}

// ---------------------------------------------------------------------------
// Lightweight operations

Task<Status> MiniDb::PointSelect(const AppRequest& req, CancelToken* token) {
  int table = TableOf(req);
  // MySQL order: table locks are taken before entering InnoDB's concurrency
  // gate, so a request blocked on a table lock holds no ticket.
  Status result = Status::Ok();
  bool locked = false;
  if (locks_ != nullptr) {
    result = co_await locks_->table(table).AcquireShared(req.key, token);
    locked = result.ok();
  }
  uint64_t ticket_units = 0;
  if (result.ok() && tickets_ != nullptr) {
    Status s = co_await tickets_->Acquire(req.key, token);
    if (!s.ok()) {
      if (locked) {
        locks_->table(table).ReleaseShared(req.key);
      }
      co_return s;
    }
    ticket_units = 1;
  }
  if (result.ok()) {
    if (pool_ != nullptr) {
      for (uint64_t i = 0; i < options_.point_pages && result.ok(); i++) {
        uint64_t page = rng_.NextZipf(options_.hot_pages_per_table, 0.9);
        PageAccess access =
            co_await pool_->Access(req.key, PageId(table, page), /*write=*/false, token);
        result = access.status;
      }
    }
    if (result.ok()) {
      co_await Delay{executor_, Scaled(req.key, options_.point_select_cost)};
    }
  }
  if (locked) {
    locks_->table(table).ReleaseShared(req.key);
  }
  if (ticket_units > 0) {
    tickets_->Release(req.key, ticket_units);
  }
  co_return result;
}

Task<Status> MiniDb::RowUpdate(const AppRequest& req, CancelToken* token) {
  int table = TableOf(req);
  Status result = Status::Ok();
  bool locked = false;
  if (locks_ != nullptr) {
    result = co_await locks_->table(table).AcquireShared(req.key, token);
    locked = result.ok();
  }
  uint64_t ticket_units = 0;
  if (result.ok() && tickets_ != nullptr) {
    Status s = co_await tickets_->Acquire(req.key, token);
    if (!s.ok()) {
      if (locked) {
        locks_->table(table).ReleaseShared(req.key);
      }
      co_return s;
    }
    ticket_units = 1;
  }
  if (result.ok()) {
    if (pool_ != nullptr) {
      uint64_t page = rng_.NextZipf(options_.hot_pages_per_table, 0.9);
      PageAccess access =
          co_await pool_->Access(req.key, PageId(table, page), /*write=*/true, token);
      result = access.status;
    }
    if (result.ok() && undo_ != nullptr) {
      result = co_await undo_->Append(req.key, token);
    }
    if (result.ok() && wal_ != nullptr) {
      result = co_await wal_->AppendAndCommit(req.key, 1, token);
    }
    if (result.ok()) {
      co_await Delay{executor_, Scaled(req.key, options_.row_update_cost)};
    }
  }
  if (locked) {
    locks_->table(table).ReleaseShared(req.key);
  }
  if (ticket_units > 0) {
    tickets_->Release(req.key, ticket_units);
  }
  co_return result;
}

// ---------------------------------------------------------------------------
// c5: buffer pool monopolization

Task<Status> MiniDb::DumpQuery(const AppRequest& req, CancelToken* token) {
  int table = static_cast<int>((req.arg & 0xff) % static_cast<uint64_t>(options_.num_tables));
  // Sequentially reads every page of the table: far more than the pool holds.
  // High bits of arg (if set) bound the dump's page count.
  uint64_t total = req.arg >> 8 ? req.arg >> 8 : options_.pages_per_table;
  total = std::min(total, options_.pages_per_table);
  for (uint64_t page = 0; page < total; page++) {
    if (token != nullptr && token->cancelled()) {
      co_return Status::Cancelled("dump query cancelled at page checkpoint");
    }
    PageAccess access =
        co_await pool_->Access(req.key, PageId(table, page), /*write=*/false, token);
    if (!access.status.ok()) {
      co_return access.status;
    }
    if (page % 64 == 0 && controller_ != nullptr) {
      controller_->OnProgress(req.key, page, total);  // GetNext: rows_examined analog
    }
  }
  co_return Status::Ok();
}

// ---------------------------------------------------------------------------
// c1: long scan + backup convoy

Task<Status> MiniDb::TableScan(const AppRequest& req, CancelToken* token) {
  int table = TableOf(req);
  Status s = co_await locks_->table(table).AcquireShared(req.key, token);
  if (!s.ok()) {
    co_return s;
  }
  Status result = Status::Ok();
  uint64_t rows = options_.scan_rows;
  constexpr uint64_t kBatch = 10'000;
  for (uint64_t done = 0; done < rows; done += kBatch) {
    if (token != nullptr && token->cancelled()) {
      result = Status::Cancelled("table scan cancelled at batch checkpoint");
      break;
    }
    co_await Delay{executor_, Scaled(req.key, options_.scan_cost_per_kilo_row * (kBatch / 1000))};
    controller_->OnProgress(req.key, std::min(done + kBatch, rows), rows);
  }
  locks_->table(table).ReleaseShared(req.key);
  co_return result;
}

Task<Status> MiniDb::Backup(const AppRequest& req, CancelToken* token) {
  int acquired = 0;
  Status s = co_await locks_->AcquireAllExclusive(req.key, token, &acquired);
  if (!s.ok()) {
    // Cancellation mid-acquisition: release what was taken so the convoy
    // drains — the "safe initiator" cleanup a real backup performs.
    locks_->ReleaseAllExclusive(req.key, acquired);
    co_return s;
  }
  Status result = Status::Ok();
  // Hold everything while copying. Checkpointed so cancellation can abort.
  constexpr int kChunks = 20;
  TimeMicros chunk = options_.backup_work_cost / kChunks;
  for (int i = 0; i < kChunks; i++) {
    if (token != nullptr && token->cancelled()) {
      result = Status::Cancelled("backup cancelled at chunk checkpoint");
      break;
    }
    co_await Delay{executor_, chunk};
    controller_->OnProgress(req.key, static_cast<uint64_t>(i + 1),
                            static_cast<uint64_t>(kChunks));
  }
  locks_->ReleaseAllExclusive(req.key, acquired);
  co_return result;
}

// ---------------------------------------------------------------------------
// c2: InnoDB ticket monopolization

Task<Status> MiniDb::SlowQuery(const AppRequest& req, CancelToken* token) {
  Status gate = co_await heavy_limiter_.Acquire(1, token);
  if (!gate.ok()) {
    co_return gate;
  }
  Status s = co_await tickets_->Acquire(req.key, token);
  if (!s.ok()) {
    heavy_limiter_.Release();
    co_return s;
  }
  Status result = Status::Ok();
  TimeMicros total = options_.slow_query_cost;
  constexpr int kSteps = 100;
  TimeMicros step = total / kSteps;
  for (int i = 0; i < kSteps; i++) {
    if (token != nullptr && token->cancelled()) {
      result = Status::Cancelled("slow query cancelled at step checkpoint");
      break;
    }
    co_await Delay{executor_, Scaled(req.key, step)};
    controller_->OnProgress(req.key, static_cast<uint64_t>(i + 1),
                            static_cast<uint64_t>(kSteps));
  }
  tickets_->Release(req.key);
  heavy_limiter_.Release();
  co_return result;
}

// ---------------------------------------------------------------------------
// c4: SELECT ... FOR UPDATE lock hold

Task<Status> MiniDb::SelectForUpdate(const AppRequest& req, CancelToken* token) {
  int table = TableOf(req);
  Status s = co_await locks_->table(table).AcquireExclusive(req.key, token);
  if (!s.ok()) {
    co_return s;
  }
  Status result = Status::Ok();
  TimeMicros total = options_.sfu_hold_cost;
  constexpr int kSteps = 100;
  for (int i = 0; i < kSteps; i++) {
    if (token != nullptr && token->cancelled()) {
      result = Status::Cancelled("select-for-update cancelled at step checkpoint");
      break;
    }
    co_await Delay{executor_, Scaled(req.key, total / kSteps)};
    controller_->OnProgress(req.key, static_cast<uint64_t>(i + 1),
                            static_cast<uint64_t>(kSteps));
  }
  locks_->table(table).ReleaseExclusive(req.key);
  co_return result;
}

Task<Status> MiniDb::Insert(const AppRequest& req, CancelToken* token) {
  int table = TableOf(req);
  Status s = co_await locks_->table(table).AcquireShared(req.key, token);
  if (!s.ok()) {
    co_return s;
  }
  co_await Delay{executor_, Scaled(req.key, options_.row_update_cost)};
  locks_->table(table).ReleaseShared(req.key);
  co_return Status::Ok();
}

// ---------------------------------------------------------------------------
// c6: MVCC version chains

Task<Status> MiniDb::MvccRead(const AppRequest& req, CancelToken* token) {
  co_return co_await mvcc_->Read(req.key, token);
}

Task<Status> MiniDb::MvccBulkWrite(const AppRequest& req, CancelToken* token) {
  uint64_t rows = req.arg > 0 ? req.arg : 20'000;
  co_return co_await mvcc_->BulkWrite(req.key, rows, token);
}

// ---------------------------------------------------------------------------
// c7: WAL group commit

Task<Status> MiniDb::WalInsert(const AppRequest& req, CancelToken* token) {
  co_return co_await wal_->AppendAndCommit(req.key, 1, token);
}

Task<Status> MiniDb::WalBulkInsert(const AppRequest& req, CancelToken* token) {
  uint64_t records = req.arg > 0 ? req.arg : 20'000;
  constexpr uint64_t kBatch = 500;
  uint64_t appended = 0;
  while (appended < records) {
    if (token != nullptr && token->cancelled()) {
      co_return Status::Cancelled("bulk insert cancelled at batch checkpoint");
    }
    uint64_t batch = std::min(kBatch, records - appended);
    Status s = co_await wal_->Append(req.key, batch, token);
    if (!s.ok()) {
      co_return s;
    }
    appended += batch;
    controller_->OnProgress(req.key, appended, records);
  }
  co_return co_await wal_->WaitFlush(req.key, records, token);
}

// ---------------------------------------------------------------------------
// c8: vacuum I/O interference

Task<Status> MiniDb::IoQuery(const AppRequest& req, CancelToken* token) {
  UsageReporter reporter(controller_, io_resource_, req.key);
  co_return co_await io_->Transfer(options_.io_query_bytes, token, &reporter);
}

Task<Status> MiniDb::Vacuum(const AppRequest& req, CancelToken* token) {
  UsageReporter reporter(controller_, io_resource_, req.key);
  uint64_t total = req.arg > 0 ? req.arg : options_.vacuum_bytes;
  uint64_t moved = 0;
  while (moved < total) {
    if (token != nullptr && token->cancelled()) {
      co_return Status::Cancelled("vacuum cancelled at chunk checkpoint");
    }
    uint64_t chunk = std::min(options_.vacuum_chunk_bytes, total - moved);
    Status s = co_await io_->Transfer(chunk, token, &reporter);
    if (!s.ok()) {
      co_return s;
    }
    moved += chunk;
    controller_->OnProgress(req.key, moved, total);
  }
  co_return Status::Ok();
}

// ---------------------------------------------------------------------------
// Table rebuild: holds the exclusive table lock while rewriting every page —
// a culprit with gains on two resources at once (used by the Fig 13 ablation).

Task<Status> MiniDb::AlterTable(const AppRequest& req, CancelToken* token) {
  int table = TableOf(req);
  Status s = co_await locks_->table(table).AcquireExclusive(req.key, token);
  if (!s.ok()) {
    co_return s;
  }
  Status result = Status::Ok();
  uint64_t total = options_.pages_per_table;
  for (uint64_t page = 0; page < total; page++) {
    if (token != nullptr && token->cancelled()) {
      result = Status::Cancelled("alter table cancelled at page checkpoint");
      break;
    }
    if (pool_ != nullptr) {
      PageAccess access =
          co_await pool_->Access(req.key, PageId(table, page), /*write=*/true, token);
      if (!access.status.ok()) {
        result = access.status;
        break;
      }
    } else {
      co_await Delay{executor_, 200};
    }
    if (page % 64 == 0) {
      controller_->OnProgress(req.key, page, total);
    }
  }
  locks_->table(table).ReleaseExclusive(req.key);
  co_return result;
}

// ---------------------------------------------------------------------------
// c3: undo-log history pressure

Task<Status> MiniDb::UndoWrite(const AppRequest& req, CancelToken* token) {
  Status s = co_await undo_->Append(req.key, token);
  if (!s.ok()) {
    co_return s;
  }
  co_await Delay{executor_, Scaled(req.key, options_.row_update_cost)};
  co_return Status::Ok();
}

Task<Status> MiniDb::OldSnapshotRead(const AppRequest& req, CancelToken* token) {
  undo_->PinSnapshot(req.key);
  Status result = Status::Ok();
  TimeMicros total = req.arg > 0 ? static_cast<TimeMicros>(req.arg) : Seconds(8);
  constexpr int kSteps = 200;
  for (int i = 0; i < kSteps; i++) {
    if (token != nullptr && token->cancelled()) {
      result = Status::Cancelled("old-snapshot read cancelled at step checkpoint");
      break;
    }
    co_await Delay{executor_, Scaled(req.key, total / kSteps)};
    controller_->OnProgress(req.key, static_cast<uint64_t>(i + 1),
                            static_cast<uint64_t>(kSteps));
  }
  undo_->UnpinSnapshot(req.key);
  co_return result;
}

}  // namespace atropos
