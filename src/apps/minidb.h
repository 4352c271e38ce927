// MiniDb: the MySQL/PostgreSQL analogue (cases c1–c8).
//
// A single-node database server assembled from the db substrate: table
// locks with FTWRL-style backup, an InnoDB-style concurrency-ticket queue, a
// buffer pool, an undo log with background purge, MVCC version chains with a
// pruner, a group-commit WAL with a background flusher, and a disk shared
// with a vacuum task. Which layers a request passes through is configurable
// per scenario, mirroring how the paper reproduces each overload case in
// isolation.

#ifndef SRC_APPS_MINIDB_H_
#define SRC_APPS_MINIDB_H_

#include <memory>
#include <vector>

#include "src/apps/app.h"
#include "src/atropos/instrument.h"
#include "src/common/rng.h"
#include "src/db/buffer_pool.h"
#include "src/db/lock_manager.h"
#include "src/db/mvcc.h"
#include "src/db/undo_log.h"
#include "src/db/wal.h"
#include "src/sim/cpu.h"
#include "src/sim/task.h"

namespace atropos {

// Request types. `arg` selects the table for table-oriented requests and the
// work size (rows/pages/records/bytes scale factor) for heavy ones. For
// kDbDumpQuery, arg's low byte selects the table and the remaining bits (if
// nonzero) override the page count: arg = (pages << 8) | table.
enum MiniDbRequestType : int {
  kDbPointSelect = 0,
  kDbRowUpdate = 1,
  kDbDumpQuery = 2,        // c5: scans pages >> pool capacity
  kDbTableScan = 3,        // c1: long scan holding an S table lock
  kDbBackup = 4,           // c1: FTWRL-style all-table X lock
  kDbSlowQuery = 5,        // c2: holds an InnoDB ticket for a long time
  kDbSelectForUpdate = 6,  // c4: holds an X table lock for a long time
  kDbInsert = 7,           // c4 victim: brief S table lock
  kDbMvccRead = 8,         // c6 victim
  kDbMvccBulkWrite = 9,    // c6 culprit
  kDbWalInsert = 10,       // c7 victim
  kDbWalBulkInsert = 11,   // c7 culprit
  kDbIoQuery = 12,         // c8 victim: small reads on the shared disk
  kDbVacuum = 13,          // c8 culprit: large sequential disk writes
  kDbUndoWrite = 14,       // c3 victim: write paying the history penalty
  kDbOldSnapshotRead = 15, // c3 culprit: pins an old snapshot, blocking purge
  kDbAlterTable = 16,      // rebuilds a table: X table lock + buffer pool hog
};

struct MiniDbOptions {
  // Which layers request handlers exercise.
  bool use_tickets = false;
  bool use_table_locks = false;
  bool use_buffer_pool = false;
  bool use_undo = false;
  bool use_mvcc = false;
  bool use_wal = false;
  bool use_io = false;

  int num_tables = 5;
  uint64_t pages_per_table = 4096;    // "2 GB data" vs pool capacity below
  uint64_t hot_pages_per_table = 256; // working set of point queries
  uint64_t innodb_tickets = 8;

  BufferPoolOptions pool;             // capacity default: "512 MB" analog
  UndoLogOptions undo;
  MvccOptions mvcc;
  WalOptions wal;
  double io_bytes_per_second = 200e6;

  TimeMicros point_select_cost = 30;
  TimeMicros row_update_cost = 50;
  uint64_t point_pages = 4;           // pages touched by a point query
  uint64_t scan_rows = 2'000'000;     // c1 scan length
  TimeMicros scan_cost_per_kilo_row = 400;
  TimeMicros backup_work_cost = 100'000;  // work after acquiring all locks
  TimeMicros slow_query_cost = 5'000'000; // c2 in-ticket execution
  TimeMicros sfu_hold_cost = 5'000'000;   // c4 lock hold
  uint64_t io_query_bytes = 64 * 1024;
  uint64_t vacuum_bytes = 512 * 1024 * 1024;  // c8 total vacuum I/O
  uint64_t vacuum_chunk_bytes = 8 * 1024 * 1024;

  uint64_t seed = 1;
};

class MiniDb final : public App {
 public:
  MiniDb(Executor& executor, OverloadController* controller, MiniDbOptions options);
  ~MiniDb() override;

  std::string_view name() const override { return "minidb"; }
  std::string_view RequestTypeName(int type) const override;
  void Start(const AppRequest& req, CompletionFn done) override;
  void Shutdown() override;
  // DARC: reserving tickets for short requests caps slow-query concurrency.
  void SetTypeReservation(int request_type, int workers) override;

  // Introspection for tests.
  BufferPool* buffer_pool() { return pool_.get(); }
  UndoLog* undo_log() { return undo_.get(); }
  MvccTable* mvcc() { return mvcc_.get(); }
  WriteAheadLog* wal() { return wal_.get(); }
  TableLockManager* lock_manager() { return locks_.get(); }
  const MiniDbOptions& options() const { return options_; }

 private:
  Coro Serve(AppRequest req, CompletionFn done);
  Task<Status> Dispatch(const AppRequest& req, CancelToken* token);

  Task<Status> PointSelect(const AppRequest& req, CancelToken* token);
  Task<Status> RowUpdate(const AppRequest& req, CancelToken* token);
  Task<Status> DumpQuery(const AppRequest& req, CancelToken* token);
  Task<Status> TableScan(const AppRequest& req, CancelToken* token);
  Task<Status> Backup(const AppRequest& req, CancelToken* token);
  Task<Status> SlowQuery(const AppRequest& req, CancelToken* token);
  Task<Status> SelectForUpdate(const AppRequest& req, CancelToken* token);
  Task<Status> Insert(const AppRequest& req, CancelToken* token);
  Task<Status> MvccRead(const AppRequest& req, CancelToken* token);
  Task<Status> MvccBulkWrite(const AppRequest& req, CancelToken* token);
  Task<Status> WalInsert(const AppRequest& req, CancelToken* token);
  Task<Status> WalBulkInsert(const AppRequest& req, CancelToken* token);
  Task<Status> IoQuery(const AppRequest& req, CancelToken* token);
  Task<Status> Vacuum(const AppRequest& req, CancelToken* token);
  Task<Status> UndoWrite(const AppRequest& req, CancelToken* token);
  Task<Status> OldSnapshotRead(const AppRequest& req, CancelToken* token);
  Task<Status> AlterTable(const AppRequest& req, CancelToken* token);

  // Page id of `page` within `table`'s contiguous page range.
  uint64_t PageId(int table, uint64_t page) const;
  int TableOf(const AppRequest& req) const;

  MiniDbOptions options_;
  Rng rng_;

  // Resources (registered with the controller).
  ResourceId table_lock_resource_ = kInvalidResourceId;
  ResourceId ticket_resource_ = kInvalidResourceId;
  ResourceId pool_resource_ = kInvalidResourceId;
  ResourceId undo_resource_ = kInvalidResourceId;
  ResourceId mvcc_resource_ = kInvalidResourceId;
  ResourceId wal_resource_ = kInvalidResourceId;
  ResourceId io_resource_ = kInvalidResourceId;

  std::unique_ptr<TableLockManager> locks_;
  std::unique_ptr<InstrumentedSemaphore> tickets_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<UndoLog> undo_;
  std::unique_ptr<MvccTable> mvcc_;
  std::unique_ptr<WriteAheadLog> wal_;
  std::unique_ptr<IoDevice> io_;

  // DARC-style cap on heavy-request concurrency.
  SimSemaphore heavy_limiter_;

  // Background task control.
  std::vector<std::unique_ptr<CancelToken>> background_stops_;
};

}  // namespace atropos

#endif  // SRC_APPS_MINIDB_H_
