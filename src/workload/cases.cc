#include "src/workload/cases.h"

#include <cstdio>
#include <memory>

#include "src/apps/minidb.h"
#include "src/apps/minikv.h"
#include "src/apps/minisearch.h"
#include "src/apps/miniweb.h"

namespace atropos {

const std::array<CaseInfo, kNumCases>& CaseCatalog() {
  static const std::array<CaseInfo, kNumCases> kCatalog = {{
      {1, "minidb", "MySQL", "Synchronization", "Backup lock",
       "A subtle interaction causes backup queries to hold write locks for long time"},
      {2, "minidb", "MySQL", "Thread pool", "Innodb queue",
       "Slow queries monopolize the InnoDB queue, exceeding its concurrency limit"},
      {3, "minidb", "MySQL", "Synchronization", "Undo log",
       "Background purge task blocks causes contention on the undo log"},
      {4, "minidb", "MySQL", "Synchronization", "Table lock",
       "SELECT FOR UPDATE query blocks other clients' insert query"},
      {5, "minidb", "MySQL", "Memory", "Buffer pool",
       "Scan query monopolizes the buffer pool and causes contention with other queries"},
      {6, "minidb", "PostgreSQL", "Synchronization", "Table lock",
       "The write operation slows down the other query due to MVCC"},
      {7, "minidb", "PostgreSQL", "Synchronization", "Write ahead log",
       "The background WAL task causes group insertion and blocks other queries"},
      {8, "minidb", "PostgreSQL", "System", "System IO",
       "The vacuum process causes contention on IO and slows down other queries"},
      {9, "miniweb", "Apache", "Thread pool", "Thread pool",
       "Slow request blocks other clients' requests when the max client limit is reached"},
      {10, "minisearch", "Elasticsearch", "Memory", "Query cache",
       "A large search slows down other queries due to cache contention"},
      {11, "minisearch", "Elasticsearch", "Memory", "Buffer memory",
       "The nested aggregation exhausts heap memory causing frequent garbage collection"},
      {12, "minisearch", "Elasticsearch", "System", "CPU",
       "The long running queries cause CPU contention and slow down other requests"},
      {13, "minisearch", "Elasticsearch", "Synchronization", "Document lock",
       "A large update blocks other requests"},
      {14, "minisearch", "Solr", "Synchronization", "Index lock",
       "Complex boolean request slows down other requests"},
      {15, "minisearch", "Solr", "Thread pool", "Solr queue",
       "Nested range queries occupy thread pool and block other requests"},
      {16, "minikv", "etcd", "Synchronization", "Key-value lock",
       "Complex read query blocks other queries"},
  }};
  return kCatalog;
}

namespace {

// Late-bound control surface: the controller is constructed before the app
// (the app registers resources against the controller in its constructor).
class SurfaceProxy final : public ControlSurface {
 public:
  void Bind(ControlSurface* real) { real_ = real; }
  void CancelTask(uint64_t key, CancelReason reason) override {
    if (real_ != nullptr) {
      real_->CancelTask(key, reason);
    }
  }
  void ThrottleTask(uint64_t key, double factor) override {
    if (real_ != nullptr) {
      real_->ThrottleTask(key, factor);
    }
  }
  void SetTypeReservation(int request_type, int workers) override {
    if (real_ != nullptr) {
      real_->SetTypeReservation(request_type, workers);
    }
  }
  void SetClientShare(int client_class, double share) override {
    if (real_ != nullptr) {
      real_->SetClientShare(client_class, share);
    }
  }

 private:
  ControlSurface* real_ = nullptr;
};

struct CaseSetup {
  std::unique_ptr<App> app;
  std::vector<TrafficSpec> victims;
  std::vector<TrafficSpec> culprit_traffic;
  std::vector<OneShotSpec> culprit_shots;
  int darc_workers = 16;  // worker pool DARC partitions for this case
};

TrafficSpec Victims(int type, double qps, int arg_modulo = 0) {
  TrafficSpec spec;
  spec.type = type;
  spec.qps = qps;
  spec.arg_modulo = arg_modulo;
  spec.client_class = 0;
  return spec;
}

TrafficSpec Culprits(int type, double qps, uint64_t arg, TimeMicros start) {
  TrafficSpec spec;
  spec.type = type;
  spec.qps = qps;
  spec.arg = arg;
  spec.client_class = 1;
  spec.start = start;
  return spec;
}

OneShotSpec Shot(int type, TimeMicros at, uint64_t arg) {
  OneShotSpec spec;
  spec.type = type;
  spec.at = at;
  spec.arg = arg;
  spec.client_class = 1;
  return spec;
}

CaseSetup BuildCase(int case_id, Executor& executor, OverloadController* controller,
                    const CaseRunOptions& run) {
  CaseSetup setup;
  double scale = run.load_scale;
  const TimeMicros t3 = Seconds(3);

  switch (case_id) {
    case 1: {  // MySQL backup lock convoy
      MiniDbOptions opt;
      opt.use_table_locks = true;
      opt.scan_rows = 20'000'000;  // ~8 s scan at 400 us / krow
      opt.point_select_cost = 1000;
      opt.row_update_cost = 1000;
      opt.seed = run.seed;
      setup.app = std::make_unique<MiniDb>(executor, controller, opt);
      setup.victims = {Victims(kDbPointSelect, 600 * scale, 5),
                       Victims(kDbInsert, 300 * scale, 5)};
      // Sustained culprit stream (the paper injects scans at 5/10/15 s and a
      // backup at 20 s; over a longer run the pattern repeats): long scans on
      // random tables plus periodic backups whose queued exclusive locks
      // convoy everything behind them.
      TrafficSpec scans = Culprits(kDbTableScan, 0.4, 0, t3);
      scans.arg_modulo = 5;
      setup.culprit_traffic = {scans, Culprits(kDbBackup, 0.25, 0, Seconds(5))};
      break;
    }
    case 2: {  // InnoDB ticket queue
      MiniDbOptions opt;
      opt.use_tickets = true;
      opt.innodb_tickets = 8;
      opt.point_select_cost = 1000;
      opt.slow_query_cost = 5'000'000;
      opt.seed = run.seed;
      setup.app = std::make_unique<MiniDb>(executor, controller, opt);
      setup.victims = {Victims(kDbPointSelect, 2000 * scale)};
      setup.culprit_traffic = {Culprits(kDbSlowQuery, 2.0, 0, t3)};
      setup.darc_workers = 8;
      break;
    }
    case 3: {  // undo-log history pressure
      MiniDbOptions opt;
      opt.use_undo = true;
      opt.undo.purge_interval = Seconds(1);
      opt.undo.purge_batch = 8000;
      opt.undo.append_cost_per_1k_backlog = 150;
      opt.row_update_cost = 1000;
      opt.seed = run.seed;
      setup.app = std::make_unique<MiniDb>(executor, controller, opt);
      setup.victims = {Victims(kDbUndoWrite, 800 * scale)};
      // Deterministic first event plus a sparse stream.
      setup.culprit_shots = {Shot(kDbOldSnapshotRead, Seconds(4), Seconds(6))};
      setup.culprit_traffic = {Culprits(kDbOldSnapshotRead, 0.1, Seconds(6), Seconds(8))};
      break;
    }
    case 4: {  // SELECT FOR UPDATE
      MiniDbOptions opt;
      opt.use_table_locks = true;
      opt.sfu_hold_cost = 4'000'000;
      opt.row_update_cost = 1000;
      opt.seed = run.seed;
      setup.app = std::make_unique<MiniDb>(executor, controller, opt);
      setup.victims = {Victims(kDbInsert, 800 * scale, 2)};
      setup.culprit_traffic = {Culprits(kDbSelectForUpdate, 0.2, 0, t3)};
      break;
    }
    case 5: {  // buffer pool dump
      MiniDbOptions opt;
      opt.use_buffer_pool = true;
      opt.pool.capacity_pages = 1500;
      opt.pages_per_table = 8192;
      opt.hot_pages_per_table = 256;
      opt.point_select_cost = 50;
      opt.row_update_cost = 60;
      opt.seed = run.seed;
      setup.app = std::make_unique<MiniDb>(executor, controller, opt);
      setup.victims = {Victims(kDbPointSelect, 1500 * scale, 5),
                       Victims(kDbRowUpdate, 500 * scale, 5)};
      TrafficSpec dumps = Culprits(kDbDumpQuery, 0.3, 0, t3);
      dumps.arg_modulo = 5;
      setup.culprit_traffic = {dumps};
      break;
    }
    case 6: {  // MVCC version chains
      MiniDbOptions opt;
      opt.use_mvcc = true;
      opt.mvcc.read_base_cost = 1000;
      opt.mvcc.prune_batch = 20000;
      opt.mvcc.prune_interval = Millis(500);
      opt.seed = run.seed;
      setup.app = std::make_unique<MiniDb>(executor, controller, opt);
      setup.victims = {Victims(kDbMvccRead, 1000 * scale)};
      setup.culprit_traffic = {Culprits(kDbMvccBulkWrite, 0.25, 60'000, t3)};
      break;
    }
    case 7: {  // WAL group commit
      MiniDbOptions opt;
      opt.use_wal = true;
      opt.seed = run.seed;
      setup.app = std::make_unique<MiniDb>(executor, controller, opt);
      setup.victims = {Victims(kDbWalInsert, 800 * scale)};
      setup.culprit_traffic = {Culprits(kDbWalBulkInsert, 0.25, 20'000, t3)};
      break;
    }
    case 8: {  // vacuum I/O
      MiniDbOptions opt;
      opt.use_io = true;
      opt.seed = run.seed;
      setup.app = std::make_unique<MiniDb>(executor, controller, opt);
      setup.victims = {Victims(kDbIoQuery, 500 * scale)};
      setup.culprit_traffic = {Culprits(kDbVacuum, 0.2, 512 * 1024 * 1024, t3)};
      break;
    }
    case 9: {  // Apache MaxClients
      MiniWebOptions opt;
      opt.pool.max_clients = 32;
      opt.static_cost = 2000;
      opt.script_cost = 8'000'000;
      setup.app = std::make_unique<MiniWeb>(executor, controller, opt);
      setup.victims = {Victims(kWebStatic, 800 * scale)};
      setup.culprit_traffic = {Culprits(kWebScript, 8.0, 0, t3)};
      setup.darc_workers = 32;
      break;
    }
    case 10: {  // query cache
      MiniSearchOptions opt;
      opt.use_cache = true;
      opt.cache.capacity_pages = 1024;
      opt.hot_entries = 512;
      opt.large_query_entries = 16384;
      opt.base_query_cost = 200;
      opt.seed = run.seed;
      setup.app = std::make_unique<MiniSearch>(executor, controller, opt);
      setup.victims = {Victims(kSearchQuery, 1200 * scale)};
      setup.culprit_traffic = {Culprits(kSearchLargeQuery, 0.3, 0, t3)};
      break;
    }
    case 11: {  // heap / GC
      MiniSearchOptions opt;
      opt.use_heap = true;
      opt.heap.capacity_kb = 2560 * 1024;  // 2.5 GB: the 2 GB aggregation forces GC storms
      opt.heap.gc_threshold = 0.80;
      opt.query_alloc_kb = 256;
      opt.aggregation_alloc_kb = 2 * 1024 * 1024;
      opt.base_query_cost = 500;
      opt.seed = run.seed;
      setup.app = std::make_unique<MiniSearch>(executor, controller, opt);
      setup.victims = {Victims(kSearchQuery, 800 * scale)};
      setup.culprit_shots = {Shot(kSearchAggregation, Seconds(4), 0)};
      setup.culprit_traffic = {Culprits(kSearchAggregation, 0.1, 0, Seconds(9))};
      break;
    }
    case 12: {  // CPU saturation
      MiniSearchOptions opt;
      opt.use_cpu = true;
      opt.cpu_cores = 8;
      opt.query_cpu = 2000;
      opt.long_query_cpu = 8'000'000;
      opt.seed = run.seed;
      setup.app = std::make_unique<MiniSearch>(executor, controller, opt);
      setup.victims = {Victims(kSearchQuery, 600 * scale)};
      setup.culprit_traffic = {Culprits(kSearchLongQuery, 3.0, 0, t3)};
      break;
    }
    case 13: {  // document lock
      MiniSearchOptions opt;
      opt.use_doc_locks = true;
      opt.doc_lock_stripes = 8;
      opt.doc_update_hold = 5'000'000;
      opt.seed = run.seed;
      setup.app = std::make_unique<MiniSearch>(executor, controller, opt);
      setup.victims = {Victims(kSearchDocRead, 1000 * scale, 8)};
      setup.culprit_traffic = {Culprits(kSearchDocUpdate, 0.25, 3, t3)};
      break;
    }
    case 14: {  // index lock convoy
      MiniSearchOptions opt;
      opt.use_index_lock = true;
      opt.index_read_cost = 1500;
      opt.boolean_query_hold = 6'000'000;
      opt.seed = run.seed;
      setup.app = std::make_unique<MiniSearch>(executor, controller, opt);
      setup.victims = {Victims(kSearchQuery, 1000 * scale)};
      setup.culprit_traffic = {Culprits(kSearchBooleanQuery, 0.2, 0, t3)};
      break;
    }
    case 15: {  // Solr search queue
      MiniSearchOptions opt;
      opt.use_queue = true;
      opt.search_threads = 16;
      opt.base_query_cost = 500;
      opt.range_query_cost = 5'000'000;
      opt.seed = run.seed;
      setup.app = std::make_unique<MiniSearch>(executor, controller, opt);
      setup.victims = {Victims(kSearchQuery, 1000 * scale)};
      setup.culprit_traffic = {Culprits(kSearchRangeQuery, 3.0, 0, t3)};
      setup.darc_workers = 16;
      break;
    }
    case 16: {  // etcd keyspace lock
      MiniKvOptions opt;
      opt.store.point_op_cost = 1000;
      opt.store.scan_cost_per_key = 20;
      setup.app = std::make_unique<MiniKv>(executor, controller, opt);
      setup.victims = {Victims(kKvPointOp, 500 * scale)};
      setup.culprit_traffic = {Culprits(kKvRangeRead, 0.5, 100'000, t3)};
      break;
    }
    default:
      break;
  }
  return setup;
}

// DARC's reservation pool size per case (the app's worker-pool capacity).
// Kept as a table so the controller can be constructed before the app.
int DarcWorkersFor(int case_id) {
  switch (case_id) {
    case 2:
      return 8;  // InnoDB tickets
    case 9:
      return 32;  // Apache MaxClients
    case 15:
      return 16;  // Solr search threads
    default:
      return 16;
  }
}

uint64_t ControllerActions(OverloadController* controller) {
  if (auto* atropos = dynamic_cast<AtroposRuntime*>(controller)) {
    return atropos->stats().cancels_issued;
  }
  if (auto* protego = dynamic_cast<Protego*>(controller)) {
    return protego->drops_issued();
  }
  if (auto* pbox = dynamic_cast<PBox*>(controller)) {
    return pbox->penalties_issued();
  }
  if (auto* parties = dynamic_cast<Parties*>(controller)) {
    return parties->adjustments();
  }
  if (auto* darc = dynamic_cast<Darc*>(controller)) {
    return static_cast<uint64_t>(darc->reserved_workers());
  }
  return 0;
}

}  // namespace

CaseResult RunCase(int case_id, const CaseRunOptions& options) {
  Executor executor;
  SurfaceProxy surface;

  ControllerParams params;
  params.slo_latency_increase = options.slo_latency_increase;
  params.total_workers = DarcWorkersFor(case_id);
  if (options.min_cancel_interval > 0) {
    params.min_cancel_interval = options.min_cancel_interval;
  }

  // The controller must exist before the app: the app registers its
  // resources against it in its constructor.
  auto controller = MakeController(options.controller, executor.clock(), &surface, params);
  CaseSetup setup = BuildCase(case_id, executor, controller.get(), options);
  if (setup.app == nullptr) {
    return {};
  }
  surface.Bind(setup.app.get());

  FrontendOptions fopt;
  fopt.duration = options.duration;
  fopt.warmup = options.warmup;
  fopt.seed = options.seed;
  fopt.tick_window = kControllerWindow;
  Frontend frontend(executor, *setup.app, *controller, fopt);
  Observability* obs = options.obs;
  if (obs != nullptr) {
    frontend.SetObservability(obs);
    FlightEvent start;
    start.time = executor.now();
    start.kind = ObsEventKind::kRunStart;
    start.value = case_id;
    start.label = "c" + std::to_string(case_id) + " " + std::string(setup.app->name()) + " " +
                  std::string(ControllerKindName(options.controller));
    obs->recorder.Record(std::move(start));
  }
  if (auto* runtime = dynamic_cast<AtroposRuntime*>(controller.get()); runtime != nullptr) {
    if (obs != nullptr) {
      runtime->SetRecorder(&obs->recorder);
    }
    bool verbose = options.verbose;
    App* app = setup.app.get();
    // The observer fires right after the runtime records cancel_issued, so
    // AnnotateLast can name the victim's request type — context the control
    // loop itself does not have.
    runtime->SetCancelObserver(
        [&executor, &frontend, obs, app, verbose](uint64_t key, double score) {
          int type = frontend.TypeOfKey(key);
          if (obs != nullptr) {
            obs->recorder.AnnotateLast(
                ObsEventKind::kCancelIssued,
                type >= 0 ? std::string(app->RequestTypeName(type)) : "background");
          }
          if (verbose) {
            std::printf("  [%.2fs] cancel key=%llu type=%d score=%.3f\n",
                        ToSeconds(executor.now()), static_cast<unsigned long long>(key), type,
                        score);
          }
        });
  }
  for (const TrafficSpec& spec : setup.victims) {
    frontend.AddTraffic(spec);
  }
  if (options.inject_culprits) {
    for (TrafficSpec spec : setup.culprit_traffic) {
      spec.qps *= options.culprit_scale;
      frontend.AddTraffic(spec);
    }
    for (const OneShotSpec& spec : setup.culprit_shots) {
      frontend.AddOneShot(spec);
    }
  }

  CaseResult result;
  result.metrics = frontend.Run();
  auto* runtime = dynamic_cast<AtroposRuntime*>(controller.get());
  if (runtime != nullptr) {
    result.atropos_stats = runtime->stats();
  }
  result.controller_actions = ControllerActions(controller.get());
  result.controller_name = std::string(ControllerKindName(options.controller));

  if (obs != nullptr) {
    // SLO verdict: the calibrated detector's threshold against the measured
    // p99. Non-Atropos controllers have no detector; fall back to "overload
    // windows were observed" via the run's cancellation/drop activity.
    bool violated = false;
    if (runtime != nullptr && runtime->detector().calibrated()) {
      violated = result.metrics.P99() > runtime->detector().slo_latency();
    } else {
      violated = result.metrics.dropped + result.metrics.cancelled > 0;
    }
    Gauge* p99 = obs->metrics.GetGauge("run.c" + std::to_string(case_id) + ".p99_us");
    p99->Set(static_cast<double>(result.metrics.P99()));
    obs->metrics.GetGauge("run.c" + std::to_string(case_id) + ".throughput_qps")
        ->Set(result.metrics.ThroughputQps());

    FlightEvent end;
    end.time = executor.now();
    end.kind = ObsEventKind::kRunEnd;
    end.value = static_cast<double>(result.metrics.P99());
    end.label = violated ? "slo_violated" : "slo_met";
    obs->recorder.Record(std::move(end));

    if (violated && options.post_mortem) {
      std::printf("%s\n",
                  RenderPostMortem(obs->recorder.Snapshot(), obs->metrics.TakeSnapshot()).c_str());
    }
  }
  return result;
}

}  // namespace atropos
