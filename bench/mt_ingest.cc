// Multi-threaded ingestion throughput of the ConcurrentFrontend.
//
// Real OS threads hammer the §3.2 instrumentation hooks while one drainer
// thread runs Tick() concurrently, measuring the producer-side cost the
// paper's overhead argument depends on: a trace call must stay a clock read
// plus one SPSC ring write, with no shared cache lines between producers, so
// aggregate throughput scales with producer count instead of collapsing onto
// a lock.
//
// Each thread count is measured in two modes:
//
//   loss-free   producers apply backpressure (spin-yield until ring space),
//               so every event is delivered and drained. events_per_second
//               and ns_per_event measure *sustainable* end-to-end intake —
//               the number the perf trajectory tracks against the ROADMAP
//               ~10ns/event target.
//   saturation  producers push at maximum rate and a full ring drops the
//               event (the production overload posture). The drop rate is
//               reported explicitly; events_per_second here measures raw
//               producer-side push cost, not delivered throughput.
//
// The acceptance bar from the intake design is >=4x aggregate loss-free
// throughput at 8 producers vs 1 — only meaningful on a machine with >=8
// cores, so the bench prints the core count it actually had and marks the
// comparison informational when the hardware can't show it.
//
// Usage: mt_ingest [--events=N] [--max-threads=N] [--ring-capacity=N]
//                  [--json[=path]]   (writes BENCH_mt_ingest.json)

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/atropos/concurrent_frontend.h"
#include "src/common/clock.h"
#include "src/common/json_writer.h"
#include "src/common/table.h"

namespace atropos {
namespace {

struct BenchOptions {
  uint64_t events = 2'000'000;  // total per thread-count measurement
  int max_threads = 16;
  size_t ring_capacity = 1 << 16;
};

uint64_t ParseFlag(const char* arg, const char* name, uint64_t fallback) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    return std::strtoull(arg + len + 1, nullptr, 10);
  }
  return fallback;
}

struct RunResult {
  double wall_seconds = 0;
  uint64_t pushed = 0;     // events that reached a ring (delivered)
  uint64_t attempted = 0;  // events the producers tried to push
  uint64_t dropped = 0;    // ring-overflow losses (saturation mode only)
};

// Pushes `events` trace calls from `threads` producer threads through the
// OverloadController hook surface (the path an instrumented application
// uses), with a concurrent drainer ticking the control loop. In loss-free
// mode a full ring makes the producer yield and retry instead of dropping.
RunResult RunOnce(int threads, uint64_t events, size_t ring_capacity, bool loss_free) {
  SteadyClock clock;
  AtroposConfig config;
  config.baseline_p99 = 1000;  // skip calibration; keep the drainer realistic
  ConcurrentFrontend::Options options;
  options.ring_capacity = ring_capacity;
  ConcurrentFrontend frontend(&clock, config, options);
  const ResourceId lock = frontend.RegisterResource("ingest_lock", ResourceClass::kLock);

  const uint64_t per_thread = events / static_cast<uint64_t>(threads);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop_drainer{false};

  std::thread drainer([&] {
    while (!stop_drainer.load(std::memory_order_acquire)) {
      frontend.Tick();
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    frontend.Tick();  // final sweep so `drained + dropped == pushed`
  });

  std::vector<std::thread> producers;
  producers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; t++) {
    producers.emplace_back([&, t] {
      // Bind this thread's ring before the clock starts: registration is the
      // one mutex-protected step and must not count against the hot path.
      ConcurrentFrontend::Producer* p = frontend.RegisterProducer();
      const uint64_t base_key = 1'000'000ull * static_cast<uint64_t>(t + 1);
      p->Push(TraceEvent::TaskRegistered(base_key, /*background=*/false, /*cancellable=*/true));
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) {
      }
      if (loss_free) {
        // Backpressure: a full ring stalls the producer until the drainer
        // catches up. spins-then-yield keeps the 1-core case live.
        for (uint64_t i = 1; i + 1 < per_thread; i += 2) {
          int spins = 0;
          while (!p->Push(TraceEvent::Get(base_key, lock, 1))) {
            if (++spins > 64) {
              std::this_thread::yield();
            }
          }
          spins = 0;
          while (!p->Push(TraceEvent::Free(base_key, lock, 1))) {
            if (++spins > 64) {
              std::this_thread::yield();
            }
          }
        }
      } else {
        for (uint64_t i = 1; i + 1 < per_thread; i += 2) {
          p->Push(TraceEvent::Get(base_key, lock, 1));
          p->Push(TraceEvent::Free(base_key, lock, 1));
        }
      }
      int spins = 0;
      while (!p->Push(TraceEvent::TaskFreed(base_key)) && loss_free) {
        if (++spins > 64) {
          std::this_thread::yield();
        }
      }
    });
  }

  while (ready.load(std::memory_order_acquire) < threads) {
    std::this_thread::yield();
  }
  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& th : producers) {
    th.join();
  }
  const auto end = std::chrono::steady_clock::now();

  stop_drainer.store(true, std::memory_order_release);
  drainer.join();

  RunResult r;
  r.wall_seconds = std::chrono::duration<double>(end - start).count();
  const ConcurrentFrontend::IntakeStats& intake = frontend.intake_stats();
  r.pushed = intake.drained_total;
  r.dropped = intake.dropped_total;
  r.attempted = intake.drained_total + intake.dropped_total;
  return r;
}

// Returns the output path when `arg` is --json or --json=path, else "".
std::string ParseJsonFlag(const char* arg, const char* fallback) {
  if (std::strcmp(arg, "--json") == 0) {
    return fallback;
  }
  if (std::strncmp(arg, "--json=", 7) == 0) {
    return arg + 7;
  }
  return "";
}

int Main(int argc, char** argv) {
  BenchOptions opt;
  std::string json_path;
  for (int i = 1; i < argc; i++) {
    opt.events = ParseFlag(argv[i], "--events", opt.events);
    opt.max_threads =
        static_cast<int>(ParseFlag(argv[i], "--max-threads", static_cast<uint64_t>(opt.max_threads)));
    opt.ring_capacity =
        static_cast<size_t>(ParseFlag(argv[i], "--ring-capacity", opt.ring_capacity));
    if (std::string p = ParseJsonFlag(argv[i], "BENCH_mt_ingest.json"); !p.empty()) {
      json_path = p;
    }
  }

  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("mt_ingest: %llu events per run, ring capacity %zu, %u hardware threads\n\n",
              static_cast<unsigned long long>(opt.events), opt.ring_capacity, cores);

  TextTable table({"producers", "mode", "delivered", "wall_ms", "Mev/s", "ns/event", "speedup",
                   "drop_rate"});
  struct Row {
    int threads;
    bool loss_free;
    RunResult r;
    double throughput;   // delivered events / wall second
    double ns_per_event;
    double drop_rate;
    double speedup;
  };
  std::vector<Row> rows;
  double base_lossfree_throughput = 0;
  double lossfree_ns_1p = 0;
  double speedup_at_8 = 0;
  for (int threads : {1, 2, 4, 8, 16}) {
    if (threads > opt.max_threads) {
      break;
    }
    for (bool loss_free : {true, false}) {
      // Warm-up pass absorbs first-touch page faults in the rings.
      RunOnce(threads, opt.events / 10 + 1, opt.ring_capacity, loss_free);
      const RunResult r = RunOnce(threads, opt.events, opt.ring_capacity, loss_free);
      // In loss-free mode a failed push is retried, so the ring's drop counter
      // measures backpressure stalls, not losses: every intended event is
      // delivered and the true drop rate is zero by construction.
      const uint64_t moved = loss_free ? r.pushed : r.attempted;
      const double throughput = static_cast<double>(moved) / r.wall_seconds;
      const double ns_per_event = moved > 0 ? r.wall_seconds * 1e9 / static_cast<double>(moved) : 0;
      const double drop_rate =
          loss_free ? 0.0
                    : (r.attempted > 0
                           ? static_cast<double>(r.dropped) / static_cast<double>(r.attempted)
                           : 0);
      double speedup = 0;
      if (loss_free) {
        if (threads == 1) {
          base_lossfree_throughput = throughput;
          lossfree_ns_1p = ns_per_event;
        }
        speedup = base_lossfree_throughput > 0 ? throughput / base_lossfree_throughput : 0;
        if (threads == 8) {
          speedup_at_8 = speedup;
        }
      }
      rows.push_back({threads, loss_free, r, throughput, ns_per_event, drop_rate, speedup});
      table.AddRow({std::to_string(threads), loss_free ? "loss-free" : "saturate",
                    std::to_string(moved), TextTable::Num(r.wall_seconds * 1e3),
                    TextTable::Num(throughput / 1e6), TextTable::Num(ns_per_event, 1),
                    loss_free ? TextTable::Num(speedup) + "x" : "-",
                    TextTable::Pct(drop_rate)});
    }
  }
  std::printf("%s\n", table.Render().c_str());

  if (!json_path.empty()) {
    JsonWriter json;
    json.BeginObject();
    json.Field("bench", "mt_ingest");
    json.Field("events_per_run", opt.events);
    json.Field("ring_capacity", static_cast<uint64_t>(opt.ring_capacity));
    json.Field("hardware_threads", static_cast<uint64_t>(cores));
    json.Key("runs").BeginArray();
    for (const Row& row : rows) {
      json.BeginObject();
      json.Field("producers", row.threads);
      json.Field("mode", row.loss_free ? "lossfree" : "saturate");
      json.Field("attempted", row.loss_free ? row.r.pushed : row.r.attempted);
      json.Field("delivered", row.r.pushed);
      json.Field("dropped", row.loss_free ? uint64_t{0} : row.r.dropped);
      json.Field("backpressure_retries", row.loss_free ? row.r.dropped : uint64_t{0});
      json.Field("drop_rate", row.drop_rate);
      json.Field("wall_seconds", row.r.wall_seconds);
      json.Field("events_per_second", row.throughput);
      json.Field("ns_per_event", row.ns_per_event);
      json.Field("speedup_vs_1", row.speedup);
      json.EndObject();
    }
    json.EndArray();
    // Headline trajectory numbers: sustainable single-producer per-event cost
    // (ROADMAP ~10ns target) and loss-free scaling at 8 producers.
    json.Field("lossfree_ns_per_event_1p", lossfree_ns_1p);
    json.Field("speedup_at_8", speedup_at_8);
    json.EndObject();
    if (json.WriteFile(json_path)) {
      std::printf("wrote %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    }
  }

  if (opt.max_threads >= 8) {
    if (cores >= 8) {
      std::printf("loss-free scaling @8 producers: %.2fx vs 1 (bar: >=4x) -> %s\n", speedup_at_8,
                  speedup_at_8 >= 4.0 ? "PASS" : "FAIL");
      return speedup_at_8 >= 4.0 ? 0 : 1;
    }
    std::printf(
        "loss-free scaling @8 producers: %.2fx vs 1 (informational: only %u hardware threads, "
        ">=8 cores needed to demonstrate the >=4x bar)\n",
        speedup_at_8, cores);
  }
  return 0;
}

}  // namespace
}  // namespace atropos

int main(int argc, char** argv) { return atropos::Main(argc, argv); }
