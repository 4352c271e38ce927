// Named metrics with O(1) hot-path updates and snapshot-on-demand.
//
// The registry hands out stable pointers: a caller resolves a Counter/Gauge/
// Histogram once (a map lookup + possible allocation) and then updates it
// with a plain increment — no lookup, no lock, no allocation on the hot
// path. Snapshots copy the current values into ordinary maps so exporters
// and tests never hold references into the registry.
//
// SeriesRecorder captures a fixed-column time series (one Sample per tick)
// for the CSV exporter.
//
// Threading: single-threaded by design — instruments are plain fields with
// no atomics or mutexes (so no src/common/thread_annotations.h attributes
// apply), and the registry follows the drainer-thread discipline: the thread
// that Ticks the runtime is the thread that updates and snapshots metrics.
// ConcurrentFrontend publishes its intake gauges from the drainer for
// exactly this reason.

#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/clock.h"
#include "src/common/histogram.h"

namespace atropos {

class Counter {
 public:
  void Inc(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double d) { value_ += d; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Resolve-or-create; returned pointers stay valid for the registry's
  // lifetime (instruments are heap-allocated, the maps only hold owners).
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  LatencyHistogram* GetHistogram(std::string_view name);

  struct HistogramView {
    uint64_t count = 0;
    TimeMicros p50 = 0;
    TimeMicros p99 = 0;
    TimeMicros max = 0;
    double mean = 0.0;
  };

  struct Snapshot {
    // std::map: deterministic iteration for exporters and golden tests.
    std::map<std::string, uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramView> histograms;
  };

  Snapshot TakeSnapshot() const;

  size_t instrument_count() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

 private:
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>, std::less<>> histograms_;
};

// Fixed-column time series: one row per Sample() call, rendered as CSV by
// the exporter. The first column is always time_s.
class SeriesRecorder {
 public:
  explicit SeriesRecorder(std::vector<std::string> columns);

  const std::vector<std::string>& columns() const { return columns_; }

  // Appends one row; `values` must match columns().size(). Taken by value
  // and moved into the row, so a braced list at the call site is the row's
  // only allocation.
  void Sample(TimeMicros t, std::vector<double> values);

  struct Row {
    TimeMicros time = 0;
    std::vector<double> values;
  };
  const std::vector<Row>& rows() const { return rows_; }

  void Clear() { rows_.clear(); }

 private:
  std::vector<std::string> columns_;
  std::vector<Row> rows_;
};

}  // namespace atropos

#endif  // SRC_OBS_METRICS_H_
