#include "src/obs/metrics.h"

#include <cassert>
#include <utility>

namespace atropos {

namespace {

template <typename Map, typename T = typename Map::mapped_type::element_type>
T* Resolve(Map& map, std::string_view name) {
  auto it = map.find(name);
  if (it != map.end()) {
    return it->second.get();
  }
  auto owned = std::make_unique<T>();
  T* raw = owned.get();
  map.emplace(std::string(name), std::move(owned));
  return raw;
}

}  // namespace

Counter* MetricsRegistry::GetCounter(std::string_view name) { return Resolve(counters_, name); }

Gauge* MetricsRegistry::GetGauge(std::string_view name) { return Resolve(gauges_, name); }

LatencyHistogram* MetricsRegistry::GetHistogram(std::string_view name) {
  return Resolve(histograms_, name);
}

MetricsRegistry::Snapshot MetricsRegistry::TakeSnapshot() const {
  Snapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->value();
  }
  for (const auto& [name, hist] : histograms_) {
    HistogramView view;
    view.count = hist->count();
    view.p50 = hist->P50();
    view.p99 = hist->P99();
    view.max = hist->max();
    view.mean = hist->Mean();
    snap.histograms[name] = view;
  }
  return snap;
}

SeriesRecorder::SeriesRecorder(std::vector<std::string> columns)
    : columns_(std::move(columns)) {}

void SeriesRecorder::Sample(TimeMicros t, std::vector<double> values) {
  assert(values.size() == columns_.size());
  rows_.push_back(Row{t, std::move(values)});
}

}  // namespace atropos
