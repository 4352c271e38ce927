#include "perfbench/drainer.h"

#include <algorithm>
#include <chrono>
#include <string>

namespace perfbench {

Drainer::Drainer(atropos::ConcurrentFrontend* frontend, atropos::TimeMicros window, bool trace)
    : frontend_(frontend), window_(window), trace_(trace), spans_(trace ? 1 << 14 : 0) {
  if (trace_) {
    tick_us_.reserve(1 << 14);
  }
  thread_ = std::thread([this] { Loop(); });
}

void Drainer::Stop() {
  if (thread_.joinable()) {
    stop_.store(true, std::memory_order_release);
    thread_.join();
  }
}

void Drainer::Loop() {
  const auto period = std::chrono::microseconds(window_);
  const uint64_t probe_every = std::max<uint64_t>(1, 1'000'000 / std::max<uint64_t>(window_, 1));
  auto next = std::chrono::steady_clock::now();
  while (!stop_.load(std::memory_order_acquire)) {
    const int64_t c0 = ThreadCpuNs();
    const int64_t w0 = trace_ ? NowNs() : 0;
    frontend_->Tick();
    cpu_ns_ += ThreadCpuNs() - c0;
    ticks_++;
    if (trace_) {
      const int64_t w1 = NowNs();
      wall_ns_ += w1 - w0;
      tick_us_.push_back(static_cast<double>(w1 - w0) / 1e3);
      spans_.Add("intake.tick", 0, -1, w0, w1);
      max_ring_depth_ =
          std::max<uint64_t>(max_ring_depth_, frontend_->intake_stats().max_ring_depth);
    }
    if (ticks_ % probe_every == 0) {
      probe_.Sample();
    }
    next = std::max(next + period, std::chrono::steady_clock::now());
    std::this_thread::sleep_until(next);
  }
}

void Drainer::ReportIntake(const atropos::ConcurrentFrontend::IntakeStats& intake,
                           uint64_t requests, Report* report) {
  const double tail = TailQuantile(tick_us_.size());
  report->Note("ticks: " + std::to_string(tick_us_.size()) + " samples, tail quantile " +
               std::to_string(tail));
  const auto per = [](double num, uint64_t den) {
    return num / static_cast<double>(std::max<uint64_t>(den, 1));
  };
  report->Metric("intake.tick_us_p50", Quantile(&tick_us_, 0.5), "us");
  report->Metric("intake.tick_us_p99", Quantile(&tick_us_, tail), "us");
  report->Metric("intake.drain_ns_per_event",
                 per(static_cast<double>(wall_ns_), intake.drained_total), "ns");
  report->Metric("intake.events_per_req", per(static_cast<double>(intake.drained_total), requests),
                 "events");
  report->Metric("intake.drop_frac",
                 per(static_cast<double>(intake.dropped_total),
                     intake.drained_total + intake.dropped_total),
                 "fraction");
  report->Metric("intake.max_ring_depth", static_cast<double>(max_ring_depth_), "events");
  report->Metric("intake.control_cpu_ns_per_req", per(static_cast<double>(cpu_ns_), requests),
                 "ns");
}

}  // namespace perfbench
