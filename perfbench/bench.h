// Shared plumbing of the end-to-end benchmark: command-line options, the
// result report (metrics, output checks, the final JSON line), span capture
// for traced runs, and the small statistics the workloads share.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/events.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// Where traced runs write their spans, relative to the repository root.
inline constexpr const char* kSpanDir = ".bench_out";

// Set-ups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 31;

// The speed of the host, sampled on the thread whose work is being priced.
// Shared virtual machines change speed by up to 2.5x over tens of minutes as
// other tenants' load comes and goes, and every CPU-bound figure moves with
// them. A thread that prices its own work also times, between its work
// items, one slice of a fixed reference computation, by thread CPU time and
// by wall time: the slice then runs on the same core, at about the same
// time, as the work it calibrates. The slice does the kinds of work the
// program does (ordered and hashed maps, small allocations, string
// formatting, regular expressions, sorting, indirect calls) but calls none
// of the program's code, so a change to the program never moves it.
//
// A factor is the median slice cost over a nominal 1 ms: 2 means the slice
// ran at half the nominal speed. CPU-bound figures are reported at nominal
// speed, times divided by the factor and rates multiplied. Time spent in
// slices is kept out of every timed span.
class SpeedProbe {
 public:
  SpeedProbe() {
    cpu_ns_.reserve(1 << 12);
    wall_ns_.reserve(1 << 12);
  }

  // Times one slice on the calling thread.
  void Sample();
  // Adds another thread's samples; both threads must have finished sampling.
  void Merge(const SpeedProbe& other);

  double cpu_factor() const;
  double wall_factor() const;
  size_t samples() const { return cpu_ns_.size(); }
  // Time spent in slices so far, to take out of a span that enclosed them.
  int64_t spent_cpu_ns() const { return spent_cpu_ns_; }
  int64_t spent_wall_ns() const { return spent_wall_ns_; }
  // One line with the sample count and both factors, for the run's output.
  std::string Describe(const std::string& what) const;

 private:
  std::vector<double> cpu_ns_;
  std::vector<double> wall_ns_;
  int64_t spent_cpu_ns_ = 0;
  int64_t spent_wall_ns_ = 0;
};

// Collects what one run prints. Metrics are emitted in insertion order; a
// failed check makes the run incorrect (non-zero exit) but every metric is
// still printed so the failing figure can be read.
class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  // An end-to-end metric. The untraced run reports it; the traced run prints
  // it on a `traced_end_to_end` line instead, for the tracing-overhead
  // comparison.
  void EndToEnd(const std::string& name, double value, const std::string& unit);
  // A per-layer metric (traced run).
  void Metric(const std::string& name, double value, const std::string& unit);
  // A per-layer metric the workload does not exercise: printed as 0 so the
  // metric set is the same on every workload, with the reason on stdout.
  void Absent(const std::string& name, const std::string& unit, const std::string& reason);
  void Check(bool ok, const std::string& what);
  void Note(const std::string& line);

  void CountAttempt(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return check_failures_ == 0; }
  // Prints the traced run's end-to-end figures (when tracing) and then the
  // last stdout line: {"correct", "attempted", "failed", "metrics"}.
  void PrintResult() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  static std::string Json(const std::vector<Entry>& entries);

  bool trace_;
  std::vector<Entry> metrics_;
  std::vector<Entry> traced_end_to_end_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  int check_failures_ = 0;
};

// One timed interval recorded from the benchmark's own files, around a call
// into a layer's public function. Spans of one request share `request`;
// `parent` is the index of the enclosing span in the same log (or -1).
struct Span {
  const char* name;
  uint64_t request;
  int64_t parent;
  int64_t start_ns;
  int64_t end_ns;
};

// In-memory span log with a fixed capacity (spans beyond it are dropped),
// written as JSONL once the run has ended. Single-threaded: each thread
// keeps its own log.
class SpanLog {
 public:
  explicit SpanLog(size_t capacity = 0) { spans_.reserve(capacity); }
  // Returns the span's index, or -1 when the log is full.
  int64_t Add(const char* name, uint64_t request, int64_t parent, int64_t start_ns,
              int64_t end_ns);
  void SetEnd(int64_t index, int64_t end_ns) { spans_[static_cast<size_t>(index)].end_ns = end_ns; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// Writes every log's spans to <dir>/<stem>.spans.jsonl; false on I/O failure.
bool WriteSpans(const std::string& dir, const std::string& stem,
                const std::vector<const SpanLog*>& logs);

int64_t NowNs();        // steady clock
int64_t ThreadCpuNs();  // CPU time of the calling thread
double PeakRssMb();     // peak resident set of this process

// Nearest-rank quantile of `values` (sorted in place); 0 when empty.
double Quantile(std::vector<double>* values, double q);

// The tail quantile to report for `n` samples: 0.99 when at least ten
// samples lie beyond it, otherwise the highest quantile that keeps ten
// beyond (0 when n < 22 leaves no such quantile).
double TailQuantile(size_t n);

double Median(std::vector<double> values);

// The per-call hook metrics, in the order ingest's requests make the calls.
inline constexpr const char* kHookMetrics[] = {
    "capi.create_cancel_ns",   "frontend.request_start_ns", "frontend.wait_begin_ns",
    "frontend.wait_end_ns",    "capi.slow_begin_ns",        "capi.slow_end_ns",
    "capi.get_resource_ns",    "capi.report_progress_ns",   "capi.free_resource_ns",
    "frontend.request_end_ns", "capi.free_cancel_ns",
};

// Mean spacing of window-closed events in a flight-recorder trace, in ms.
double MeanWindowSpacingMs(const std::vector<atropos::FlightEvent>& events);

// Mean time from each `from` event to the first later `to` event, in ms,
// skipping a `from` whose episode ends (another `from`) before any `to`.
// `pairs` (optional) receives the number of pairs averaged.
double MeanGapMs(const std::vector<atropos::FlightEvent>& events, atropos::ObsEventKind from,
                 atropos::ObsEventKind to, size_t* pairs = nullptr);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
