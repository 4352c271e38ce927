#include "perfbench/bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <regex>
#include <sstream>
#include <unordered_map>

namespace perfbench {

namespace {

constexpr double kNominalSliceNs = 1e6;

// The reference slice: a fixed sequence of ordered-map churn with small heap
// blocks and a sort, then string formatting, regular-expression matching, a
// hashed map and indirect calls. About 1 ms on a 2.1 GHz Xeon core.
uint64_t ReferenceSlice() {
  std::map<uint64_t, uint64_t> table;
  std::vector<std::unique_ptr<uint64_t[]>> blocks(64);
  std::vector<uint64_t> sorted;
  uint64_t x = 0x9e3779b97f4a7c15ull;
  uint64_t acc = 0;
  for (int i = 0; i < 1600; i++) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[x & 2047] += x;
    auto it = table.lower_bound((x >> 11) & 2047);
    if (it != table.end() && (i & 1) != 0) {
      acc += it->second;
      table.erase(it);
    }
    blocks[i & 63].reset(new uint64_t[2 + (x & 15)]);
    blocks[i & 63][0] = x;
    sorted.push_back(x >> 3);
  }
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); i += 7) {
    acc = (acc ^ sorted[i]) * 0x100000001b3ull;
  }

  static const std::regex kName("([a-z]+)([0-9]+)-([0-9]+)\\.(corpus|trace)");
  const std::function<uint64_t(uint64_t)> mix[] = {
      [](uint64_t v) { return v * 3 + 1; },
      [](uint64_t v) { return v ^ (v >> 5); },
      [](uint64_t v) { return v + 0x9e37; },
  };
  std::unordered_map<std::string, uint64_t> names;
  std::vector<std::string> words;
  for (int i = 0; i < 120; i++) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::ostringstream os;
    os << "case" << (x % 97) << "-" << (x >> 40) << (i % 3 != 0 ? ".corpus" : ".trace") << " "
       << static_cast<double>(x % 1000) / 7.0;
    std::string word = os.str();
    std::smatch m;
    if (std::regex_search(word, m, kName)) {
      acc += static_cast<uint64_t>(m[3].length());
    }
    names[word.substr(0, 8)] += mix[x % 3](x);
    words.push_back(std::move(word));
  }
  std::sort(words.begin(), words.end());
  for (const auto& [name, v] : names) {
    acc += v + name.size();
  }
  return acc + table.size() + blocks[7][0] + words.front().size();
}

// Shortest round-trip form, so every digit the measurement has is printed.
std::string FormatDouble(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

void SpeedProbe::Sample() {
  const int64_t c0 = ThreadCpuNs();
  const int64_t w0 = NowNs();
  volatile uint64_t sink = ReferenceSlice();
  (void)sink;
  const int64_t wall = NowNs() - w0;
  const int64_t cpu = ThreadCpuNs() - c0;
  wall_ns_.push_back(static_cast<double>(wall));
  cpu_ns_.push_back(static_cast<double>(cpu));
  spent_wall_ns_ += wall;
  spent_cpu_ns_ += cpu;
}

void SpeedProbe::Merge(const SpeedProbe& other) {
  cpu_ns_.insert(cpu_ns_.end(), other.cpu_ns_.begin(), other.cpu_ns_.end());
  wall_ns_.insert(wall_ns_.end(), other.wall_ns_.begin(), other.wall_ns_.end());
  spent_wall_ns_ += other.spent_wall_ns_;
  spent_cpu_ns_ += other.spent_cpu_ns_;
}

double SpeedProbe::cpu_factor() const {
  return cpu_ns_.empty() ? 1.0 : Median(cpu_ns_) / kNominalSliceNs;
}

double SpeedProbe::wall_factor() const {
  return wall_ns_.empty() ? 1.0 : Median(wall_ns_) / kNominalSliceNs;
}

std::string SpeedProbe::Describe(const std::string& what) const {
  return "host speed (" + what + "): " + std::to_string(samples()) +
         " reference slices, cpu factor " + std::to_string(cpu_factor()) + ", wall factor " +
         std::to_string(wall_factor());
}

void Report::EndToEnd(const std::string& name, double value, const std::string& unit) {
  if (!trace_) {
    Metric(name, value, unit);
    return;
  }
  traced_end_to_end_.push_back(Entry{name, std::isfinite(value) ? value : 0.0, unit});
}

void Report::Metric(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) {
    Check(false, name + " is a finite number");
    value = 0.0;
  }
  metrics_.push_back(Entry{name, value, unit});
  std::printf("  %-34s %14.6g %s\n", name.c_str(), value, unit.c_str());
}

void Report::Absent(const std::string& name, const std::string& unit, const std::string& reason) {
  metrics_.push_back(Entry{name, 0.0, unit});
  std::printf("  %-34s %14s %s  (absent: %s)\n", name.c_str(), "0", unit.c_str(),
              reason.c_str());
}

void Report::Check(bool ok, const std::string& what) {
  std::printf("check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) {
    check_failures_++;
  }
}

void Report::Note(const std::string& line) { std::printf("%s\n", line.c_str()); }

std::string Report::Json(const std::vector<Entry>& entries) {
  std::string out = "{";
  for (size_t i = 0; i < entries.size(); i++) {
    const Entry& m = entries[i];
    if (i > 0) {
      out += ", ";
    }
    out += "\"" + m.name + "\": {\"value\": " + FormatDouble(m.value) + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  return out + "}";
}

void Report::PrintResult() const {
  if (trace_) {
    std::printf("traced_end_to_end %s\n", Json(traced_end_to_end_).c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct() ? "true" : "false", static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_), Json(metrics_).c_str());
  std::fflush(stdout);
}

int64_t SpanLog::Add(const char* name, uint64_t request, int64_t parent, int64_t start_ns,
                     int64_t end_ns) {
  if (spans_.size() == spans_.capacity()) {
    return -1;
  }
  spans_.push_back(Span{name, request, parent, start_ns, end_ns});
  return static_cast<int64_t>(spans_.size()) - 1;
}

bool WriteSpans(const std::string& dir, const std::string& stem,
                const std::vector<const SpanLog*>& logs) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::ofstream out(dir + "/" + stem + ".spans.jsonl");
  for (size_t t = 0; t < logs.size(); t++) {
    for (const Span& s : logs[t]->spans()) {
      // Parent indices are local to a log; prefix them with the log number so
      // ids stay unique across threads.
      out << "{\"name\":\"" << s.name << "\",\"log\":" << t << ",\"request\":" << s.request
          << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << "}\n";
    }
  }
  out.flush();
  return static_cast<bool>(out);
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) {
    return 0.0;
  }
  std::sort(values->begin(), values->end());
  const size_t n = values->size();
  size_t rank = static_cast<size_t>(q * static_cast<double>(n));  // nearest rank, 0-based
  if (rank >= n) {
    rank = n - 1;
  }
  return (*values)[rank];
}

double TailQuantile(size_t n) {
  if (n < 22) {
    return 0.0;
  }
  // Quantile() takes the value at rank floor(q*n), leaving n-1-rank samples
  // beyond it; rank n-11 leaves exactly ten.
  const double q = static_cast<double>(n - 11) / static_cast<double>(n);
  return std::min(0.99, q);
}

double Median(std::vector<double> values) { return Quantile(&values, 0.5); }

double MeanWindowSpacingMs(const std::vector<atropos::FlightEvent>& events) {
  double first = 0, last = 0;
  size_t closed = 0;
  for (const atropos::FlightEvent& e : events) {
    if (e.kind == atropos::ObsEventKind::kWindowClosed) {
      last = atropos::ToMillis(e.time);
      first = closed == 0 ? last : first;
      closed++;
    }
  }
  return closed > 1 ? (last - first) / static_cast<double>(closed - 1) : 0.0;
}

double MeanGapMs(const std::vector<atropos::FlightEvent>& events, atropos::ObsEventKind from,
                 atropos::ObsEventKind to, size_t* pairs) {
  double sum = 0;
  size_t n = 0;
  for (size_t i = 0; i < events.size(); i++) {
    if (events[i].kind != from) {
      continue;
    }
    for (size_t j = i + 1; j < events.size(); j++) {
      if (events[j].kind == to) {
        sum += atropos::ToMillis(events[j].time - events[i].time);
        n++;
        break;
      }
      if (events[j].kind == from) {
        break;
      }
    }
  }
  if (pairs != nullptr) {
    *pairs = n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace perfbench
