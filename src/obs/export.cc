#include "src/obs/export.h"

#include <cstdio>
#include <sstream>

#include "src/common/clock.h"
#include "src/common/json_writer.h"
#include "src/common/table.h"

namespace atropos {

namespace {

// %g keeps the common integral values ("3", "0.25") short while preserving
// enough precision for scores and contention levels.
void AppendJsonDouble(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

}  // namespace

std::string EventToJson(const FlightEvent& ev) {
  std::string out;
  out.reserve(160);
  out += "{\"seq\":";
  out += std::to_string(ev.seq);
  out += ",\"t_us\":";
  out += std::to_string(ev.time);
  out += ",\"kind\":";
  AppendJsonString(out, ObsEventKindName(ev.kind));
  if (ev.key != 0) {
    out += ",\"key\":";
    out += std::to_string(ev.key);
  }
  if (ev.value != 0.0) {
    out += ",\"value\":";
    AppendJsonDouble(out, ev.value);
  }
  if (!ev.label.empty()) {
    out += ",\"label\":";
    AppendJsonString(out, ev.label);
  }
  if (ev.completions != 0 || ev.overdue != 0) {
    out += ",\"completions\":";
    out += std::to_string(ev.completions);
    out += ",\"overdue\":";
    out += std::to_string(ev.overdue);
  }
  if (!ev.resources.empty()) {
    out += ",\"resources\":[";
    bool first = true;
    for (const ObsResourceSample& r : ev.resources) {
      if (!first) out.push_back(',');
      first = false;
      out += "{\"id\":";
      out += std::to_string(r.id);
      out += ",\"name\":";
      AppendJsonString(out, r.name);
      out += ",\"cls\":";
      AppendJsonString(out, r.cls);
      out += ",\"c_raw\":";
      AppendJsonDouble(out, r.contention_raw);
      out += ",\"c_norm\":";
      AppendJsonDouble(out, r.contention_norm);
      out += ",\"delay_us\":";
      out += std::to_string(r.delay_us);
      out += ",\"overloaded\":";
      out += r.overloaded ? "true" : "false";
      out.push_back('}');
    }
    out.push_back(']');
  }
  if (!ev.candidates.empty()) {
    out += ",\"candidates\":[";
    bool first = true;
    for (const ObsCandidateSample& c : ev.candidates) {
      if (!first) out.push_back(',');
      first = false;
      out += "{\"key\":";
      out += std::to_string(c.key);
      out += ",\"cancellable\":";
      out += c.cancellable ? "true" : "false";
      out += ",\"pareto\":";
      out += c.pareto ? "true" : "false";
      out += ",\"score\":";
      AppendJsonDouble(out, c.score);
      out += ",\"gains\":[";
      for (size_t i = 0; i < c.gains.size(); i++) {
        if (i != 0) out.push_back(',');
        AppendJsonDouble(out, c.gains[i]);
      }
      out += "]}";
    }
    out.push_back(']');
  }
  out.push_back('}');
  return out;
}

std::string EventsToJsonl(const std::vector<FlightEvent>& events) {
  std::string out;
  for (const FlightEvent& ev : events) {
    out += EventToJson(ev);
    out.push_back('\n');
  }
  return out;
}

Status WriteJsonl(const std::string& path, const std::vector<FlightEvent>& events) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    return Status::Unavailable("cannot open trace file: " + path);
  }
  std::string body = EventsToJsonl(events);
  size_t written = std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  if (written != body.size()) {
    return Status::Internal("short write to trace file: " + path);
  }
  return Status::Ok();
}

std::string SeriesToCsv(const SeriesRecorder& series) {
  std::string out = "time_s";
  for (const std::string& col : series.columns()) {
    out.push_back(',');
    out += col;
  }
  out.push_back('\n');
  char buf[64];
  for (const SeriesRecorder::Row& row : series.rows()) {
    std::snprintf(buf, sizeof(buf), "%.3f", ToSeconds(row.time));
    out += buf;
    for (double v : row.values) {
      std::snprintf(buf, sizeof(buf), ",%.6g", v);
      out += buf;
    }
    out.push_back('\n');
  }
  return out;
}

Status WriteFile(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Unavailable("cannot open file: " + path);
  }
  size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  std::fclose(f);
  if (written != contents.size()) {
    return Status::Internal("short write to file: " + path);
  }
  return Status::Ok();
}

std::string RenderPostMortem(const std::vector<FlightEvent>& events,
                             const MetricsRegistry::Snapshot& metrics) {
  std::ostringstream out;
  out << "=== post-mortem: controller decisions ===\n";
  TextTable decisions({"t_s", "event", "key", "detail"});
  for (const FlightEvent& ev : events) {
    std::string detail;
    switch (ev.kind) {
      case ObsEventKind::kOverloadEntered:
      case ObsEventKind::kOverloadExited:
        detail = ev.label;
        break;
      case ObsEventKind::kContentionSnapshot: {
        for (const ObsResourceSample& r : ev.resources) {
          if (!r.overloaded) continue;
          if (!detail.empty()) detail += ", ";
          detail += r.name + "=" + TextTable::Num(r.contention_norm);
        }
        if (detail.empty()) detail = "no resource over threshold";
        break;
      }
      case ObsEventKind::kPolicyDecision: {
        size_t pareto = 0;
        for (const ObsCandidateSample& c : ev.candidates) pareto += c.pareto ? 1 : 0;
        detail = std::to_string(ev.candidates.size()) + " candidates, " +
                 std::to_string(pareto) + " pareto, winner score " + TextTable::Num(ev.value);
        break;
      }
      case ObsEventKind::kCancelIssued:
      case ObsEventKind::kCancelCompleted:
      case ObsEventKind::kTaskRetried:
      case ObsEventKind::kTaskDropped:
        detail = ev.label;
        break;
      default:
        continue;  // windows and run markers stay in the JSONL trace only
    }
    decisions.AddRow({TextTable::Num(ToSeconds(ev.time), 3),
                      std::string(ObsEventKindName(ev.kind)),
                      ev.key != 0 ? std::to_string(ev.key) : "",
                      detail});
  }
  if (decisions.row_count() == 0) {
    out << "(no controller decisions recorded)\n";
  } else {
    out << decisions.Render();
  }

  if (!metrics.counters.empty() || !metrics.histograms.empty()) {
    out << "\n=== post-mortem: metrics ===\n";
    TextTable table({"metric", "value"});
    for (const auto& [name, value] : metrics.counters) {
      table.AddRow({name, std::to_string(value)});
    }
    for (const auto& [name, value] : metrics.gauges) {
      table.AddRow({name, TextTable::Num(value)});
    }
    for (const auto& [name, view] : metrics.histograms) {
      table.AddRow({name + ".count", std::to_string(view.count)});
      table.AddRow({name + ".p50_us", std::to_string(view.p50)});
      table.AddRow({name + ".p99_us", std::to_string(view.p99)});
      table.AddRow({name + ".max_us", std::to_string(view.max)});
    }
    out << table.Render();
  }
  return out.str();
}

}  // namespace atropos
