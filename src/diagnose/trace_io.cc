#include "src/diagnose/trace_io.h"

#include <cstdio>
#include <cstdlib>
#include <limits>

namespace atropos {

namespace {

// Minimal recursive-descent parser over one line's JSON object. Scoped to
// the exporter's output shape: objects of scalars plus arrays of flat
// objects / numbers. No allocation beyond the strings handed to the event.
class LineParser {
 public:
  LineParser(std::string_view text, size_t line) : text_(text), line_(line) {}

  Status Parse(FlightEvent* out) {
    SkipSpace();
    Status st = ParseEventObject(out);
    if (!st.ok()) {
      return st;
    }
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after event object");
    }
    return Status::Ok();
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("line " + std::to_string(line_) + ": " + what);
  }

  void SkipSpace() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t')) {
      pos_++;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      pos_++;
      return true;
    }
    return false;
  }

  char Peek() {
    SkipSpace();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) {
      return Error("expected string");
    }
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') {
        return Status::Ok();
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out->push_back(esc);
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Error("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; i++) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("bad \\u escape digit");
            }
          }
          // The exporter only emits \u00xx for control bytes.
          out->push_back(static_cast<char>(code & 0xff));
          break;
        }
        default:
          return Error("unknown escape sequence");
      }
    }
    return Error("unterminated string");
  }

  // Unsigned integers (task keys, timestamps, counters) are parsed without a
  // double round-trip: a 64-bit key above 2^53 must survive exactly.
  Status ParseU64(uint64_t* out) {
    SkipSpace();
    size_t start = pos_;
    uint64_t value = 0;
    bool overflow = false;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      const uint64_t digit = static_cast<uint64_t>(text_[pos_] - '0');
      overflow = overflow || value > (std::numeric_limits<uint64_t>::max() - digit) / 10;
      value = value * 10 + digit;
      pos_++;
    }
    if (pos_ == start) {
      return Error("expected unsigned integer");
    }
    if (overflow) {
      return Error("unsigned integer out of range");
    }
    *out = value;
    return Status::Ok();
  }

  Status ParseNumber(double* out) {
    SkipSpace();
    size_t start = pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E') {
        pos_++;
      } else {
        break;
      }
    }
    if (pos_ == start) {
      return Error("expected number");
    }
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    *out = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      return Error("malformed number: " + token);
    }
    return Status::Ok();
  }

  Status ParseBool(bool* out) {
    SkipSpace();
    if (text_.substr(pos_).rfind("true", 0) == 0) {
      pos_ += 4;
      *out = true;
      return Status::Ok();
    }
    if (text_.substr(pos_).rfind("false", 0) == 0) {
      pos_ += 5;
      *out = false;
      return Status::Ok();
    }
    return Error("expected true/false");
  }

  // Skips one value of any supported shape (unknown-key tolerance).
  Status SkipValue() {
    char c = Peek();
    if (c == '"') {
      std::string ignored;
      return ParseString(&ignored);
    }
    if (c == 't' || c == 'f') {
      bool ignored;
      return ParseBool(&ignored);
    }
    if (c == '[') {
      Consume('[');
      if (Consume(']')) {
        return Status::Ok();
      }
      do {
        Status st = SkipValue();
        if (!st.ok()) {
          return st;
        }
      } while (Consume(','));
      return Consume(']') ? Status::Ok() : Error("expected ]");
    }
    if (c == '{') {
      Consume('{');
      if (Consume('}')) {
        return Status::Ok();
      }
      do {
        std::string key;
        Status st = ParseString(&key);
        if (!st.ok()) {
          return st;
        }
        if (!Consume(':')) {
          return Error("expected :");
        }
        st = SkipValue();
        if (!st.ok()) {
          return st;
        }
      } while (Consume(','));
      return Consume('}') ? Status::Ok() : Error("expected }");
    }
    double ignored;
    return ParseNumber(&ignored);
  }

  Status ParseResource(ObsResourceSample* out) {
    if (!Consume('{')) {
      return Error("expected resource object");
    }
    if (Consume('}')) {
      return Status::Ok();
    }
    do {
      std::string key;
      Status st = ParseString(&key);
      if (!st.ok()) {
        return st;
      }
      if (!Consume(':')) {
        return Error("expected :");
      }
      if (key == "id") {
        uint64_t num = 0;
        st = ParseU64(&num);
        if (st.ok() && num > std::numeric_limits<uint32_t>::max()) {
          st = Error("resource id out of range");
        }
        out->id = static_cast<uint32_t>(num);
      } else if (key == "name") {
        st = ParseString(&out->name);
      } else if (key == "cls") {
        st = ParseString(&out->cls);
      } else if (key == "c_raw") {
        st = ParseNumber(&out->contention_raw);
      } else if (key == "c_norm") {
        st = ParseNumber(&out->contention_norm);
      } else if (key == "delay_us") {
        st = ParseU64(&out->delay_us);
      } else if (key == "overloaded") {
        st = ParseBool(&out->overloaded);
      } else {
        st = SkipValue();
      }
      if (!st.ok()) {
        return st;
      }
    } while (Consume(','));
    return Consume('}') ? Status::Ok() : Error("expected } after resource");
  }

  Status ParseCandidate(ObsCandidateSample* out) {
    if (!Consume('{')) {
      return Error("expected candidate object");
    }
    if (Consume('}')) {
      return Status::Ok();
    }
    do {
      std::string key;
      Status st = ParseString(&key);
      if (!st.ok()) {
        return st;
      }
      if (!Consume(':')) {
        return Error("expected :");
      }
      if (key == "key") {
        st = ParseU64(&out->key);
      } else if (key == "cancellable") {
        st = ParseBool(&out->cancellable);
      } else if (key == "pareto") {
        st = ParseBool(&out->pareto);
      } else if (key == "score") {
        st = ParseNumber(&out->score);
      } else if (key == "gains") {
        if (!Consume('[')) {
          return Error("expected gains array");
        }
        if (!Consume(']')) {
          do {
            double g = 0.0;
            st = ParseNumber(&g);
            if (!st.ok()) {
              return st;
            }
            out->gains.push_back(g);
          } while (Consume(','));
          if (!Consume(']')) {
            return Error("expected ] after gains");
          }
        }
        st = Status::Ok();
      } else {
        st = SkipValue();
      }
      if (!st.ok()) {
        return st;
      }
    } while (Consume(','));
    return Consume('}') ? Status::Ok() : Error("expected } after candidate");
  }

  Status ParseEventObject(FlightEvent* out) {
    if (!Consume('{')) {
      return Error("expected event object");
    }
    if (Consume('}')) {
      return Error("empty event object");
    }
    bool have_kind = false;
    do {
      std::string key;
      Status st = ParseString(&key);
      if (!st.ok()) {
        return st;
      }
      if (!Consume(':')) {
        return Error("expected :");
      }
      if (key == "seq") {
        st = ParseU64(&out->seq);
      } else if (key == "t_us") {
        uint64_t num = 0;
        st = ParseU64(&num);
        out->time = static_cast<TimeMicros>(num);
      } else if (key == "kind") {
        std::string name;
        st = ParseString(&name);
        if (st.ok() && !ParseObsEventKind(name, &out->kind)) {
          return Error("unknown event kind: " + name);
        }
        have_kind = st.ok();
      } else if (key == "key") {
        st = ParseU64(&out->key);
      } else if (key == "value") {
        st = ParseNumber(&out->value);
      } else if (key == "label") {
        st = ParseString(&out->label);
      } else if (key == "completions") {
        st = ParseU64(&out->completions);
      } else if (key == "overdue") {
        st = ParseU64(&out->overdue);
      } else if (key == "resources") {
        if (!Consume('[')) {
          return Error("expected resources array");
        }
        if (!Consume(']')) {
          do {
            ObsResourceSample sample;
            st = ParseResource(&sample);
            if (!st.ok()) {
              return st;
            }
            out->resources.push_back(std::move(sample));
          } while (Consume(','));
          if (!Consume(']')) {
            return Error("expected ] after resources");
          }
        }
        st = Status::Ok();
      } else if (key == "candidates") {
        if (!Consume('[')) {
          return Error("expected candidates array");
        }
        if (!Consume(']')) {
          do {
            ObsCandidateSample sample;
            st = ParseCandidate(&sample);
            if (!st.ok()) {
              return st;
            }
            out->candidates.push_back(std::move(sample));
          } while (Consume(','));
          if (!Consume(']')) {
            return Error("expected ] after candidates");
          }
        }
        st = Status::Ok();
      } else {
        st = SkipValue();
      }
      if (!st.ok()) {
        return st;
      }
    } while (Consume(','));
    if (!Consume('}')) {
      return Error("expected } after event");
    }
    if (!have_kind) {
      return Error("event missing \"kind\"");
    }
    return Status::Ok();
  }

  std::string_view text_;
  size_t line_;
  size_t pos_ = 0;
};

}  // namespace

bool ParseObsEventKind(std::string_view name, ObsEventKind* out) {
  for (int i = 0; i <= static_cast<int>(ObsEventKind::kTaskDropped); i++) {
    ObsEventKind kind = static_cast<ObsEventKind>(i);
    if (ObsEventKindName(kind) == name) {
      *out = kind;
      return true;
    }
  }
  return false;
}

StatusOr<std::vector<FlightEvent>> ParseEventsJsonl(std::string_view text) {
  std::vector<FlightEvent> events;
  size_t line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    std::string_view line =
        eol == std::string_view::npos ? text.substr(pos) : text.substr(pos, eol - pos);
    line_no++;
    if (!line.empty() && line.back() == '\r') {
      line.remove_suffix(1);
    }
    bool blank = true;
    for (char c : line) {
      if (c != ' ' && c != '\t') {
        blank = false;
        break;
      }
    }
    if (!blank) {
      FlightEvent ev;
      Status st = LineParser(line, line_no).Parse(&ev);
      if (!st.ok()) {
        return st;
      }
      events.push_back(std::move(ev));
    }
    if (eol == std::string_view::npos) {
      break;
    }
    pos = eol + 1;
  }
  return events;
}

StatusOr<std::vector<FlightEvent>> ReadTraceFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open trace file: " + path);
  }
  std::string body;
  char buf[65536];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    body.append(buf, n);
  }
  std::fclose(f);
  return ParseEventsJsonl(body);
}

}  // namespace atropos
