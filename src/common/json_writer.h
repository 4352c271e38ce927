// Minimal streaming JSON writer for the machine-readable bench outputs
// (BENCH_*.json). Deliberately tiny: objects, arrays, scalars, correct string
// escaping, two-space indentation — no DOM, no dependencies. The string
// escaper is shared with the trace JSONL exporter and atropos_lint --json.

#ifndef SRC_COMMON_JSON_WRITER_H_
#define SRC_COMMON_JSON_WRITER_H_

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace atropos {

// Appends `s` to `out` as a quoted JSON string: quotes, backslashes and
// control bytes are escaped; every other byte is copied as is.
inline void AppendJsonString(std::string& out, std::string_view s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

class JsonWriter {
 public:
  JsonWriter& BeginObject() {
    Prefix();
    out_ += '{';
    stack_.push_back(false);
    return *this;
  }
  JsonWriter& EndObject() {
    const bool had_items = stack_.back();
    stack_.pop_back();
    if (had_items) {
      Newline();
    }
    out_ += '}';
    return *this;
  }
  JsonWriter& BeginArray() {
    Prefix();
    out_ += '[';
    stack_.push_back(false);
    return *this;
  }
  JsonWriter& EndArray() {
    const bool had_items = stack_.back();
    stack_.pop_back();
    if (had_items) {
      Newline();
    }
    out_ += ']';
    return *this;
  }

  // Starts a named member inside an object; follow with a value call (or
  // BeginObject/BeginArray).
  JsonWriter& Key(std::string_view key) {
    Prefix();
    AppendJsonString(out_, key);
    out_ += ": ";
    pending_value_ = true;
    return *this;
  }

  JsonWriter& String(std::string_view v) {
    Prefix();
    AppendJsonString(out_, v);
    return *this;
  }
  JsonWriter& Int(int64_t v) {
    Prefix();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& Uint(uint64_t v) {
    Prefix();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& Double(double v) {
    Prefix();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    out_ += buf;
    return *this;
  }
  JsonWriter& Bool(bool v) {
    Prefix();
    out_ += v ? "true" : "false";
    return *this;
  }

  // Convenience single-call members.
  JsonWriter& Field(std::string_view key, std::string_view v) { return Key(key).String(v); }
  JsonWriter& Field(std::string_view key, const char* v) {
    return Key(key).String(std::string_view(v));
  }
  JsonWriter& Field(std::string_view key, double v) { return Key(key).Double(v); }
  JsonWriter& Field(std::string_view key, bool v) { return Key(key).Bool(v); }
  JsonWriter& Field(std::string_view key, int v) { return Key(key).Int(v); }
  JsonWriter& Field(std::string_view key, int64_t v) { return Key(key).Int(v); }
  JsonWriter& Field(std::string_view key, uint64_t v) { return Key(key).Uint(v); }

  std::string str() const { return out_; }

  // Writes the document (plus trailing newline) to `path`; returns success.
  bool WriteFile(const std::string& path) const {
    std::ofstream file(path, std::ios::out | std::ios::trunc);
    if (!file) {
      return false;
    }
    file << out_ << "\n";
    return static_cast<bool>(file);
  }

 private:
  // Emits the comma/indent (or nothing, for the value after a Key) that must
  // precede the next token, and marks the enclosing container non-empty.
  void Prefix() {
    if (pending_value_) {
      pending_value_ = false;
      return;
    }
    if (!stack_.empty()) {
      if (stack_.back()) {
        out_ += ',';
      }
      stack_.back() = true;
      Newline();
    }
  }

  void Newline() {
    out_ += '\n';
    for (size_t i = 0; i < stack_.size(); i++) {
      out_ += "  ";
    }
  }

  std::string out_;
  // One entry per open container; true once it has at least one member.
  std::vector<bool> stack_;
  bool pending_value_ = false;
};

}  // namespace atropos

#endif  // SRC_COMMON_JSON_WRITER_H_
