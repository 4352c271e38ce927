// atropos_lint — domain-specific static analyzer for Atropos API contracts.
//
//   atropos_lint [--checks=a,b] [--dir=DIR]... [--json] [FILE]...
//
// Checks (all enabled by default):
//   atomics-protocol      seq_cst-only protocol words and Dekker handshake
//                         ordering in the abortable-sync layer (DESIGN.md §16)
//   capi-pairing          createCancel/freeCancel and getResource/freeResource
//                         balance per scope; double-frees and leaks
//   cancel-action-safety  no blocking, allocation, or throw reachable from
//                         cancellation initiators, across translation units
//   determinism           no ambient time/randomness in digest paths
//   guarded-by            ATROPOS_GUARDED_BY / ATROPOS_REQUIRES annotations
//                         verified against the lock scopes actually held
//   stale-suppression     allow()/allow-file() markers that no longer match
//                         any diagnostic (full runs only)
//
// Exit status: 0 when no findings, 1 when findings were reported, 2 on usage
// errors (an unknown flag or --checks name). Suppress individual findings with `// atropos-lint: allow(check)`.
//
// --json emits a machine-readable report on stdout instead of the plain
// diagnostic lines; scripts/check.sh uses it to track lint wall time in the
// perf trajectory.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "src/common/json_writer.h"
#include "tools/atropos_lint/check.h"
#include "tools/atropos_lint/driver.h"

namespace {

void SplitCommaList(const char* list, std::set<std::string>* out) {
  std::string cur;
  for (const char* p = list;; p++) {
    if (*p == ',' || *p == '\0') {
      if (!cur.empty()) {
        out->insert(cur);
      }
      cur.clear();
      if (*p == '\0') {
        break;
      }
    } else {
      cur.push_back(*p);
    }
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: atropos_lint [--checks=a,b] [--list-checks] [--json] [--dir=DIR]... "
               "[FILE]...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  atropos::lint::DriverOptions options;
  bool quiet = false;
  bool json = false;
  for (int i = 1; i < argc; i++) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--checks=", 9) == 0) {
      SplitCommaList(arg + 9, &options.checks);
    } else if (std::strncmp(arg, "--dir=", 6) == 0) {
      options.dirs.push_back(arg + 6);
    } else if (std::strcmp(arg, "--dir") == 0 && i + 1 < argc) {
      options.dirs.push_back(argv[++i]);
    } else if (std::strcmp(arg, "--list-checks") == 0) {
      for (const std::string& name : atropos::lint::CheckNames()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    } else if (std::strcmp(arg, "--json") == 0) {
      json = true;
    } else if (std::strcmp(arg, "--quiet") == 0) {
      quiet = true;
    } else if (std::strncmp(arg, "--", 2) == 0) {
      return Usage();
    } else {
      options.files.push_back(arg);
    }
  }
  if (options.files.empty() && options.dirs.empty()) {
    return Usage();
  }
  // A misspelt name would otherwise select no check and pass vacuously.
  const std::vector<std::string> known = atropos::lint::CheckNames();
  for (const std::string& name : options.checks) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      std::fprintf(stderr, "atropos_lint: unknown check '%s' (see --list-checks)\n",
                   name.c_str());
      return Usage();
    }
  }

  auto start = std::chrono::steady_clock::now();
  atropos::lint::RunResult result = atropos::lint::RunLint(options);
  double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();

  if (json) {
    std::printf("{\n  \"files\": %zu,\n  \"suppressed\": %zu,\n  \"wall_ms\": %.3f,\n",
                result.files_analyzed, result.suppressed, wall_ms);
    std::printf("  \"findings\": [");
    for (size_t i = 0; i < result.diagnostics.size(); i++) {
      const atropos::lint::Diagnostic& d = result.diagnostics[i];
      std::string row = i == 0 ? "\n    {\"path\": " : ",\n    {\"path\": ";
      atropos::AppendJsonString(row, d.path);
      row += ", \"line\": " + std::to_string(d.line) + ", \"check\": ";
      atropos::AppendJsonString(row, d.check);
      row += ", \"message\": ";
      atropos::AppendJsonString(row, d.message);
      row += "}";
      std::fputs(row.c_str(), stdout);
    }
    std::printf("%s]\n}\n", result.diagnostics.empty() ? "" : "\n  ");
  } else {
    for (const atropos::lint::Diagnostic& d : result.diagnostics) {
      std::printf("%s\n", d.Format().c_str());
    }
  }
  if (!quiet) {
    std::fprintf(stderr,
                 "atropos_lint: %zu file(s), %zu finding(s), %zu suppressed, %.0f ms\n",
                 result.files_analyzed, result.diagnostics.size(), result.suppressed, wall_ms);
  }
  return result.diagnostics.empty() ? 0 : 1;
}
