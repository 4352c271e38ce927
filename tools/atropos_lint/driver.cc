#include "tools/atropos_lint/driver.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "tools/atropos_lint/check.h"

namespace atropos::lint {

namespace {

namespace fs = std::filesystem;

bool HasLintableExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp";
}

std::string NormalizeSlashes(std::string s) {
  std::replace(s.begin(), s.end(), '\\', '/');
  return s;
}

// Paths never linted when reached through --dir walking: build trees and the
// lint fixture corpus (fixtures are lint *inputs* with seeded violations).
bool IsExcludedFromWalk(const std::string& normalized) {
  return normalized.find("/build") != std::string::npos ||
         normalized.rfind("build", 0) == 0 ||
         normalized.find("lint/fixtures") != std::string::npos ||
         normalized.find("lint/golden") != std::string::npos;
}

bool CheckEnabled(const std::set<std::string>& enabled, std::string_view name) {
  return enabled.empty() || enabled.count(std::string(name)) > 0;
}

// A suppression grant is only judged stale when everything it names actually
// ran: under a --checks subset, a grant for a disabled check is unknowable
// (it may well suppress a diagnostic on a full run), and a "*" grant is only
// knowable when every check ran.
bool StaleEvaluable(const std::set<std::string>& enabled, const std::string& name) {
  if (name == "*") {
    return enabled.empty();
  }
  return CheckEnabled(enabled, name);
}

// The whole pipeline behind both RunLint and the test entry points: lex +
// outline every source, build the cross-file call graph, run each enabled
// check over the whole program, then apply suppressions per file (with a
// usage audit) and flag stale markers. Stale-suppression findings are
// reported after filtering, so they are themselves unsuppressable.
RunResult LintSources(std::vector<std::pair<std::string, std::string>> sources,
                      const std::set<std::string>& enabled, DiagnosticSink* seeded_sink) {
  Program program;
  program.files.reserve(sources.size());
  for (std::pair<std::string, std::string>& src : sources) {
    SourceFile file;
    file.path = src.first;
    file.repo_path = NormalizeSlashes(src.first);
    file.lex = Lex(src.second);
    file.outline = BuildOutline(file.lex.tokens);
    program.files.push_back(std::move(file));
  }
  program.call_graph.Build(program.files);

  DiagnosticSink local_sink;
  DiagnosticSink& sink = seeded_sink != nullptr ? *seeded_sink : local_sink;
  for (const std::unique_ptr<Check>& check : MakeAllChecks()) {
    if (!CheckEnabled(enabled, check->name())) {
      continue;
    }
    check->AnalyzeProgram(program, &sink);
  }

  std::vector<SuppressionUsage> usages(program.files.size());
  for (size_t i = 0; i < program.files.size(); i++) {
    const SourceFile& file = program.files[i];
    sink.ApplySuppressions(file.path, file.lex.line_suppressions, file.lex.file_suppressions,
                           &usages[i]);
  }

  if (CheckEnabled(enabled, kStaleSuppressionCheck)) {
    for (size_t i = 0; i < program.files.size(); i++) {
      const SourceFile& file = program.files[i];
      for (const SuppressionSite& site : file.lex.suppression_sites) {
        if (!StaleEvaluable(enabled, site.check)) {
          continue;
        }
        if (usages[i].line_used.count({site.target_line, site.check}) == 0) {
          sink.Report(file.path, site.directive_line, std::string(kStaleSuppressionCheck),
                      "suppression 'allow(" + site.check +
                          ")' does not match any diagnostic; remove the stale marker");
        }
      }
      for (const auto& [check, line] : file.lex.file_suppression_lines) {
        if (!StaleEvaluable(enabled, check)) {
          continue;
        }
        if (usages[i].file_used.count(check) == 0) {
          sink.Report(file.path, line, std::string(kStaleSuppressionCheck),
                      "suppression 'allow-file(" + check +
                          ")' does not match any diagnostic; remove the stale marker");
        }
      }
    }
  }

  sink.Finalize();
  RunResult result;
  result.diagnostics = sink.diagnostics();
  result.suppressed = sink.suppressed_count();
  result.files_analyzed = program.files.size();
  return result;
}

}  // namespace

void Check::AnalyzeProgram(const Program& program, DiagnosticSink* sink) {
  for (const SourceFile& file : program.files) {
    Analyze(file, sink);
  }
}

std::vector<std::unique_ptr<Check>> MakeAllChecks() {
  std::vector<std::unique_ptr<Check>> checks;
  checks.push_back(MakeAtomicsProtocolCheck());
  checks.push_back(MakeCapiPairingCheck());
  checks.push_back(MakeCancelActionSafetyCheck());
  checks.push_back(MakeDeterminismCheck());
  checks.push_back(MakeGuardedByCheck());
  return checks;
}

std::vector<std::string> CheckNames() {
  std::vector<std::string> names;
  for (const std::unique_ptr<Check>& check : MakeAllChecks()) {
    names.emplace_back(check->name());
  }
  names.emplace_back(kStaleSuppressionCheck);
  return names;
}

RunResult RunLint(const DriverOptions& options) {
  std::vector<std::string> paths = options.files;
  for (const std::string& dir : options.dirs) {
    std::error_code ec;
    fs::recursive_directory_iterator it(dir, ec);
    if (ec) {
      continue;
    }
    for (const fs::directory_entry& entry : it) {
      if (!entry.is_regular_file() || !HasLintableExtension(entry.path())) {
        continue;
      }
      std::string p = NormalizeSlashes(entry.path().generic_string());
      if (IsExcludedFromWalk(p)) {
        continue;
      }
      paths.push_back(p);
    }
  }
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());

  DiagnosticSink sink;
  std::vector<std::pair<std::string, std::string>> sources;
  sources.reserve(paths.size());
  for (const std::string& path : paths) {
    std::ifstream in(path);
    if (!in) {
      sink.Report(path, 0, "driver", "cannot open file");
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    sources.emplace_back(path, buf.str());
  }
  return LintSources(std::move(sources), options.checks, &sink);
}

RunResult LintBuffer(const std::string& display_path, const std::string& contents,
                     const std::set<std::string>& checks) {
  return LintBuffers({{display_path, contents}}, checks);
}

RunResult LintBuffers(const std::vector<std::pair<std::string, std::string>>& buffers,
                      const std::set<std::string>& checks) {
  return LintSources(buffers, checks, nullptr);
}

}  // namespace atropos::lint
