// Check interface and the analysis units (per-file and whole-program).
//
// The driver lexes + outlines every collected file into a Program, builds the
// cross-file call graph over it, and hands the whole Program to each check.
// File-local checks override Analyze and get called once per file by the
// default AnalyzeProgram; whole-program checks (cancel-action-safety,
// guarded-by) override AnalyzeProgram directly. Checks must be deterministic:
// given the same file bytes they produce the same diagnostics in the same
// order (the golden corpus in tests/lint/ pins this).

#ifndef TOOLS_ATROPOS_LINT_CHECK_H_
#define TOOLS_ATROPOS_LINT_CHECK_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "tools/atropos_lint/call_graph.h"
#include "tools/atropos_lint/diagnostics.h"
#include "tools/atropos_lint/lexer.h"
#include "tools/atropos_lint/outline.h"

namespace atropos::lint {

struct SourceFile {
  std::string path;          // as provided to the driver (used in diagnostics)
  std::string repo_path;     // normalized path relative to the repo root, or path
  LexedFile lex;
  Outline outline;

  const std::vector<Token>& tokens() const { return lex.tokens; }
};

// The whole analysis unit: every collected file (sorted by path by the
// driver) plus the call graph resolved across them.
struct Program {
  std::vector<SourceFile> files;
  CallGraph call_graph;
};

class Check {
 public:
  virtual ~Check() = default;
  virtual std::string_view name() const = 0;
  // File-local analysis; the default AnalyzeProgram calls this per file.
  virtual void Analyze(const SourceFile& file, DiagnosticSink* sink) {
    (void)file;
    (void)sink;
  }
  // Whole-program analysis. Override for checks that follow cross-file edges.
  virtual void AnalyzeProgram(const Program& program, DiagnosticSink* sink);
};

// Factory per check; `MakeAllChecks` returns them in canonical order.
std::unique_ptr<Check> MakeAtomicsProtocolCheck();
std::unique_ptr<Check> MakeCapiPairingCheck();
std::unique_ptr<Check> MakeCancelActionSafetyCheck();
std::unique_ptr<Check> MakeDeterminismCheck();
std::unique_ptr<Check> MakeGuardedByCheck();
std::vector<std::unique_ptr<Check>> MakeAllChecks();

// The stale-suppression pass is implemented by the driver (it needs the
// post-suppression audit), but participates in check listing/selection under
// this name.
inline constexpr std::string_view kStaleSuppressionCheck = "stale-suppression";

// Every name --checks accepts, in --list-checks order: the checks in
// canonical order, then stale-suppression.
std::vector<std::string> CheckNames();

}  // namespace atropos::lint

#endif  // TOOLS_ATROPOS_LINT_CHECK_H_
