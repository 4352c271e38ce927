// cancel-action-safety: the cancellation initiator registered through
// setCancelAction / SetCancelAction must be safe to run from inside the
// Atropos control loop (paper §3.6): it only *requests* cancellation — sets a
// flag, signals a token — and returns. Blocking, allocating, or throwing
// inside the initiator turns the mitigation path itself into a liability
// under exactly the overload conditions it exists for.
//
// The check finds every registration site whose argument is a lambda or a
// function (`&F` / `F`), then walks the initiator body plus callees resolved
// through the whole-program call graph (DFS, nested lambdas included,
// cross-file edges followed) flagging:
//   - throw statements and co_await suspensions,
//   - blocking calls: sleeps, joins, condition-variable waits, explicit
//     mutex locking (.lock(), std::lock_guard/unique_lock/scoped_lock,
//     MutexLock),
//   - allocation: new-expressions, malloc family, make_unique/make_shared,
//     and growing container mutations (push_back, insert, resize, ...).
//
// Additionally, the in-place abort entry points of the abortable-sync layer
// (DESIGN.md §16) — DeliverCancel, RequestCancel, RequestCancelAll,
// AbortCell::TryAbort, AbortableQueue::AbortKey — are walked as initiator
// roots wherever they are *defined*, registration site or not: SetCancelAction
// installs DeliverCancel, and the others are the paths it fans out to, so a
// lock or allocation added to any of them reintroduces the §3.6 hazard even
// though the registration lives in another file. With the call graph the walk
// follows the real chain DeliverCancel -> CancelBoard::TryDeliver ->
// AbortCell::TryAbort across translation units.

#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/atropos_lint/check.h"
#include "tools/atropos_lint/guard_scope.h"

namespace atropos::lint {

namespace {

constexpr char kCheckName[] = "cancel-action-safety";

// Interprocedural DFS depth. Cross-file chains are longer than the old
// same-file walks (registration -> DeliverCancel -> board -> cell), so this
// is deeper than the historical limit of 4.
constexpr int kMaxWalkDepth = 6;

const char* BlockingCallReason(const std::string& name) {
  static const std::set<std::string> kBlocking = {
      "sleep",      "usleep",     "nanosleep", "sleep_for", "sleep_until",
      "wait",       "wait_for",   "wait_until", "join",     "lock",
      "lock_guard", "unique_lock", "scoped_lock", "lock_shared", "MutexLock",
  };
  return kBlocking.count(name) > 0 ? "blocking call" : nullptr;
}

const char* AllocatingCallReason(const std::string& name) {
  static const std::set<std::string> kAlloc = {
      "malloc",     "calloc",       "realloc", "strdup",      "make_unique",
      "make_shared", "push_back",   "emplace_back", "emplace", "insert",
      "resize",     "reserve",      "append",  "push_front",  "emplace_front",
  };
  return kAlloc.count(name) > 0 ? "allocating call" : nullptr;
}

class CancelActionSafetyCheck final : public Check {
 public:
  std::string_view name() const override { return kCheckName; }

  void AnalyzeProgram(const Program& program, DiagnosticSink* sink) override {
    std::set<FunctionRef> analyzed;

    for (size_t fi = 0; fi < program.files.size(); fi++) {
      const SourceFile& file = program.files[fi];
      const std::vector<Token>& toks = file.tokens();

      for (size_t i = 0; i + 1 < toks.size(); i++) {
        if (toks[i].kind != TokenKind::kIdentifier ||
            (toks[i].text != "setCancelAction" && toks[i].text != "SetCancelAction") ||
            !toks[i + 1].IsPunct("(")) {
          continue;
        }
        // Registration *call sites* only: a definition's parameter list is
        // followed by `{` (or `)` ... `{`), and its name is preceded by a type.
        // Distinguish cheaply: a call is inside some function body.
        if (file.outline.EnclosingFunction(i) < 0) {
          continue;
        }
        size_t arg = i + 2;
        if (toks[arg].IsPunct("&") && toks[arg + 1].kind == TokenKind::kIdentifier) {
          WalkNamedInitiator(program, static_cast<int>(fi), toks[arg + 1].text, &analyzed, sink);
        } else if (toks[arg].kind == TokenKind::kIdentifier && toks[arg + 1].IsPunct(")")) {
          WalkNamedInitiator(program, static_cast<int>(fi), toks[arg].text, &analyzed, sink);
        } else if (toks[arg].IsPunct("[")) {
          // Lambda argument: the outline has a lambda whose body starts after
          // this capture list; find the first lambda at or after `arg`.
          int lambda = FindLambdaAt(file, arg);
          if (lambda >= 0) {
            Walk(program, FunctionRef{static_cast<int>(fi), lambda}, 0, &analyzed, sink);
          }
        }
      }

      // Initiator-root rule: the abortable-sync entry points are reachable
      // from the cancel action by contract; walk their definitions
      // unconditionally.
      static const std::set<std::string> kInitiatorRoots = {
          "DeliverCancel", "RequestCancel", "RequestCancelAll", "TryAbort", "AbortKey",
      };
      for (size_t f = 0; f < file.outline.functions.size(); f++) {
        const FunctionInfo& fn = file.outline.functions[f];
        if (!fn.is_lambda && kInitiatorRoots.count(fn.name) > 0) {
          Walk(program, FunctionRef{static_cast<int>(fi), static_cast<int>(f)}, 0, &analyzed,
               sink);
        }
      }
    }
  }

 private:
  static int FindLambdaAt(const SourceFile& file, size_t token_index) {
    int best = -1;
    size_t best_begin = static_cast<size_t>(-1);
    for (size_t f = 0; f < file.outline.functions.size(); f++) {
      const FunctionInfo& fn = file.outline.functions[f];
      if (fn.is_lambda && fn.body_begin >= token_index && fn.body_begin < best_begin) {
        best = static_cast<int>(f);
        best_begin = fn.body_begin;
      }
    }
    return best;
  }

  // A named initiator (`SetCancelAction(&Kill)`): same-file definitions win;
  // otherwise every program-wide definition of the name is a candidate root,
  // capped like any other name-based resolution.
  void WalkNamedInitiator(const Program& program, int file_index, const std::string& name,
                          std::set<FunctionRef>* analyzed, DiagnosticSink* sink) {
    std::vector<FunctionRef> defs = program.call_graph.DefinitionsNamed(name);
    std::vector<FunctionRef> same_file;
    for (const FunctionRef& ref : defs) {
      if (ref.file == file_index) {
        same_file.push_back(ref);
      }
    }
    const std::vector<FunctionRef>& roots =
        !same_file.empty()
            ? same_file
            : (defs.size() <= CallGraph::kMaxCrossFileCandidates ? defs : same_file);
    for (const FunctionRef& ref : roots) {
      Walk(program, ref, 0, analyzed, sink);
    }
  }

  // Walks a function's body (including nested lambdas, which belong to the
  // initiator's execution), recursing into call-graph-resolved callees.
  void Walk(const Program& program, FunctionRef ref, int depth, std::set<FunctionRef>* analyzed,
            DiagnosticSink* sink) {
    if (depth > kMaxWalkDepth || !analyzed->insert(ref).second) {
      return;
    }
    const SourceFile& file = program.files[static_cast<size_t>(ref.file)];
    const FunctionInfo& fn = file.outline.functions[static_cast<size_t>(ref.fn)];
    const std::vector<Token>& toks = file.tokens();
    const std::string where =
        fn.is_lambda ? "cancellation initiator" : "initiator path through '" + fn.name + "'";

    std::map<size_t, const CallSite*> sites;
    for (const CallSite& site : program.call_graph.CallsIn(ref)) {
      sites[site.token] = &site;
    }

    for (size_t i = fn.body_begin + 1; i < fn.body_end; i++) {
      const Token& t = toks[i];
      if (t.kind != TokenKind::kIdentifier) {
        continue;
      }
      if (t.text == "throw") {
        sink->Report(file.path, t.line, kCheckName,
                     "throw inside the " + where + "; initiators must not throw");
        continue;
      }
      if (t.text == "co_await") {
        sink->Report(file.path, t.line, kCheckName,
                     "co_await inside the " + where + "; initiators must not suspend");
        continue;
      }
      if (t.text == "new" && !toks[i + 1].IsPunct("(")) {
        // `new T(...)` — operator new allocates. (Placement new is rare
        // enough to annotate explicitly.)
        sink->Report(file.path, t.line, kCheckName,
                     "new-expression inside the " + where + "; initiators must not allocate");
        continue;
      }
      // A guard declared without template arguments is a call too:
      // MutexLock guard(mu).
      const bool is_call = i + 1 < toks.size() &&
                           (toks[i + 1].IsPunct("(") ||
                            (IsGuardType(t.text) && toks[i + 1].kind == TokenKind::kIdentifier));
      if (!is_call) {
        continue;
      }
      // Guard objects are "calls" too: std::lock_guard<std::mutex> lk(mu).
      if (const char* reason = BlockingCallReason(t.text)) {
        sink->Report(file.path, t.line, kCheckName,
                     std::string(reason) + " '" + t.text + "' inside the " + where);
        continue;
      }
      if (const char* reason = AllocatingCallReason(t.text)) {
        sink->Report(file.path, t.line, kCheckName,
                     std::string(reason) + " '" + t.text + "' inside the " + where);
        continue;
      }
      // Recurse into every definition the call graph resolves this call to —
      // same-file by preference, across translation units otherwise.
      auto site = sites.find(i);
      if (site != sites.end()) {
        for (const FunctionRef& target : site->second->targets) {
          if (!(target == ref)) {
            Walk(program, target, depth + 1, analyzed, sink);
          }
        }
      }
    }

    // Guard declarations without a call-shaped "(": std::lock_guard<std::mutex>
    // lk(mu); — the guard type name is followed by "<", not "(".
    for (size_t i = fn.body_begin + 1; i < fn.body_end; i++) {
      const Token& t = toks[i];
      if (t.kind == TokenKind::kIdentifier && toks[i + 1].IsPunct("<") &&
          (t.text == "lock_guard" || t.text == "unique_lock" || t.text == "scoped_lock" ||
           t.text == "shared_lock")) {
        sink->Report(file.path, t.line, kCheckName,
                     "blocking call '" + t.text + "' inside the " + where);
      }
    }
  }
};

}  // namespace

std::unique_ptr<Check> MakeCancelActionSafetyCheck() {
  return std::make_unique<CancelActionSafetyCheck>();
}

}  // namespace atropos::lint
