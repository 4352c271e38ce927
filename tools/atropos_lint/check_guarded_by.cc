// guarded-by: lockset verification of the ATROPOS_GUARDED_BY /
// ATROPOS_REQUIRES contracts (src/common/thread_annotations.h).
//
// Those macros expand to Clang's thread-safety attributes, but the reference
// toolchain is GCC, where they expand to nothing — the contracts are
// documentation unless something checks them. This check does, token-level,
// program-wide:
//
//   - Every `Type member ATROPOS_GUARDED_BY(mu);` declaration is collected
//     per class. Any access to that member from one of the class's own
//     function bodies (bare `member` or `this->member`; accesses through
//     other objects are out of token-level reach) must occur with `mu` held:
//     lexically inside a scope guard's block (std::lock_guard / unique_lock /
//     scoped_lock / shared_lock / MutexLock), after a bare
//     `.lock()` without a matching `.unlock()`, or inside a function
//     annotated ATROPOS_REQUIRES(mu).
//   - Every call that the cross-file call graph resolves to a function
//     annotated ATROPOS_REQUIRES(mu) must occur with `mu` held.
//
// Held-lock tracking uses the shared guard-scope machinery (guard_scope.h).
// Nested lambdas are scanned lexically inside their enclosing function: a
// guard in scope at the lambda's definition site counts as held in its body,
// which is exactly the condition-variable-predicate shape
// (`cv_.wait(lk, [this] { return done_; })`) the annotations are used with.
//
// Deliberate token-level limits: constructors/destructors are skipped
// (members are not yet / no longer shared), functions annotated
// ATROPOS_ACQUIRE / ATROPOS_RELEASE / ATROPOS_TRY_ACQUIRE /
// ATROPOS_NO_THREAD_SAFETY_ANALYSIS are skipped (lock implementations), and
// accesses through a different object (`other.member`) are not checked.

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "tools/atropos_lint/check.h"
#include "tools/atropos_lint/guard_scope.h"

namespace atropos::lint {

namespace {

constexpr char kCheckName[] = "guarded-by";

bool IsGuardedByMacro(const std::string& s) {
  return s == "ATROPOS_GUARDED_BY" || s == "ATROPOS_PT_GUARDED_BY";
}

bool IsRequiresMacro(const std::string& s) {
  return s == "ATROPOS_REQUIRES" || s == "ATROPOS_REQUIRES_SHARED";
}

// Annotations whose presence exempts the function body from verification:
// the function *implements* the locking (or explicitly opts out).
bool IsSkipMacro(const std::string& s) {
  return s == "ATROPOS_ACQUIRE" || s == "ATROPOS_RELEASE" || s == "ATROPOS_TRY_ACQUIRE" ||
         s == "ATROPOS_NO_THREAD_SAFETY_ANALYSIS" || s == "ATROPOS_SCOPED_CAPABILITY";
}

size_t BackwardMatchingOpenParen(const std::vector<Token>& toks, size_t from) {
  int depth = 0;
  for (size_t j = from; j != static_cast<size_t>(-1); j--) {
    if (toks[j].IsPunct(")")) {
      depth++;
    } else if (toks[j].IsPunct("(")) {
      if (--depth == 0) {
        return j;
      }
    }
  }
  return static_cast<size_t>(-1);
}

struct GuardedMember {
  std::string mutex;
  int decl_line = 0;
};

struct AnnotationIndex {
  // class -> member -> guarding mutex (normalized).
  std::map<std::string, std::map<std::string, GuardedMember>> guarded;
  // (class, function) -> mutexes the caller must hold (normalized).
  std::map<std::pair<std::string, std::string>, std::set<std::string>> requires_held;
  // (class, function) whose bodies are exempt from verification.
  std::set<std::pair<std::string, std::string>> skip;
};

class GuardedByCheck final : public Check {
 public:
  std::string_view name() const override { return kCheckName; }

  void AnalyzeProgram(const Program& program, DiagnosticSink* sink) override {
    AnnotationIndex index;
    for (const SourceFile& file : program.files) {
      CollectAnnotations(file, &index);
    }
    if (index.guarded.empty() && index.requires_held.empty()) {
      return;
    }
    for (size_t fi = 0; fi < program.files.size(); fi++) {
      const SourceFile& file = program.files[fi];
      for (size_t fj = 0; fj < file.outline.functions.size(); fj++) {
        if (file.outline.functions[fj].parent != -1) {
          continue;  // nested lambdas are scanned inside their root function
        }
        VerifyFunction(program, FunctionRef{static_cast<int>(fi), static_cast<int>(fj)}, index,
                       sink);
      }
    }
  }

 private:
  // Finds the name and class of the function declaration an annotation macro
  // at token `i` is attached to: walks back over trailing qualifiers and
  // sibling annotations to the parameter list's ")", then takes the
  // identifier before its "(". Returns false when no declaration is found
  // (e.g. a macro mentioned in a non-declaration context).
  static bool DeclaredFunctionFor(const SourceFile& file, size_t i, std::string* cls,
                                  std::string* fn_name) {
    const std::vector<Token>& toks = file.tokens();
    size_t k = i;
    while (k > 0) {
      const Token& t = toks[k - 1];
      if (t.IsIdent("const") || t.IsIdent("noexcept") || t.IsIdent("override") ||
          t.IsIdent("final") || t.IsIdent("ATROPOS_NO_THREAD_SAFETY_ANALYSIS")) {
        k--;
        continue;
      }
      if (t.IsPunct(")")) {
        size_t open = BackwardMatchingOpenParen(toks, k - 1);
        if (open == static_cast<size_t>(-1) || open == 0) {
          return false;
        }
        const Token& before = toks[open - 1];
        if (before.kind == TokenKind::kIdentifier && before.text.rfind("ATROPOS_", 0) == 0) {
          k = open - 1;  // a sibling annotation's argument list; keep walking
          continue;
        }
        if (before.kind != TokenKind::kIdentifier) {
          return false;
        }
        *fn_name = before.text;
        if (open >= 3 && toks[open - 2].IsPunct("::") &&
            toks[open - 3].kind == TokenKind::kIdentifier) {
          *cls = toks[open - 3].text;
        } else {
          *cls = file.outline.EnclosingClass(open - 1);
        }
        return !fn_name->empty();
      }
      return false;
    }
    return false;
  }

  static void CollectAnnotations(const SourceFile& file, AnnotationIndex* index) {
    const std::vector<Token>& toks = file.tokens();
    for (size_t i = 0; i + 1 < toks.size(); i++) {
      const Token& t = toks[i];
      if (t.kind != TokenKind::kIdentifier) {
        continue;
      }
      if (IsGuardedByMacro(t.text) && toks[i + 1].IsPunct("(") && i > 0 &&
          toks[i - 1].kind == TokenKind::kIdentifier) {
        std::vector<std::string> args = SplitLockArgs(toks, i + 1, toks.size());
        std::string cls = file.outline.EnclosingClass(i);
        if (!args.empty() && !cls.empty()) {
          index->guarded[cls].emplace(toks[i - 1].text, GuardedMember{args[0], t.line});
        }
        continue;
      }
      if (IsRequiresMacro(t.text) && toks[i + 1].IsPunct("(")) {
        std::string cls;
        std::string fn_name;
        if (DeclaredFunctionFor(file, i, &cls, &fn_name)) {
          std::vector<std::string> args = SplitLockArgs(toks, i + 1, toks.size());
          index->requires_held[{cls, fn_name}].insert(args.begin(), args.end());
        }
        continue;
      }
      if (IsSkipMacro(t.text)) {
        std::string cls;
        std::string fn_name;
        if (DeclaredFunctionFor(file, i, &cls, &fn_name)) {
          index->skip.emplace(cls, fn_name);
        }
      }
    }
  }

  void VerifyFunction(const Program& program, FunctionRef ref, const AnnotationIndex& index,
                      DiagnosticSink* sink) {
    const SourceFile& file = program.files[static_cast<size_t>(ref.file)];
    const FunctionInfo& fn = file.outline.functions[static_cast<size_t>(ref.fn)];
    const std::vector<Token>& toks = file.tokens();
    const std::string& cls = program.call_graph.ClassOf(ref);

    if (!cls.empty() &&
        (fn.name == cls || fn.name == "~" + cls || index.skip.count({cls, fn.name}) > 0)) {
      return;
    }
    const std::map<std::string, GuardedMember>* members = nullptr;
    if (auto it = index.guarded.find(cls); it != index.guarded.end()) {
      members = &it->second;
    }

    struct Held {
      std::string mutex;
      int depth;  // block depth of the owning guard; -1 bare lock; -2 REQUIRES
    };
    std::vector<Held> held;
    if (auto it = index.requires_held.find({cls, fn.name}); it != index.requires_held.end()) {
      for (const std::string& m : it->second) {
        held.push_back(Held{m, -2});
      }
    }
    auto holds = [&held](const std::string& mutex) {
      for (const Held& h : held) {
        if (h.mutex == mutex) {
          return true;
        }
      }
      return false;
    };

    std::map<size_t, const CallSite*> sites;
    for (const CallSite& site : program.call_graph.CallsIn(ref)) {
      sites[site.token] = &site;
    }

    std::set<std::pair<int, std::string>> reported;  // (line, member/callee)
    int depth = 0;
    for (size_t i = fn.body_begin + 1; i < fn.body_end && i + 1 < toks.size(); i++) {
      const Token& t = toks[i];
      if (t.IsPunct("{")) {
        depth++;
        continue;
      }
      if (t.IsPunct("}")) {
        for (size_t h = held.size(); h-- > 0;) {
          if (held[h].depth == depth) {
            held.erase(held.begin() + static_cast<long>(h));
          }
        }
        depth--;
        continue;
      }
      if (t.kind != TokenKind::kIdentifier) {
        continue;
      }

      if (IsGuardType(t.text)) {
        size_t j = SkipTemplateArgs(toks, i + 1, fn.body_end);
        if (toks[j].kind == TokenKind::kIdentifier && toks[j + 1].IsPunct("(")) {
          for (std::string& m : SplitLockArgs(toks, j + 1, fn.body_end)) {
            if (!m.empty()) {
              held.push_back(Held{std::move(m), depth});
            }
          }
          i = j + 1;
        }
        continue;
      }
      if ((t.text == "lock" || t.text == "lock_shared") && i > 0 &&
          (toks[i - 1].IsPunct(".") || toks[i - 1].IsPunct("->")) && toks[i + 1].IsPunct("(") &&
          toks[i + 2].IsPunct(")")) {
        size_t begin = LockExprStart(toks, i - 1, fn.body_begin);
        std::string m = NormalizeMutexExpr(toks, begin, i - 1);
        if (!m.empty()) {
          held.push_back(Held{std::move(m), -1});
        }
        continue;
      }
      if ((t.text == "unlock" || t.text == "unlock_shared") && i > 0 &&
          (toks[i - 1].IsPunct(".") || toks[i - 1].IsPunct("->")) && toks[i + 1].IsPunct("(")) {
        size_t begin = LockExprStart(toks, i - 1, fn.body_begin);
        std::string m = NormalizeMutexExpr(toks, begin, i - 1);
        for (size_t h = held.size(); h-- > 0;) {
          if (held[h].mutex == m) {
            held.erase(held.begin() + static_cast<long>(h));
            break;
          }
        }
        continue;
      }

      // Guarded-member access: bare `member` or `this->member` only; accesses
      // through another object are beyond token-level resolution.
      if (members != nullptr) {
        auto mit = members->find(t.text);
        if (mit != members->end()) {
          bool self_access = true;
          if (i > 0 && (toks[i - 1].IsPunct(".") || toks[i - 1].IsPunct("->") ||
                        toks[i - 1].IsPunct("::"))) {
            self_access = toks[i - 1].IsPunct("->") && i >= 2 && toks[i - 2].IsIdent("this");
          }
          if (self_access && !holds(mit->second.mutex) &&
              reported.emplace(t.line, t.text).second) {
            sink->Report(file.path, t.line, kCheckName,
                         "member '" + t.text + "' is guarded by '" + mit->second.mutex +
                             "' but accessed without holding it");
          }
        }
      }

      // Calls into ATROPOS_REQUIRES functions, resolved via the call graph.
      auto site = sites.find(i);
      if (site != sites.end()) {
        for (const FunctionRef& target : site->second->targets) {
          if (target == ref) {
            continue;
          }
          const std::string& target_cls = program.call_graph.ClassOf(target);
          const SourceFile& tf = program.files[static_cast<size_t>(target.file)];
          const std::string& target_name =
              tf.outline.functions[static_cast<size_t>(target.fn)].name;
          auto rit = index.requires_held.find({target_cls, target_name});
          if (rit == index.requires_held.end()) {
            continue;
          }
          for (const std::string& m : rit->second) {
            if (!holds(m) && reported.emplace(t.line, target_name).second) {
              sink->Report(file.path, t.line, kCheckName,
                           "call to '" + target_name + "' requires holding '" + m +
                               "' (ATROPOS_REQUIRES) but it is not held here");
            }
          }
        }
      }
    }
  }
};

}  // namespace

std::unique_ptr<Check> MakeGuardedByCheck() { return std::make_unique<GuardedByCheck>(); }

}  // namespace atropos::lint
