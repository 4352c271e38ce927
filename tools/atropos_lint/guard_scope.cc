#include "tools/atropos_lint/guard_scope.h"

namespace atropos::lint {

bool IsGuardType(const std::string& s) {
  return s == "lock_guard" || s == "unique_lock" || s == "scoped_lock" || s == "shared_lock" ||
         s == "MutexLock";
}

std::string NormalizeMutexExpr(const std::vector<Token>& toks, size_t begin, size_t end) {
  std::string out;
  for (size_t i = begin; i < end; i++) {
    const Token& t = toks[i];
    if (t.IsIdent("this") || t.IsIdent("std") || t.IsPunct("&") || t.IsPunct("*")) {
      continue;
    }
    if (t.IsPunct("->") || t.IsPunct("::")) {
      if (!out.empty()) {
        out += t.text == "->" ? "." : "::";
      }
      continue;
    }
    if (t.kind == TokenKind::kIdentifier || t.IsPunct(".")) {
      out += t.text;
    }
  }
  // `this->mu_` normalized above leaves a leading "." — strip it.
  while (!out.empty() && out.front() == '.') {
    out.erase(out.begin());
  }
  return out;
}

size_t LockExprStart(const std::vector<Token>& toks, size_t end, size_t floor) {
  size_t begin = end;
  while (begin > floor + 1) {
    const Token& p = toks[begin - 1];
    if (p.kind == TokenKind::kIdentifier || p.IsPunct(".") || p.IsPunct("->") ||
        p.IsPunct("::")) {
      begin--;
    } else {
      break;
    }
  }
  return begin;
}

namespace {

// std:: lock tags that make a guard argument a non-acquisition.
bool IsLockTag(const std::string& s) {
  return s == "defer_lock" || s == "adopt_lock" || s == "try_to_lock";
}

void AppendLockArg(const std::vector<Token>& toks, size_t begin, size_t end,
                   std::vector<std::string>* out) {
  for (size_t i = begin; i < end; i++) {
    if (toks[i].kind == TokenKind::kIdentifier && IsLockTag(toks[i].text)) {
      return;  // std::defer_lock etc.: not an acquisition
    }
  }
  std::string m = NormalizeMutexExpr(toks, begin, end);
  if (!m.empty()) {
    out->push_back(std::move(m));
  }
}

}  // namespace

std::vector<std::string> SplitLockArgs(const std::vector<Token>& toks, size_t open,
                                       size_t limit) {
  std::vector<std::string> out;
  int depth = 0;
  size_t arg_begin = open + 1;
  for (size_t i = open; i < limit; i++) {
    if (toks[i].IsPunct("(") || toks[i].IsPunct("[")) {
      depth++;
    } else if (toks[i].IsPunct(")") || toks[i].IsPunct("]")) {
      depth--;
      if (depth == 0) {
        AppendLockArg(toks, arg_begin, i, &out);
        break;
      }
    } else if (depth == 1 && toks[i].IsPunct(",")) {
      AppendLockArg(toks, arg_begin, i, &out);
      arg_begin = i + 1;
    }
  }
  return out;
}

size_t SkipTemplateArgs(const std::vector<Token>& toks, size_t j, size_t limit) {
  if (j >= limit || !toks[j].IsPunct("<")) {
    return j;
  }
  int tdepth = 0;
  for (; j < limit; j++) {
    if (toks[j].IsPunct("<")) {
      tdepth++;
    } else if (toks[j].IsPunct(">") || toks[j].Is(TokenKind::kPunct, ">>")) {
      tdepth -= toks[j].text == ">>" ? 2 : 1;
      if (tdepth <= 0) {
        return j + 1;
      }
    }
  }
  return j;
}

}  // namespace atropos::lint
