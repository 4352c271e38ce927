// Guard-scope machinery for the lock-aware checks (guarded-by,
// atomics-protocol): recognizing RAII guard declarations, normalizing mutex
// expressions to stable identities, and splitting lock argument lists.

#ifndef TOOLS_ATROPOS_LINT_GUARD_SCOPE_H_
#define TOOLS_ATROPOS_LINT_GUARD_SCOPE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "tools/atropos_lint/token.h"

namespace atropos::lint {

// Scope guards whose constructor acquires its mutex arguments: the std
// guards plus this repo's MutexLock (src/common/mutex.h).
bool IsGuardType(const std::string& s);

// Normalizes the mutex expression tokens [begin, end): joins identifiers and
// member accesses, dropping `this->`, `std::`, `&`, and `*`.
std::string NormalizeMutexExpr(const std::vector<Token>& toks, size_t begin, size_t end);

// Start index of the member-access expression ending just before `end`
// (exclusive): scans back over identifiers, ".", "->", "::", and "this",
// never crossing below `floor + 1`.
size_t LockExprStart(const std::vector<Token>& toks, size_t end, size_t floor);

// Splits the top-level comma-separated arguments of the call whose "(" is at
// `open`, normalized as mutex identities; arguments carrying a lock tag
// (std::defer_lock etc.) are dropped entirely.
std::vector<std::string> SplitLockArgs(const std::vector<Token>& toks, size_t open, size_t limit);

// Skips the template-argument list starting at `j` when toks[j] is "<";
// returns the index just past the closing ">" (or `j` unchanged when toks[j]
// is not "<"). `limit` bounds the scan.
size_t SkipTemplateArgs(const std::vector<Token>& toks, size_t j, size_t limit);

}  // namespace atropos::lint

#endif  // TOOLS_ATROPOS_LINT_GUARD_SCOPE_H_
