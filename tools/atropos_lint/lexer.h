// C++ lexer for atropos_lint.
//
// Produces the token stream the structural outliner and the checks walk, and
// extracts `atropos-lint:` control directives from comments:
//
//   // atropos-lint: allow(check-a, check-b)   suppress on this line (or, when
//                                              the comment stands alone, on the
//                                              next line that has code)
//   // atropos-lint: allow-file(check-a)       suppress for the whole file
//   // atropos-lint: digest-path               mark this file as a digest path
//                                              for the determinism check
//   // atropos-lint: atomics-protocol          opt this file into the
//                                              atomics-protocol check (src/sync
//                                              and src/live are always in)
//
// A directive only counts when `atropos-lint:` starts the comment's text
// (leading whitespace aside): prose that merely *mentions* the syntax, as this
// header does above, never registers a directive. Comments and preprocessor
// lines are consumed here and never reach the checks, so API names mentioned
// in prose don't trigger findings.

#ifndef TOOLS_ATROPOS_LINT_LEXER_H_
#define TOOLS_ATROPOS_LINT_LEXER_H_

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "tools/atropos_lint/token.h"

namespace atropos::lint {

// One `allow(check)` grant: the line of the directive comment itself plus the
// code line it suppresses on. Kept alongside the resolved line_suppressions
// map so the stale-suppression pass can point its finding at the marker.
struct SuppressionSite {
  int directive_line = 0;
  int target_line = 0;
  std::string check;
};

struct LexedFile {
  std::vector<Token> tokens;  // terminated by a kEof token

  // line -> checks suppressed on that line ("*" suppresses all checks).
  std::map<int, std::set<std::string>> line_suppressions;
  std::set<std::string> file_suppressions;
  // Audit trail for the stale-suppression pass: every per-line grant with the
  // directive's own line, and the declaration line of each allow-file grant.
  std::vector<SuppressionSite> suppression_sites;
  std::map<std::string, int> file_suppression_lines;
  bool digest_path_marker = false;
  bool atomics_protocol_marker = false;
};

// Lexes `source`. Never fails: unrecognized bytes become single-char punct
// tokens, so a malformed file degrades to noise rather than an error.
LexedFile Lex(std::string_view source);

}  // namespace atropos::lint

#endif  // TOOLS_ATROPOS_LINT_LEXER_H_
