#include "tools/atropos_lint/lexer.h"

#include <algorithm>
#include <cctype>

namespace atropos::lint {

namespace {

bool IsIdentStart(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool IsIdentChar(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }
bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)) != 0; }

// Two-character operators lexed as one token. Three-char ops (<<=, ...) are
// irrelevant to every check, so two is enough.
constexpr const char* kTwoCharOps[] = {
    "::", "->", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
};

struct Directive {
  int line = 0;
  bool code_before = false;  // code tokens already emitted on this line
  std::set<std::string> allow;       // per-line suppressions
  std::set<std::string> allow_file;  // file-wide suppressions
  bool digest_path = false;
  bool atomics_protocol = false;
};

std::string Trimmed(std::string_view s) {
  size_t b = s.find_first_not_of(" \t");
  if (b == std::string_view::npos) {
    return "";
  }
  size_t e = s.find_last_not_of(" \t");
  return std::string(s.substr(b, e - b + 1));
}

// Parses the body of an `atropos-lint:` directive out of a comment's text.
// The tag must START the comment (after whitespace): comments that merely
// mention the directive syntax mid-prose are documentation, not directives.
void ParseDirective(std::string_view comment, Directive* out) {
  constexpr std::string_view kTag = "atropos-lint:";
  size_t at = comment.find_first_not_of(" \t");
  if (at == std::string_view::npos || comment.substr(at).size() < kTag.size() ||
      comment.substr(at, kTag.size()) != kTag) {
    return;
  }
  std::string_view rest = comment.substr(at + kTag.size());
  auto parse_list = [&](std::string_view keyword, std::set<std::string>* into) {
    size_t kw = rest.find(keyword);
    if (kw == std::string_view::npos) {
      return;
    }
    size_t open = rest.find('(', kw);
    size_t close = rest.find(')', kw);
    if (open == std::string_view::npos || close == std::string_view::npos || close < open) {
      return;
    }
    std::string_view list = rest.substr(open + 1, close - open - 1);
    while (!list.empty()) {
      size_t comma = list.find(',');
      std::string name = Trimmed(list.substr(0, comma));
      if (!name.empty()) {
        into->insert(name);
      }
      if (comma == std::string_view::npos) {
        break;
      }
      list.remove_prefix(comma + 1);
    }
  };
  // allow-file first: a plain `allow(` search would also match inside it.
  parse_list("allow-file", &out->allow_file);
  if (out->allow_file.empty()) {
    parse_list("allow", &out->allow);
  }
  if (rest.find("digest-path") != std::string_view::npos) {
    out->digest_path = true;
  }
  // The atomics-protocol opt-in marker must be the directive's entire body,
  // so that `allow(atomics-protocol)` (a suppression naming the check) is not
  // mistaken for a marker.
  if (Trimmed(rest) == "atomics-protocol") {
    out->atomics_protocol = true;
  }
}

}  // namespace

LexedFile Lex(std::string_view src) {
  LexedFile out;
  std::vector<Directive> directives;
  size_t i = 0;
  int line = 1;
  int last_token_line = 0;  // line of the most recently emitted token

  auto emit = [&](TokenKind kind, std::string text, int at_line) {
    out.tokens.push_back(Token{kind, std::move(text), at_line});
    last_token_line = at_line;
  };

  auto record_comment = [&](std::string_view text, int at_line) {
    Directive d;
    d.line = at_line;
    d.code_before = (last_token_line == at_line);
    ParseDirective(text, &d);
    if (!d.allow.empty() || !d.allow_file.empty() || d.digest_path || d.atomics_protocol) {
      directives.push_back(std::move(d));
    }
  };

  while (i < src.size()) {
    char c = src[i];
    if (c == '\n') {
      line++;
      i++;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      i++;
      continue;
    }
    // Preprocessor directive: only when '#' starts the line's code. Consumed
    // to end of line, honoring backslash continuations.
    if (c == '#' && last_token_line != line) {
      while (i < src.size() && src[i] != '\n') {
        if (src[i] == '\\' && i + 1 < src.size() && src[i + 1] == '\n') {
          line++;
          i++;
        }
        i++;
      }
      continue;
    }
    if (c == '/' && i + 1 < src.size() && src[i + 1] == '/') {
      size_t start = i + 2;
      while (i < src.size() && src[i] != '\n') {
        i++;
      }
      record_comment(src.substr(start, i - start), line);
      continue;
    }
    if (c == '/' && i + 1 < src.size() && src[i + 1] == '*') {
      int start_line = line;
      size_t start = i + 2;
      i += 2;
      while (i + 1 < src.size() && !(src[i] == '*' && src[i + 1] == '/')) {
        if (src[i] == '\n') {
          line++;
        }
        i++;
      }
      record_comment(src.substr(start, i - start), start_line);
      i = std::min(src.size(), i + 2);
      continue;
    }
    // Raw string literal: R"delim( ... )delim", with optional encoding prefix.
    if (c == 'R' && i + 1 < src.size() && src[i + 1] == '"') {
      size_t open = src.find('(', i + 2);
      if (open != std::string_view::npos) {
        std::string delim(src.substr(i + 2, open - (i + 2)));
        std::string closer = ")" + delim + "\"";
        size_t end = src.find(closer, open + 1);
        if (end == std::string_view::npos) {
          end = src.size();
        }
        int start_line = line;
        line += static_cast<int>(
            std::count(src.begin() + static_cast<long>(i), src.begin() + static_cast<long>(end), '\n'));
        emit(TokenKind::kString, std::string(src.substr(open + 1, end - open - 1)), start_line);
        i = std::min(src.size(), end + closer.size());
        continue;
      }
    }
    if (IsIdentStart(c)) {
      size_t start = i;
      while (i < src.size() && IsIdentChar(src[i])) {
        i++;
      }
      // An encoding prefix (u8"...", L'x') tokenizes as identifier + literal,
      // which is fine for every check in this tool.
      emit(TokenKind::kIdentifier, std::string(src.substr(start, i - start)), line);
      continue;
    }
    if (IsDigit(c) || (c == '.' && i + 1 < src.size() && IsDigit(src[i + 1]))) {
      size_t start = i;
      while (i < src.size()) {
        char d = src[i];
        if (IsIdentChar(d) || d == '.') {
          i++;
        } else if (d == '\'' && i + 1 < src.size() && IsIdentChar(src[i + 1])) {
          i += 2;  // digit separator: 100'000
        } else if ((d == '+' || d == '-') && i > start &&
                   (src[i - 1] == 'e' || src[i - 1] == 'E' || src[i - 1] == 'p' ||
                    src[i - 1] == 'P')) {
          i++;  // exponent sign
        } else {
          break;
        }
      }
      emit(TokenKind::kNumber, std::string(src.substr(start, i - start)), line);
      continue;
    }
    if (c == '"' || c == '\'') {
      char quote = c;
      int start_line = line;
      size_t start = ++i;
      while (i < src.size() && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < src.size()) {
          i++;
        }
        if (src[i] == '\n') {
          line++;
        }
        i++;
      }
      emit(quote == '"' ? TokenKind::kString : TokenKind::kChar,
           std::string(src.substr(start, i - start)), start_line);
      i = std::min(src.size(), i + 1);
      continue;
    }
    // Punctuation: try a two-char operator, else a single char.
    if (i + 1 < src.size()) {
      std::string two(src.substr(i, 2));
      bool matched = false;
      for (const char* op : kTwoCharOps) {
        if (two == op) {
          emit(TokenKind::kPunct, two, line);
          i += 2;
          matched = true;
          break;
        }
      }
      if (matched) {
        continue;
      }
    }
    emit(TokenKind::kPunct, std::string(1, c), line);
    i++;
  }
  emit(TokenKind::kEof, "", line);

  // Resolve directives: an end-of-line comment suppresses its own line; a
  // standalone comment suppresses the next line that has code.
  for (const Directive& d : directives) {
    for (const std::string& check : d.allow_file) {
      out.file_suppressions.insert(check);
      out.file_suppression_lines.emplace(check, d.line);  // first marker wins
    }
    if (d.digest_path) {
      out.digest_path_marker = true;
    }
    if (d.atomics_protocol) {
      out.atomics_protocol_marker = true;
    }
    if (d.allow.empty()) {
      continue;
    }
    int target = d.line;
    if (!d.code_before) {
      target = 0;
      for (const Token& t : out.tokens) {
        if (t.kind != TokenKind::kEof && t.line > d.line) {
          target = t.line;
          break;
        }
      }
      if (target == 0) {
        target = d.line;
      }
    }
    out.line_suppressions[target].insert(d.allow.begin(), d.allow.end());
    for (const std::string& check : d.allow) {
      out.suppression_sites.push_back(SuppressionSite{d.line, target, check});
    }
  }
  return out;
}

}  // namespace atropos::lint
