#include "tools/atropos_lint/lexer.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "tools/atropos_lint/outline.h"

namespace atropos::lint {
namespace {

std::vector<std::string> TokenTexts(const LexedFile& lex) {
  std::vector<std::string> out;
  for (const Token& t : lex.tokens) {
    if (t.kind != TokenKind::kEof) {
      out.push_back(t.text);
    }
  }
  return out;
}

TEST(LexerTest, TokenizesIdentifiersNumbersAndPuncts) {
  LexedFile lex = Lex("int x = 42 + y;");
  ASSERT_EQ(TokenTexts(lex),
            (std::vector<std::string>{"int", "x", "=", "42", "+", "y", ";"}));
  EXPECT_EQ(lex.tokens[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(lex.tokens[3].kind, TokenKind::kNumber);
  EXPECT_EQ(lex.tokens[4].kind, TokenKind::kPunct);
  EXPECT_EQ(lex.tokens.back().kind, TokenKind::kEof);
}

TEST(LexerTest, TracksLineNumbers) {
  LexedFile lex = Lex("a\nb\n\nc");
  EXPECT_EQ(lex.tokens[0].line, 1);
  EXPECT_EQ(lex.tokens[1].line, 2);
  EXPECT_EQ(lex.tokens[2].line, 4);
}

TEST(LexerTest, TwoCharOperatorsStaySingleTokens) {
  LexedFile lex = Lex("a->b :: c && d -> e");
  std::vector<std::string> texts = TokenTexts(lex);
  EXPECT_NE(std::find(texts.begin(), texts.end(), "->"), texts.end());
  EXPECT_NE(std::find(texts.begin(), texts.end(), "::"), texts.end());
  EXPECT_NE(std::find(texts.begin(), texts.end(), "&&"), texts.end());
}

TEST(LexerTest, CommentsNeverReachTheTokenStream) {
  LexedFile lex = Lex("a // createCancel in prose\nb /* freeCancel */ c");
  EXPECT_EQ(TokenTexts(lex), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(LexerTest, PreprocessorLinesAreConsumed) {
  LexedFile lex = Lex("#include <ctime>\n#define STAMP time(nullptr) \\\n  + 1\nint x;");
  EXPECT_EQ(TokenTexts(lex), (std::vector<std::string>{"int", "x", ";"}));
}

TEST(LexerTest, RawStringsAndEscapesAreOpaque) {
  LexedFile lex = Lex(R"src(auto s = R"(rand() "quoted")"; auto t = "esc\"x"; auto c = '\'';)src");
  std::vector<std::string> texts = TokenTexts(lex);
  // The banned name inside the raw string is part of one string token.
  int rand_idents = 0;
  for (const Token& t : lex.tokens) {
    if (t.IsIdent("rand")) {
      rand_idents++;
    }
  }
  EXPECT_EQ(rand_idents, 0);
  EXPECT_EQ(std::count(texts.begin(), texts.end(), ";"), 3);
}

TEST(LexerTest, DigitSeparatorsStayOneNumber) {
  LexedFile lex = Lex("uint64_t n = 100'000;");
  ASSERT_GE(lex.tokens.size(), 4u);
  EXPECT_EQ(lex.tokens[3].kind, TokenKind::kNumber);
  EXPECT_EQ(lex.tokens[3].text, "100'000");
}

TEST(LexerTest, EndOfLineAllowSuppressesItsOwnLine) {
  LexedFile lex = Lex("foo();  // atropos-lint: allow(capi-pairing)\nbar();\n");
  ASSERT_EQ(lex.line_suppressions.count(1), 1u);
  EXPECT_EQ(lex.line_suppressions.at(1).count("capi-pairing"), 1u);
  EXPECT_EQ(lex.line_suppressions.count(2), 0u);
}

TEST(LexerTest, StandaloneAllowSuppressesNextCodeLine) {
  LexedFile lex = Lex("// atropos-lint: allow(determinism)\n\n// prose\ntime(nullptr);\n");
  // The directive skips blank and comment-only lines and lands on line 4.
  ASSERT_EQ(lex.line_suppressions.count(4), 1u);
  EXPECT_EQ(lex.line_suppressions.at(4).count("determinism"), 1u);
}

TEST(LexerTest, AllowListSplitsOnCommas) {
  LexedFile lex = Lex("// atropos-lint: allow(capi-pairing, guarded-by)\nx();\n");
  ASSERT_EQ(lex.line_suppressions.count(2), 1u);
  EXPECT_EQ(lex.line_suppressions.at(2).count("capi-pairing"), 1u);
  EXPECT_EQ(lex.line_suppressions.at(2).count("guarded-by"), 1u);
}

TEST(LexerTest, AllowFileAndDigestPathMarkers) {
  LexedFile lex = Lex("// atropos-lint: allow-file(cancel-action-safety)\n"
                      "// atropos-lint: digest-path\nint x;\n");
  EXPECT_EQ(lex.file_suppressions.count("cancel-action-safety"), 1u);
  EXPECT_TRUE(lex.digest_path_marker);
}

TEST(LexerTest, BlockCommentDirectivesWork) {
  LexedFile lex = Lex("/* atropos-lint: allow-file(guarded-by) */\nint x;\n");
  EXPECT_EQ(lex.file_suppressions.count("guarded-by"), 1u);
}

// The outline rides on the lexer; pin the function spans the checks rely on.
TEST(OutlineTest, FindsFunctionsAndLambdas) {
  LexedFile lex = Lex(
      "int Add(int a, int b) { return a + b; }\n"
      "struct S { void Method() const { (void)0; } };\n"
      "auto l = [](int x) { return x; };\n");
  Outline outline = BuildOutline(lex.tokens);
  ASSERT_EQ(outline.functions.size(), 3u);
  EXPECT_EQ(outline.functions[0].name, "Add");
  EXPECT_FALSE(outline.functions[0].is_lambda);
  EXPECT_EQ(outline.functions[1].name, "Method");
  EXPECT_TRUE(outline.functions[2].is_lambda);
}

TEST(OutlineTest, CtorInitListsAndControlFlowAreNotFunctions) {
  LexedFile lex = Lex(
      "struct T { T() : x_(1) { Init(); } int x_; };\n"
      "void F() { if (x) { y(); } for (int i = 0; i < 3; i++) { z(); } }\n");
  Outline outline = BuildOutline(lex.tokens);
  std::vector<std::string> names;
  for (const FunctionInfo& fn : outline.functions) {
    names.push_back(fn.name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"T", "F"}));
}

TEST(OutlineTest, EnclosingFunctionPicksInnermostSpan) {
  LexedFile lex = Lex("void Outer() { auto inner = [] { x(); }; y(); }\n");
  Outline outline = BuildOutline(lex.tokens);
  ASSERT_EQ(outline.functions.size(), 2u);
  // Find the token index of `x` and `y`.
  for (size_t i = 0; i < lex.tokens.size(); i++) {
    if (lex.tokens[i].IsIdent("x")) {
      EXPECT_TRUE(outline.functions[outline.EnclosingFunction(i)].is_lambda);
    }
    if (lex.tokens[i].IsIdent("y")) {
      EXPECT_FALSE(outline.functions[outline.EnclosingFunction(i)].is_lambda);
    }
  }
}

}  // namespace
}  // namespace atropos::lint
