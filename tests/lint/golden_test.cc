// Golden tests: each bad fixture must reproduce its expected diagnostics
// byte-for-byte, and each good fixture must lint clean. Fixture sources live
// in tests/lint/fixtures/, goldens in tests/lint/golden/; the directory is
// injected as ATROPOS_LINT_TEST_DATA_DIR by tests/CMakeLists.txt.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/atropos_lint/check.h"
#include "tools/atropos_lint/driver.h"

#ifndef ATROPOS_LINT_TEST_DATA_DIR
#error "ATROPOS_LINT_TEST_DATA_DIR must point at tests/lint"
#endif

namespace atropos::lint {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Lints the fixture under its basename (so golden paths are stable no matter
// where the build runs) and returns the formatted diagnostics.
std::string LintFixture(const std::string& name) {
  const std::string source =
      ReadFile(std::string(ATROPOS_LINT_TEST_DATA_DIR) + "/fixtures/" + name);
  RunResult result = LintBuffer(name, source);
  std::string out;
  for (const Diagnostic& d : result.diagnostics) {
    out += d.Format() + "\n";
  }
  return out;
}

std::string Golden(const std::string& name) {
  return ReadFile(std::string(ATROPOS_LINT_TEST_DATA_DIR) + "/golden/" + name);
}

TEST(GoldenTest, CapiPairingBadMatchesGolden) {
  EXPECT_EQ(LintFixture("capi_pairing_bad.cc"), Golden("capi_pairing_bad.expected"));
}

TEST(GoldenTest, CancelSafetyBadMatchesGolden) {
  EXPECT_EQ(LintFixture("cancel_safety_bad.cc"), Golden("cancel_safety_bad.expected"));
}

TEST(GoldenTest, DeterminismBadMatchesGolden) {
  EXPECT_EQ(LintFixture("determinism_bad.cc"), Golden("determinism_bad.expected"));
}

// The live-threads shape: a blocking/allocating initiator registered via
// AtroposRuntime::SetCancelAction (the form src/live installs) vs. the clean
// CancelBoard atomic-scan pattern.
TEST(GoldenTest, LiveInitiatorBadMatchesGolden) {
  EXPECT_EQ(LintFixture("live_initiator_bad.cc"), Golden("live_initiator_bad.expected"));
}

// The initiator-root rule: abort entry points (DeliverCancel, AbortKey, ...)
// are walked even with no registration site in the file, because the
// registration lives elsewhere and reaches them by contract.
TEST(GoldenTest, AbortEntryBadMatchesGolden) {
  EXPECT_EQ(LintFixture("abort_entry_bad.cc"), Golden("abort_entry_bad.expected"));
}

// Lockset verification of ATROPOS_GUARDED_BY / ATROPOS_REQUIRES annotations:
// unguarded member accesses, accesses after the guard scope closed or after
// .unlock(), and calls into REQUIRES functions without the lock.
TEST(GoldenTest, GuardedByBadMatchesGolden) {
  EXPECT_EQ(LintFixture("guarded_by_bad.cc"), Golden("guarded_by_bad.expected"));
}

// The AbortCell/CancelBoard Dekker discipline (DESIGN.md §16): weak orders on
// protocol words, an initiator store with no key re-load, and a Park with no
// cancel re-check after the key publish.
TEST(GoldenTest, AtomicsProtocolBadMatchesGolden) {
  EXPECT_EQ(LintFixture("atomics_protocol_bad.cc"),
            Golden("atomics_protocol_bad.expected"));
}

// Suppressions that no longer suppress anything are themselves findings.
TEST(GoldenTest, StaleSuppressionBadMatchesGolden) {
  EXPECT_EQ(LintFixture("stale_suppression_bad.cc"),
            Golden("stale_suppression_bad.expected"));
}

TEST(GoldenTest, GoodFixturesLintClean) {
  EXPECT_EQ(LintFixture("capi_pairing_good.cc"), "");
  EXPECT_EQ(LintFixture("cancel_safety_good.cc"), "");
  EXPECT_EQ(LintFixture("determinism_good.cc"), "");
  EXPECT_EQ(LintFixture("live_initiator_good.cc"), "");
  EXPECT_EQ(LintFixture("abort_entry_good.cc"), "");
  EXPECT_EQ(LintFixture("guarded_by_good.cc"), "");
  EXPECT_EQ(LintFixture("atomics_protocol_good.cc"), "");
}

// Suppression directives neutralize findings and are counted, end to end.
TEST(GoldenTest, AllowDirectiveSuppressesAndCounts) {
  const std::string source =
      "// atropos-lint: digest-path\n"
      "// atropos-lint: allow(determinism)\n"
      "int x = rand();\n";
  RunResult result = LintBuffer("suppressed.cc", source);
  EXPECT_TRUE(result.diagnostics.empty());
  EXPECT_EQ(result.suppressed, 1u);
}

TEST(GoldenTest, AllowFileDirectiveSuppressesWholeFile) {
  const std::string source =
      "// atropos-lint: digest-path\n"
      "// atropos-lint: allow-file(determinism)\n"
      "int x = rand();\n"
      "int y = rand();\n";
  RunResult result = LintBuffer("suppressed.cc", source);
  EXPECT_TRUE(result.diagnostics.empty());
  EXPECT_EQ(result.suppressed, 2u);
}

// A directive for one check must not mask another check's finding on the
// same line — and since it masks nothing at all here, the stale-suppression
// pass flags the directive itself.
TEST(GoldenTest, AllowIsPerCheck) {
  const std::string source =
      "// atropos-lint: digest-path\n"
      "void F() {\n"
      "  // atropos-lint: allow(capi-pairing)\n"
      "  int x = rand();\n"
      "}\n";
  RunResult result = LintBuffer("suppressed.cc", source);
  ASSERT_EQ(result.diagnostics.size(), 2u);
  EXPECT_EQ(result.diagnostics[0].check, kStaleSuppressionCheck);
  EXPECT_EQ(result.diagnostics[0].line, 3);
  EXPECT_EQ(result.diagnostics[1].check, "determinism");
}

// A suppression that fires is live: no stale-suppression finding, and the
// count reflects the masked diagnostic.
TEST(GoldenTest, LiveSuppressionIsNotStale) {
  const std::string source =
      "// atropos-lint: digest-path\n"
      "// atropos-lint: allow(determinism)\n"
      "int x = rand();\n";
  RunResult result = LintBuffer("suppressed.cc", source);
  EXPECT_TRUE(result.diagnostics.empty());
  EXPECT_EQ(result.suppressed, 1u);
}

// Staleness is only decidable when every check ran: under a restricted
// --checks set a marker for an unselected check is skipped, not flagged, even
// though the stale-suppression pass itself runs.
TEST(GoldenTest, StaleSuppressionSkippedUnderRestrictedChecks) {
  const std::string source =
      "void F() {\n"
      "  // atropos-lint: allow(capi-pairing)\n"
      "  int x = 0;\n"
      "  (void)x;\n"
      "}\n";
  RunResult result =
      LintBuffer("suppressed.cc", source, {"determinism", std::string(kStaleSuppressionCheck)});
  EXPECT_TRUE(result.diagnostics.empty());
}

// Restricting --checks to a subset runs only that subset.
TEST(GoldenTest, CheckSelectionFilters) {
  const std::string source = ReadFile(std::string(ATROPOS_LINT_TEST_DATA_DIR) +
                                      "/fixtures/capi_pairing_bad.cc");
  RunResult result = LintBuffer("capi_pairing_bad.cc", source, {"determinism"});
  EXPECT_TRUE(result.diagnostics.empty());
  EXPECT_FALSE(LintBuffer("capi_pairing_bad.cc", source, {"capi-pairing"}).diagnostics.empty());
}

// The names --checks accepts (and --list-checks prints); main rejects any
// other name as a usage error.
TEST(GoldenTest, CheckNamesAreTheListedChecks) {
  const std::vector<std::string> expected = {"atomics-protocol", "capi-pairing",
                                             "cancel-action-safety", "determinism",
                                             "guarded-by", "stale-suppression"};
  EXPECT_EQ(CheckNames(), expected);
}

}  // namespace
}  // namespace atropos::lint
