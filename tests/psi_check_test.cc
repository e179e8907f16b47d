// Self-tests for tools/psi_check (DESIGN.md §15): lexer behavior, each
// rule's exact finding (rule id, file, line) against the seeded-violation
// fixture tree, waiver resolution, report formats, and process exit codes.
//
// PSI_CHECK_FIXTURE_DIR points at tests/fixtures/psi_check (set by the
// build); the trees under it are scan fodder, never compiled.

#include "tools/psi_check/checker.h"
#include "tools/psi_check/lexer.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace psi::check {
namespace {

const char* MiniRepo() { return PSI_CHECK_FIXTURE_DIR "/mini_repo"; }
const char* CleanRepo() { return PSI_CHECK_FIXTURE_DIR "/clean_repo"; }

// --- Lexer -----------------------------------------------------------------

TEST(LexerTest, TokensIncludesAndScopeResolution) {
  const LexedFile lexed = Lex(
      "#include \"util/mutex.h\"\n"
      "#include <vector>\n"
      "int util::Count() { return 42; }\n");
  ASSERT_EQ(lexed.includes.size(), 2u);
  EXPECT_EQ(lexed.includes[0].path, "util/mutex.h");
  EXPECT_EQ(lexed.includes[0].line, 1);
  EXPECT_FALSE(lexed.includes[0].system);
  EXPECT_EQ(lexed.includes[1].path, "vector");
  EXPECT_TRUE(lexed.includes[1].system);

  // `::` is one token; line numbers survive the directives above.
  const auto scope = std::find_if(
      lexed.tokens.begin(), lexed.tokens.end(),
      [](const Token& t) { return t.kind == Token::Kind::kPunct &&
                                  t.text == "::"; });
  ASSERT_NE(scope, lexed.tokens.end());
  EXPECT_EQ(scope->line, 3);
  EXPECT_EQ(lexed.tokens.back().kind, Token::Kind::kEnd);
}

TEST(LexerTest, StringContentsAreTokensButCommentsAreNot) {
  const LexedFile lexed = Lex(
      "const char* s = \"rand() inside a string\";\n"
      "// rand() inside a comment\n");
  size_t ident_rands = 0;
  size_t string_tokens = 0;
  for (const Token& t : lexed.tokens) {
    if (t.kind == Token::Kind::kIdent && t.text == "rand") ++ident_rands;
    if (t.kind == Token::Kind::kString) ++string_tokens;
  }
  // Neither occurrence of rand produces an identifier token.
  EXPECT_EQ(ident_rands, 0u);
  ASSERT_EQ(string_tokens, 1u);
}

TEST(LexerTest, MacroBodiesYieldIdentifiersButNoTokens) {
  const LexedFile lexed = Lex(
      "#define PSI_HOOK(site) \\\n"
      "  (::psi::Injector::Global().ShouldFail(site))\n"
      "int x;\n");
  EXPECT_NE(std::find(lexed.macro_idents.begin(), lexed.macro_idents.end(),
                      "ShouldFail"),
            lexed.macro_idents.end());
  for (const Token& t : lexed.tokens) {
    EXPECT_NE(t.text, "ShouldFail");
    if (t.kind == Token::Kind::kIdent) {
      EXPECT_NE(t.line, 1);
    }
  }
}

TEST(LexerTest, ParsesWellFormedWaiver) {
  const LexedFile lexed = Lex(
      "int x;  // psi-check: allow(lock-guard, determinism) -- both rules\n");
  ASSERT_EQ(lexed.waivers.size(), 1u);
  const Waiver& w = lexed.waivers[0];
  EXPECT_FALSE(w.malformed);
  EXPECT_EQ(w.line, 1);
  ASSERT_EQ(w.rules.size(), 2u);
  EXPECT_EQ(w.rules[0], "lock-guard");
  EXPECT_EQ(w.rules[1], "determinism");
  EXPECT_EQ(w.reason, "both rules");
}

TEST(LexerTest, FlagsMalformedWaivers) {
  const LexedFile missing_reason =
      Lex("// psi-check: allow(layering)\n");
  ASSERT_EQ(missing_reason.waivers.size(), 1u);
  EXPECT_TRUE(missing_reason.waivers[0].malformed);

  const LexedFile empty_reason =
      Lex("// psi-check: allow(layering) -- \n");
  ASSERT_EQ(empty_reason.waivers.size(), 1u);
  EXPECT_TRUE(empty_reason.waivers[0].malformed);

  const LexedFile bad_shape = Lex("// psi-check: suppress everything\n");
  ASSERT_EQ(bad_shape.waivers.size(), 1u);
  EXPECT_TRUE(bad_shape.waivers[0].malformed);
}

// --- Rules against the seeded fixture tree ---------------------------------

class MiniRepoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(checker_.Load(MiniRepo())) << checker_.error();
    checker_.RunAll();
  }

  /// All violations matching `rule` at `file` (root-relative).
  std::vector<Violation> At(const std::string& rule,
                            const std::string& file) const {
    std::vector<Violation> out;
    for (const Violation& v : checker_.violations()) {
      if (v.rule == rule && v.file == file) out.push_back(v);
    }
    return out;
  }

  Checker checker_;
};

TEST_F(MiniRepoTest, ExactFindingCountAndNoExtras) {
  // 19 seeded findings; src/util/clean.h and src/util/hooks.cc contribute
  // none. Any change here means a rule drifted.
  EXPECT_EQ(checker_.violations().size(), 19u);
  EXPECT_EQ(checker_.unwaived_count(), 18);
  EXPECT_TRUE(At("lock-guard", "src/util/clean.h").empty());
  for (const Violation& v : checker_.violations()) {
    EXPECT_NE(v.file, "src/util/clean.h") << v.message;
    EXPECT_NE(v.file, "src/util/hooks.cc") << v.message;
  }
}

TEST_F(MiniRepoTest, LayeringFlagsBackEdgeInclude) {
  const auto vs = At("layering", "src/graph/bad_include.cc");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].line, 2);
  EXPECT_FALSE(vs[0].waived);
  EXPECT_NE(vs[0].message.find("core/engine.h"), std::string::npos);
}

TEST_F(MiniRepoTest, DeterminismFlagsRandAndUnorderedIteration) {
  const auto vs = At("determinism", "src/match/nondet.cc");
  ASSERT_EQ(vs.size(), 2u);
  EXPECT_EQ(vs[0].line, 7);
  EXPECT_NE(vs[0].message.find("rand()"), std::string::npos);
  EXPECT_EQ(vs[1].line, 8);
  EXPECT_NE(vs[1].message.find("'items'"), std::string::npos);
}

TEST_F(MiniRepoTest, LockGuardFlagsUnannotatedFieldOnly) {
  const auto vs = At("lock-guard", "src/core/bad_lock.h");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].line, 8);
  EXPECT_NE(vs[0].message.find("'counter_'"), std::string::npos);
  EXPECT_NE(vs[0].message.find("'LockHog'"), std::string::npos);
}

TEST_F(MiniRepoTest, FaultSiteFlagsRawLiteralsAtHookAndShadow) {
  const auto vs = At("fault-site", "src/service/raw_hook.cc");
  ASSERT_EQ(vs.size(), 2u);
  EXPECT_EQ(vs[0].line, 2);  // hook called with a string literal
  EXPECT_NE(vs[0].message.find("raw string literal"), std::string::npos);
  EXPECT_EQ(vs[1].line, 3);  // bare literal shadowing a registry value
  EXPECT_NE(vs[1].message.find("test.site.beta"), std::string::npos);
}

TEST_F(MiniRepoTest, FaultSiteCrossReferencesRegistryEntries) {
  // kTestSiteBeta is undocumented, untested and unhooked: three findings
  // on its declaration line. kTestSiteAlpha satisfies all three and gets
  // none.
  const auto vs = At("fault-site", "src/util/fault_sites.h");
  ASSERT_EQ(vs.size(), 3u);
  for (const Violation& v : vs) {
    EXPECT_EQ(v.line, 6);
  }
  EXPECT_NE(vs[0].message.find("test.site.beta"), std::string::npos);
  EXPECT_NE(vs[0].message.find("DESIGN.md"), std::string::npos);
  EXPECT_NE(vs[1].message.find("kTestSiteBeta"), std::string::npos);
  EXPECT_NE(vs[2].message.find("kTestSiteBeta"), std::string::npos);
  EXPECT_NE(vs[1].message.find("not exercised by any test"),
            std::string::npos);
  EXPECT_NE(vs[2].message.find("has no PSI_INJECT_FAULT"), std::string::npos);
}

TEST_F(MiniRepoTest, MetricsPairFlagsAllThreeMismatchKinds) {
  const auto vs = At("metrics-pair", "src/service/metrics.h");
  ASSERT_EQ(vs.size(), 3u);
  EXPECT_EQ(vs[0].line, 5);  // in the snapshot, absent from ToString
  EXPECT_NE(vs[0].message.find("'missing_in_tostring'"), std::string::npos);
  EXPECT_NE(vs[0].message.find("ToString"), std::string::npos);
  EXPECT_EQ(vs[1].line, 6);  // printed, asserted nowhere
  EXPECT_NE(vs[1].message.find("'missing_in_tests'"), std::string::npos);
  EXPECT_NE(vs[1].message.find("not asserted in any test"),
            std::string::npos);
  EXPECT_EQ(vs[2].line, 14);  // registry atomic with no snapshot field
  EXPECT_NE(vs[2].message.find("'orphan_counter_'"), std::string::npos);
}

TEST_F(MiniRepoTest, UnusedDeclFlagsFunctionsOnlyTestsCall) {
  // OnlyTested and WronglyWaived are called from tests/ alone; everything
  // the other fixture headers declare is called from tools/driver.cc, and
  // Probe's constructor, destructor, operator and override are exempt.
  const auto vs = At("unused-decl", "src/match/only_tested.h");
  ASSERT_EQ(vs.size(), 2u);
  EXPECT_EQ(vs[0].line, 6);
  EXPECT_NE(vs[0].message.find("'OnlyTested'"), std::string::npos);
  EXPECT_FALSE(vs[0].waived);
  EXPECT_EQ(vs[1].line, 8);
  EXPECT_NE(vs[1].message.find("'WronglyWaived'"), std::string::npos);
  for (const Violation& v : checker_.violations()) {
    if (v.rule == "unused-decl") {
      EXPECT_TRUE(v.file == "src/match/only_tested.h" ||
                  v.file == "src/util/timer.h" ||
                  v.file == "src/core/config.h")
          << v.file << ": " << v.message;
    }
  }
}

TEST_F(MiniRepoTest, UnusedDeclMatchesMembersByReceiverOrClass) {
  // WallTimer::Micros is named only by a free Micros(double) in
  // src/util/micros.cc: one finding. Seconds is called as timer.Seconds()
  // and Raw unqualified in timer.cc, which defines WallTimer's members.
  const auto vs = At("unused-decl", "src/util/timer.h");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].line, 9);
  EXPECT_NE(vs[0].message.find("'WallTimer::Micros'"), std::string::npos);
  EXPECT_FALSE(vs[0].waived);
}

TEST_F(MiniRepoTest, UnusedDeclFlagsConfigFieldsOnlyTestsSet) {
  // test_only_knob is assigned under tests/ alone; shipped_knob is also
  // assigned in tools/driver.cc, so it is no finding.
  const auto vs = At("unused-decl", "src/core/config.h");
  ASSERT_EQ(vs.size(), 2u);
  EXPECT_EQ(vs[0].line, 7);
  EXPECT_NE(vs[0].message.find("'SmartPsiConfig::test_only_knob'"),
            std::string::npos);
  EXPECT_NE(vs[0].message.find("set only under tests/"), std::string::npos);
  EXPECT_FALSE(vs[0].waived);
}

TEST_F(MiniRepoTest, UnusedDeclFlagsConfigFieldsNoFileSets) {
  // default_knob is only compared (`==` is no assignment), in tests/ too:
  // a knob nobody sets is flagged as well.
  const auto vs = At("unused-decl", "src/core/config.h");
  ASSERT_EQ(vs.size(), 2u);
  EXPECT_EQ(vs[1].line, 9);
  EXPECT_NE(vs[1].message.find("'SmartPsiConfig::default_knob'"),
            std::string::npos);
  EXPECT_NE(vs[1].message.find("set by no file"), std::string::npos);
  EXPECT_FALSE(vs[1].waived);
}

TEST_F(MiniRepoTest, WaiverNamingAnotherRuleDoesNotSuppress) {
  // The allow(determinism) annotation above WronglyWaived is well formed,
  // so it is no `waiver` finding either: it just waives nothing here.
  const auto vs = At("unused-decl", "src/match/only_tested.h");
  ASSERT_EQ(vs.size(), 2u);
  EXPECT_EQ(vs[1].line, 8);
  EXPECT_FALSE(vs[1].waived);
  EXPECT_TRUE(At("waiver", "src/match/only_tested.h").empty());
}

TEST_F(MiniRepoTest, WaiverSuppressesButStillReports) {
  const auto vs = At("determinism", "src/graph/waived.cc");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].line, 6);
  EXPECT_TRUE(vs[0].waived);
  EXPECT_EQ(vs[0].waive_reason, "fixture: exercising the waiver path");
}

TEST_F(MiniRepoTest, MalformedWaiverIsItsOwnViolation) {
  const auto vs = At("waiver", "src/util/bad_waiver.cc");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].line, 2);
  EXPECT_FALSE(vs[0].waived);  // never waivable
  EXPECT_NE(vs[0].message.find("malformed"), std::string::npos);
}

TEST_F(MiniRepoTest, ReportsNameEveryRuleAndMarkWaivers) {
  const std::string text = checker_.TextReport();
  EXPECT_NE(text.find("src/graph/bad_include.cc:2: [layering]"),
            std::string::npos);
  EXPECT_NE(text.find("(waived: fixture: exercising the waiver path)"),
            std::string::npos);
  EXPECT_NE(text.find("19 finding(s), 18 unwaived"), std::string::npos);

  const std::string json = checker_.JsonReport();
  EXPECT_NE(json.find("\"unwaived\": 18"), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"layering\""), std::string::npos);
  EXPECT_NE(json.find("\"waived\": true"), std::string::npos);
  EXPECT_NE(json.find("\"reason\": \"fixture: exercising the waiver path\""),
            std::string::npos);
}

// --- Clean tree and exit codes ---------------------------------------------

TEST(CleanRepoTest, FullyConformingTreeHasNoFindings) {
  Checker checker;
  ASSERT_TRUE(checker.Load(CleanRepo())) << checker.error();
  checker.RunAll();
  EXPECT_EQ(checker.unwaived_count(), 0) << checker.TextReport();
  // The one report is the test oracle's unused-decl finding, which its
  // waiver suppresses (waived findings stay in the report, §15.2).
  ASSERT_EQ(checker.violations().size(), 1u) << checker.TextReport();
  const Violation& oracle = checker.violations()[0];
  EXPECT_EQ(oracle.rule, "unused-decl");
  EXPECT_EQ(oracle.file, "src/graph/oracle.h");
  EXPECT_TRUE(oracle.waived);
  EXPECT_EQ(oracle.waive_reason, "test oracle for Fine in clean_test");
}

TEST(RunPsiCheckTest, ExitCodesMatchContract) {
  EXPECT_EQ(RunPsiCheck({"--root", CleanRepo()}), 0);
  EXPECT_EQ(RunPsiCheck({"--root", MiniRepo()}), 1);
  EXPECT_EQ(RunPsiCheck({"--root", MiniRepo(), "--json"}), 1);
  // Usage / load errors.
  EXPECT_EQ(RunPsiCheck({"--root"}), 2);
  EXPECT_EQ(RunPsiCheck({"--root", "/nonexistent/psi-check-root"}), 2);
  EXPECT_EQ(RunPsiCheck({"--bogus-flag"}), 2);
  EXPECT_EQ(RunPsiCheck({"--help"}), 0);
}

}  // namespace
}  // namespace psi::check
