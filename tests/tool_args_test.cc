// Regression tests for the strict tool argument parser. The bug this
// locks out: the tools' historical parsers treated ANY "--x" as a
// value-taking option, so an unknown flag (e.g. --shards, or a typo like
// --sharsd) silently swallowed the next argv and the run proceeded with
// default settings instead of failing.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/tool_args.h"

namespace psi::tools {
namespace {

ParsedArgs Parse(std::vector<const char*> argv, const ArgSpec& spec) {
  argv.insert(argv.begin(), "tool");
  return ParseArgs(static_cast<int>(argv.size()), argv.data(), spec);
}

ArgSpec LoadgenLikeSpec() {
  ArgSpec spec;
  spec.switches = {"--baseline", "--swap-storm"};
  spec.options = {"--requests", "--shards", "--faults"};
  spec.max_positional = 1;
  return spec;
}

TEST(ToolArgsTest, ParsesSwitchesOptionsAndPositional) {
  const ParsedArgs args =
      Parse({"graph.lg", "--requests", "200", "--baseline", "--shards", "4"},
            LoadgenLikeSpec());
  ASSERT_TRUE(args.ok()) << args.error;
  ASSERT_EQ(args.positional.size(), 1u);
  EXPECT_EQ(args.positional[0], "graph.lg");
  EXPECT_TRUE(args.Has("--baseline"));
  EXPECT_FALSE(args.Has("--swap-storm"));
  EXPECT_EQ(args.Get("--requests", "0"), "200");
  EXPECT_EQ(args.Get("--shards", "0"), "4");
  EXPECT_EQ(args.Get("--faults", "fallback"), "fallback");
}

TEST(ToolArgsTest, UnknownFlagIsAnErrorNotASilentSink) {
  // The regression: "--sharsd 4" must fail loudly, never consume "4" and
  // continue with defaults.
  const ParsedArgs args =
      Parse({"graph.lg", "--sharsd", "4"}, LoadgenLikeSpec());
  ASSERT_FALSE(args.ok());
  EXPECT_NE(args.error.find("unknown flag --sharsd"), std::string::npos);
}

TEST(ToolArgsTest, UnknownFlagBeforeFeatureExistedFails) {
  ArgSpec without_shards;
  without_shards.switches = {"--baseline"};
  without_shards.options = {"--requests"};
  const ParsedArgs args =
      Parse({"graph.lg", "--shards", "4"}, without_shards);
  ASSERT_FALSE(args.ok());
  EXPECT_NE(args.error.find("unknown flag --shards"), std::string::npos);
}

TEST(ToolArgsTest, MissingValueIsAnError) {
  const ParsedArgs args = Parse({"graph.lg", "--requests"}, LoadgenLikeSpec());
  ASSERT_FALSE(args.ok());
  EXPECT_NE(args.error.find("missing value for --requests"),
            std::string::npos);
}

TEST(ToolArgsTest, ExcessPositionalIsAnError) {
  const ParsedArgs args = Parse({"a.lg", "b.lg"}, LoadgenLikeSpec());
  ASSERT_FALSE(args.ok());
  EXPECT_NE(args.error.find("unexpected argument 'b.lg'"), std::string::npos);
}

TEST(ToolArgsTest, SwitchNeverConsumesAValue) {
  const ParsedArgs args =
      Parse({"--baseline", "graph.lg"}, LoadgenLikeSpec());
  ASSERT_TRUE(args.ok()) << args.error;
  EXPECT_TRUE(args.Has("--baseline"));
  ASSERT_EQ(args.positional.size(), 1u);
  EXPECT_EQ(args.positional[0], "graph.lg");
}

TEST(ToolArgsTest, OptionValueMayStartWithDashes) {
  // A declared option takes the NEXT argv verbatim, even if it looks like
  // a flag (fault specs and negative numbers stay expressible).
  const ParsedArgs args =
      Parse({"--faults", "--weird=spec", "g.lg"}, LoadgenLikeSpec());
  ASSERT_TRUE(args.ok()) << args.error;
  EXPECT_EQ(args.Get("--faults", ""), "--weird=spec");
}

TEST(ToolArgsTest, RepeatedOptionLastOneWins) {
  const ParsedArgs args =
      Parse({"--requests", "5", "--requests", "9"}, LoadgenLikeSpec());
  ASSERT_TRUE(args.ok()) << args.error;
  EXPECT_EQ(args.Get("--requests", ""), "9");
}

TEST(ToolArgsTest, EmptyCommandLineIsOk) {
  const ParsedArgs args = Parse({}, LoadgenLikeSpec());
  ASSERT_TRUE(args.ok());
  EXPECT_TRUE(args.positional.empty());
  EXPECT_TRUE(args.values.empty());
}

// --- Per-tool spec shapes (every tool now parses strictly) ----------------

TEST(ToolArgsTest, MineLikeSpecParsesServeModeFlags) {
  ArgSpec spec;
  spec.switches = {"--serve"};
  spec.options = {"--support", "--max-edges", "--method", "--threads",
                  "--timeout", "--print", "--depth", "--workers", "--queue"};
  spec.max_positional = 1;
  const ParsedArgs args =
      Parse({"graph.lg", "--support", "100", "--serve", "--workers", "8"},
            spec);
  ASSERT_TRUE(args.ok()) << args.error;
  ASSERT_EQ(args.positional.size(), 1u);
  EXPECT_EQ(args.positional[0], "graph.lg");
  EXPECT_TRUE(args.Has("--serve"));
  EXPECT_EQ(args.Get("--support", "0"), "100");
  EXPECT_EQ(args.Get("--workers", "4"), "8");
  // The legacy psi_mine parser consumed "--sypport 100" silently; strict
  // parsing makes the typo fatal.
  const ParsedArgs typo = Parse({"graph.lg", "--sypport", "100"}, spec);
  ASSERT_FALSE(typo.ok());
  EXPECT_NE(typo.error.find("unknown flag --sypport"), std::string::npos);
}

TEST(ToolArgsTest, QueryLikeSpecKeepsVerboseASwitch) {
  ArgSpec spec;
  spec.switches = {"--verbose"};
  spec.options = {"--queries", "--extract", "--count", "--engine",
                  "--threads", "--depth", "--timeout", "--seed"};
  spec.max_positional = 1;
  const ParsedArgs args =
      Parse({"graph.lg", "--verbose", "--extract", "6"}, spec);
  ASSERT_TRUE(args.ok()) << args.error;
  EXPECT_TRUE(args.Has("--verbose"));
  EXPECT_EQ(args.Get("--extract", "5"), "6");
  // --verbose must never swallow the following argument.
  ASSERT_EQ(args.positional.size(), 1u);
  const ParsedArgs trailing = Parse({"--verbose", "graph.lg"}, spec);
  ASSERT_TRUE(trailing.ok()) << trailing.error;
  ASSERT_EQ(trailing.positional.size(), 1u);
  EXPECT_EQ(trailing.positional[0], "graph.lg");
}

TEST(ToolArgsTest, GenerateLikeSpecRejectsAnyPositional) {
  ArgSpec spec;
  spec.options = {"--out", "--dataset", "--generator", "--nodes", "--seed"};
  spec.max_positional = 0;
  const ParsedArgs args =
      Parse({"--out", "g.lg", "--dataset", "cora"}, spec);
  ASSERT_TRUE(args.ok()) << args.error;
  EXPECT_EQ(args.Get("--out", ""), "g.lg");
  // The legacy psi_generate parser skipped argv two-by-two, so a stray
  // positional desynced every following flag; now it fails loudly.
  const ParsedArgs stray = Parse({"g.lg", "--dataset", "cora"}, spec);
  ASSERT_FALSE(stray.ok());
  EXPECT_NE(stray.error.find("unexpected argument 'g.lg'"),
            std::string::npos);
}

TEST(ToolArgsTest, BatchOptionParsesLikeLoadgen) {
  ArgSpec spec = LoadgenLikeSpec();
  spec.options.push_back("--batch");
  const ParsedArgs args =
      Parse({"graph.lg", "--batch", "16", "--requests", "64"}, spec);
  ASSERT_TRUE(args.ok()) << args.error;
  EXPECT_EQ(args.Get("--batch", "0"), "16");
  const ParsedArgs missing = Parse({"graph.lg", "--batch"}, spec);
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.error.find("missing value for --batch"),
            std::string::npos);
}

}  // namespace
}  // namespace psi::tools
