#include "core/two_threaded.h"

#include <gtest/gtest.h>

#include "graph/query_extractor.h"
#include "match/engine.h"
#include "signature/builders.h"
#include "tests/test_fixtures.h"

namespace psi::core {
namespace {

TEST(TwoThreadedTest, Figure1Answer) {
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  const auto gs = signature::BuildSignatures(
      g, signature::Method::kMatrix, 2, g.num_labels());
  TwoThreadedBaseline baseline(g, gs);
  const auto result = baseline.Evaluate(psi::testing::MakeFigure1Query(),
                                        TwoThreadedBaseline::Options());
  EXPECT_EQ(result.valid_nodes, (std::vector<graph::NodeId>{0, 5}));
  EXPECT_TRUE(result.complete);
  // Every candidate produced exactly one decisive winner.
  EXPECT_EQ(result.optimistic_wins + result.pessimistic_wins, 2u);
}

class TwoThreadedAgreementTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(TwoThreadedAgreementTest, MatchesGroundTruth) {
  const auto [seed, with_deadline] = GetParam();
  const graph::Graph g = psi::testing::MakeRandomGraph(200, 600, 3, seed);
  const auto gs = signature::BuildSignatures(
      g, signature::Method::kMatrix, 2, g.num_labels());
  graph::QueryExtractor extractor(g);
  util::Rng rng(seed + 5);
  const graph::QueryGraph q = extractor.Extract(4, rng);
  if (q.num_nodes() != 4) GTEST_SKIP();

  match::BasicEngine basic(g);
  const auto truth =
      basic.ProjectPivot(q, match::MatchingEngine::Options());
  ASSERT_TRUE(truth.complete);

  TwoThreadedBaseline baseline(g, gs);
  TwoThreadedBaseline::Options options;
  // A deadline that never fires must leave the answer exact: both racers
  // poll it, and only the winner's decision stops the loser.
  if (with_deadline) options.deadline = util::Deadline::After(3600.0);
  const auto result = baseline.Evaluate(q, options);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.valid_nodes, truth.pivot_matches) << q.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TwoThreadedAgreementTest,
    ::testing::Combine(::testing::Values(11, 22, 33, 44),
                       ::testing::Values(true, false)));

TEST(TwoThreadedTest, ExpiredDeadlineIncomplete) {
  const graph::Graph g = psi::testing::MakeRandomGraph(100, 300, 2, 7);
  const auto gs = signature::BuildSignatures(
      g, signature::Method::kMatrix, 2, g.num_labels());
  graph::QueryGraph q;
  const graph::NodeId a = q.AddNode(0);
  const graph::NodeId b = q.AddNode(1);
  q.AddEdge(a, b);
  q.set_pivot(a);
  TwoThreadedBaseline baseline(g, gs);
  TwoThreadedBaseline::Options options;
  options.deadline = util::Deadline::After(-1.0);
  const auto result = baseline.Evaluate(q, options);
  EXPECT_FALSE(result.complete);
  EXPECT_TRUE(result.valid_nodes.empty());
}

TEST(TwoThreadedTest, InfeasibleQueryFastPath) {
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  const auto gs = signature::BuildSignatures(
      g, signature::Method::kMatrix, 2, g.num_labels());
  graph::QueryGraph q;
  q.AddNode(40);
  q.set_pivot(0);
  TwoThreadedBaseline baseline(g, gs);
  const auto result = baseline.Evaluate(q, TwoThreadedBaseline::Options());
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(result.valid_nodes.empty());
  EXPECT_EQ(result.optimistic_wins + result.pessimistic_wins, 0u);
}

}  // namespace
}  // namespace psi::core
