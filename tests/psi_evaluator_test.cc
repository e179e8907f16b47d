#include "match/psi_evaluator.h"

#include <gtest/gtest.h>

#include "match/candidates.h"
#include "signature/builders.h"
#include "tests/test_fixtures.h"

namespace psi::match {
namespace {

class PsiEvaluatorFigure1Test
    : public ::testing::TestWithParam<signature::Method> {
 protected:
  PsiEvaluatorFigure1Test()
      : g_(psi::testing::MakeFigure1Graph()),
        q_(psi::testing::MakeFigure1Query()),
        gs_(signature::BuildSignatures(g_, GetParam(), 2, g_.num_labels())),
        qs_(signature::BuildSignatures(q_, GetParam(), 2, g_.num_labels())),
        plan_(MakeHeuristicPlan(q_, g_, q_.pivot())) {}

  graph::Graph g_;
  graph::QueryGraph q_;
  signature::SignatureMatrix gs_;
  signature::SignatureMatrix qs_;
  Plan plan_;
};

TEST_P(PsiEvaluatorFigure1Test, AllModesAgreeOnPaperAnswer) {
  // The paper's Figure 1: valid pivot bindings are u1 (=0) and u6 (=5).
  PsiEvaluator evaluator(g_, gs_);
  evaluator.BindQuery(q_, qs_, plan_);
  for (const PsiMode mode :
       {PsiMode::kOptimistic, PsiMode::kPessimistic}) {
    PsiEvaluator::Options options;
    options.mode = mode;
    for (graph::NodeId u = 0; u < g_.num_nodes(); ++u) {
      const Outcome outcome = evaluator.EvaluateNode(u, options);
      const bool expected_valid = u == 0 || u == 5;
      EXPECT_EQ(outcome == Outcome::kValid, expected_valid)
          << "mode " << static_cast<int>(mode) << " node " << u;
    }
  }
}

TEST_P(PsiEvaluatorFigure1Test, OptimisticStrategyAgrees) {
  PsiEvaluator evaluator(g_, gs_);
  evaluator.BindQuery(q_, qs_, plan_);
  PsiEvaluator::Options options;
  for (graph::NodeId u = 0; u < g_.num_nodes(); ++u) {
    const Outcome outcome =
        evaluator.EvaluateNodeOptimisticStrategy(u, options);
    EXPECT_EQ(outcome == Outcome::kValid, u == 0 || u == 5) << u;
  }
}

TEST_P(PsiEvaluatorFigure1Test, WrongLabelRejectedImmediately) {
  PsiEvaluator evaluator(g_, gs_);
  evaluator.BindQuery(q_, qs_, plan_);
  PsiEvaluator::Options options;
  SearchStats stats;
  // u2 (=1) has label B, pivot wants A: no recursion should happen.
  EXPECT_EQ(evaluator.EvaluateNode(1, options, &stats), Outcome::kInvalid);
  EXPECT_EQ(stats.recursive_calls, 0u);
}

TEST_P(PsiEvaluatorFigure1Test, PessimistCountsSignatureChecks) {
  PsiEvaluator evaluator(g_, gs_);
  evaluator.BindQuery(q_, qs_, plan_);
  PsiEvaluator::Options options;
  options.mode = PsiMode::kPessimistic;
  SearchStats stats;
  evaluator.EvaluateNode(0, options, &stats);
  EXPECT_GT(stats.signature_checks, 0u);
}

TEST_P(PsiEvaluatorFigure1Test, OptimistCountsSorts) {
  PsiEvaluator evaluator(g_, gs_);
  evaluator.BindQuery(q_, qs_, plan_);
  PsiEvaluator::Options options;
  options.mode = PsiMode::kOptimistic;
  SearchStats stats;
  evaluator.EvaluateNode(0, options, &stats);
  EXPECT_GT(stats.score_sorts, 0u);
}

INSTANTIATE_TEST_SUITE_P(Methods, PsiEvaluatorFigure1Test,
                         ::testing::Values(signature::Method::kExploration,
                                           signature::Method::kMatrix));

TEST(PsiEvaluatorTest, SuperOptimisticLimitIsApplied) {
  // A star graph where the pivot's neighbor has many candidates; the
  // super-optimistic search must examine at most `limit` children per
  // level. We verify it returns kInvalid (truncated, inconclusive) when
  // the only completing candidate is outside the cap, while the full
  // optimistic search finds it.
  graph::GraphBuilder b;
  const graph::NodeId center = b.AddNode(0);  // pivot candidate, label 0
  // 30 label-1 neighbors, each padded to degree 2 with a label-3 dummy so
  // the degree filter keeps all of them; only the last one also has a
  // label-2 neighbor.
  std::vector<graph::NodeId> mids;
  for (int i = 0; i < 30; ++i) mids.push_back(b.AddNode(1));
  for (const graph::NodeId m : mids) {
    b.AddEdge(center, m);
    b.AddEdge(m, b.AddNode(3));
  }
  const graph::NodeId leaf = b.AddNode(2);
  b.AddEdge(mids.back(), leaf);
  const graph::Graph g = std::move(b).Build();

  graph::QueryGraph q;
  const graph::NodeId p = q.AddNode(0);
  const graph::NodeId m = q.AddNode(1);
  const graph::NodeId l = q.AddNode(2);
  q.AddEdge(p, m);
  q.AddEdge(m, l);
  q.set_pivot(p);

  // Depth-0 signatures: all mid nodes have identical signatures, so score
  // sorting cannot rescue the truncated search.
  const auto gs =
      signature::BuildSignatures(g, signature::Method::kMatrix, 0, 4);
  const auto qs =
      signature::BuildSignatures(q, signature::Method::kMatrix, 0, 4);
  const Plan plan = MakeHeuristicPlan(q, g, p);

  PsiEvaluator evaluator(g, gs);
  evaluator.BindQuery(q, qs, plan);

  PsiEvaluator::Options super;
  super.mode = PsiMode::kSuperOptimistic;
  super.super_optimistic_limit = 5;
  EXPECT_EQ(evaluator.EvaluateNode(center, super), Outcome::kInvalid);

  PsiEvaluator::Options full;
  full.mode = PsiMode::kOptimistic;
  EXPECT_EQ(evaluator.EvaluateNode(center, full), Outcome::kValid);

  // The combined strategy must still be exact.
  PsiEvaluator::Options strategy;
  strategy.super_optimistic_limit = 5;
  EXPECT_EQ(evaluator.EvaluateNodeOptimisticStrategy(center, strategy),
            Outcome::kValid);
}

TEST(PsiEvaluatorTest, ExpiredDeadlineReportsTimeout) {
  const graph::Graph g = psi::testing::MakeRandomGraph(200, 800, 2, 5);
  graph::QueryGraph q;
  const graph::NodeId a = q.AddNode(0);
  const graph::NodeId c = q.AddNode(1);
  const graph::NodeId d = q.AddNode(0);
  q.AddEdge(a, c);
  q.AddEdge(c, d);
  q.set_pivot(a);

  const auto gs = signature::BuildSignatures(
      g, signature::Method::kMatrix, 2, g.num_labels());
  const auto qs = signature::BuildSignatures(
      q, signature::Method::kMatrix, 2, g.num_labels());
  PsiEvaluator evaluator(g, gs);
  evaluator.BindQuery(q, qs, MakeHeuristicPlan(q, g, a));

  PsiEvaluator::Options options;
  options.mode = PsiMode::kPessimistic;
  options.deadline = util::Deadline::After(-1.0);  // already expired
  const auto candidates = ExtractPivotCandidates(g, q);
  ASSERT_FALSE(candidates.empty());
  // With an expired deadline, no decisive answer may be fabricated unless
  // it was decided before the first poll (label/degree rejection).
  const Outcome outcome = evaluator.EvaluateNode(candidates[0], options);
  EXPECT_TRUE(outcome == Outcome::kTimeout || outcome == Outcome::kInvalid ||
              outcome == Outcome::kValid);
}

TEST(PsiEvaluatorTest, StopTokenCancels) {
  const graph::Graph g = psi::testing::MakeRandomGraph(500, 3000, 2, 6);
  graph::QueryGraph q;
  graph::NodeId prev = q.AddNode(0);
  q.set_pivot(prev);
  for (int i = 0; i < 4; ++i) {
    const graph::NodeId next = q.AddNode(i % 2);
    q.AddEdge(prev, next);
    prev = next;
  }
  const auto gs = signature::BuildSignatures(
      g, signature::Method::kMatrix, 2, g.num_labels());
  const auto qs = signature::BuildSignatures(
      q, signature::Method::kMatrix, 2, g.num_labels());
  PsiEvaluator evaluator(g, gs);
  evaluator.BindQuery(q, qs, MakeHeuristicPlan(q, g, q.pivot()));

  util::StopSource source;
  source.RequestStop();
  PsiEvaluator::Options options;
  options.mode = PsiMode::kPessimistic;
  options.stop = util::StopToken(&source);
  const auto candidates = ExtractPivotCandidates(g, q);
  ASSERT_FALSE(candidates.empty());
  size_t stopped = 0;
  for (const graph::NodeId u : candidates) {
    if (evaluator.EvaluateNode(u, options) == Outcome::kStopped) ++stopped;
  }
  // At least some searches must have hit the poll and reported kStopped.
  EXPECT_GT(stopped, 0u);
}

// The step budget is exact: an evaluation that takes S steps completes
// with max_steps = S, times out with S - 1, and counts S whether or not it
// is given stats.
TEST(PsiEvaluatorTest, StepBudgetIsExact) {
  const graph::Graph g = psi::testing::MakeRandomGraph(300, 1500, 2, 7);
  const graph::QueryGraph q = psi::testing::ExtractQuery(g, 4, 8);
  ASSERT_EQ(q.num_nodes(), 4u);
  const auto gs = signature::BuildSignatures(
      g, signature::Method::kMatrix, 2, g.num_labels());
  const auto qs = signature::BuildSignatures(
      q, signature::Method::kMatrix, 2, g.num_labels());
  PsiEvaluator evaluator(g, gs);
  evaluator.BindQuery(q, qs, MakeHeuristicPlan(q, g, q.pivot()));

  size_t searched = 0;
  for (const PsiMode mode : {PsiMode::kPessimistic, PsiMode::kOptimistic}) {
    PsiEvaluator::Options options;
    options.mode = mode;
    for (const graph::NodeId u : ExtractPivotCandidates(g, q)) {
      SearchStats stats;
      const Outcome unlimited = evaluator.EvaluateNode(u, options, &stats);
      const uint64_t used = evaluator.steps();
      EXPECT_EQ(used, stats.recursive_calls + stats.candidates_examined);
      ASSERT_EQ(evaluator.EvaluateNode(u, options), unlimited);
      EXPECT_EQ(evaluator.steps(), used) << "counted without stats";
      if (used < 2) continue;  // decided by the pivot check alone
      ++searched;
      PsiEvaluator::Options limited = options;
      limited.max_steps = used;
      EXPECT_EQ(evaluator.EvaluateNode(u, limited), unlimited) << u;
      EXPECT_EQ(evaluator.steps(), used);
      limited.max_steps = used - 1;
      EXPECT_EQ(evaluator.EvaluateNode(u, limited), Outcome::kTimeout) << u;
    }
  }
  EXPECT_GT(searched, 10u);
}

// The super-optimistic and complete passes of the optimistic strategy
// share one budget: the complete pass alone fits in what is left of the
// strategy's budget after the first pass, but the strategy does not.
TEST(PsiEvaluatorTest, OptimisticPassesShareOneBudget) {
  const graph::Graph g = psi::testing::MakeRandomGraph(300, 1500, 2, 7);
  const auto gs = signature::BuildSignatures(
      g, signature::Method::kMatrix, 2, g.num_labels());
  size_t checked = 0;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    const graph::QueryGraph q = psi::testing::ExtractQuery(g, 4, 100 + seed);
    if (q.num_nodes() != 4) continue;
    const auto qs = signature::BuildSignatures(
        q, signature::Method::kMatrix, 2, g.num_labels());
    PsiEvaluator evaluator(g, gs);
    evaluator.BindQuery(q, qs, MakeHeuristicPlan(q, g, q.pivot()));
    PsiEvaluator::Options strategy;
    strategy.super_optimistic_limit = 1;
    PsiEvaluator::Options super = strategy;
    super.mode = PsiMode::kSuperOptimistic;
    PsiEvaluator::Options full = strategy;
    full.mode = PsiMode::kOptimistic;
    for (const graph::NodeId u : ExtractPivotCandidates(g, q)) {
      // Only candidates whose truncated pass is inconclusive run both.
      if (evaluator.EvaluateNode(u, super) != Outcome::kInvalid) continue;
      const uint64_t first = evaluator.steps();
      const Outcome complete = evaluator.EvaluateNode(u, full);
      const uint64_t second = evaluator.steps();
      if (first < 2 || second < 2) continue;
      ASSERT_EQ(evaluator.EvaluateNodeOptimisticStrategy(u, strategy),
                complete);
      ASSERT_EQ(evaluator.steps(), first + second);
      ++checked;
      strategy.max_steps = first + second;
      EXPECT_EQ(evaluator.EvaluateNodeOptimisticStrategy(u, strategy),
                complete);
      strategy.max_steps = first + second - 1;
      EXPECT_GE(strategy.max_steps, second);
      EXPECT_EQ(evaluator.EvaluateNodeOptimisticStrategy(u, strategy),
                Outcome::kTimeout)
          << u;
      strategy.max_steps = 0;
    }
  }
  EXPECT_GT(checked, 5u);
}

TEST(PsiEvaluatorTest, BindQueryAcceptsTemporaryPlan) {
  // Regression: BindQuery used to keep a pointer into the passed plan, so a
  // temporary argument dangled. It now copies.
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  const graph::QueryGraph q = psi::testing::MakeFigure1Query();
  const auto gs = signature::BuildSignatures(
      g, signature::Method::kMatrix, 2, g.num_labels());
  const auto qs = signature::BuildSignatures(
      q, signature::Method::kMatrix, 2, g.num_labels());
  PsiEvaluator evaluator(g, gs);
  evaluator.BindQuery(q, qs, MakeHeuristicPlan(q, g, q.pivot()));  // temp
  PsiEvaluator::Options options;
  EXPECT_EQ(evaluator.EvaluateNode(0, options), Outcome::kValid);
  EXPECT_EQ(evaluator.EvaluateNode(5, options), Outcome::kValid);
  EXPECT_EQ(evaluator.EvaluateNode(1, options), Outcome::kInvalid);
}

TEST(PsiEvaluatorTest, SingleNodeQuery) {
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  graph::QueryGraph q;
  q.AddNode(psi::testing::kB);
  q.set_pivot(0);
  const auto gs = signature::BuildSignatures(
      g, signature::Method::kMatrix, 2, g.num_labels());
  const auto qs = signature::BuildSignatures(
      q, signature::Method::kMatrix, 2, g.num_labels());
  PsiEvaluator evaluator(g, gs);
  Plan plan;
  plan.order = {0};
  evaluator.BindQuery(q, qs, plan);
  PsiEvaluator::Options options;
  // Every B node matches a single-node B query.
  EXPECT_EQ(evaluator.EvaluateNode(1, options), Outcome::kValid);
  EXPECT_EQ(evaluator.EvaluateNode(4, options), Outcome::kValid);
  EXPECT_EQ(evaluator.EvaluateNode(0, options), Outcome::kInvalid);
}

}  // namespace
}  // namespace psi::match
