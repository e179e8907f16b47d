#include "match/search_scratch.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "match/candidates.h"
#include "match/psi_evaluator.h"
#include "signature/builders.h"
#include "tests/test_fixtures.h"

namespace psi::match {
namespace {

TEST(SearchScratchPoolTest, AcquireReleaseRoundTrip) {
  SearchScratchPool pool;
  auto a = pool.Acquire();  // empty pool allocates
  auto b = pool.Acquire();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  SearchScratch* a_raw = a.get();
  SearchScratch* b_raw = b.get();
  pool.Release(std::move(a));
  auto c = pool.Acquire();  // reuses the released arena, not a fresh one
  EXPECT_EQ(c.get(), a_raw);
  pool.Release(std::move(b));
  pool.Release(std::move(c));
  // Both arenas are pooled: the next two acquisitions hand them back.
  const auto d = pool.Acquire();
  const auto e = pool.Acquire();
  EXPECT_EQ(std::min(d.get(), e.get()), std::min(a_raw, b_raw));
  EXPECT_EQ(std::max(d.get(), e.get()), std::max(a_raw, b_raw));
}

TEST(SearchScratchPoolTest, LeaseReturnsOnDestruction) {
  SearchScratchPool pool;
  SearchScratch* pooled = nullptr;
  {
    SearchScratchPool::Lease lease(&pool);
    ASSERT_NE(lease.get(), nullptr);
    pooled = lease.get();
  }
  {
    SearchScratchPool::Lease lease(nullptr);  // unpooled fallback
    ASSERT_NE(lease.get(), nullptr);
  }
  // The pool hands out its most recent arena first, so a private scratch
  // that had entered the pool would come back here instead.
  EXPECT_EQ(pool.Acquire().get(), pooled);
}

class ScratchedEvaluatorTest : public ::testing::Test {
 protected:
  ScratchedEvaluatorTest()
      : g_(psi::testing::MakeFigure1Graph()),
        q_(psi::testing::MakeFigure1Query()),
        gs_(signature::BuildSignatures(g_, signature::Method::kExploration, 2,
                                       g_.num_labels())),
        qs_(signature::BuildSignatures(q_, signature::Method::kExploration, 2,
                                       g_.num_labels())),
        plan_(MakeHeuristicPlan(q_, g_, q_.pivot())) {}

  std::vector<Outcome> EvaluateAll(PsiEvaluator& evaluator, PsiMode mode) {
    PsiEvaluator::Options options;
    options.mode = mode;
    std::vector<Outcome> outcomes;
    for (graph::NodeId u = 0; u < g_.num_nodes(); ++u) {
      outcomes.push_back(evaluator.EvaluateNode(u, options));
    }
    return outcomes;
  }

  graph::Graph g_;
  graph::QueryGraph q_;
  signature::SignatureMatrix gs_;
  signature::SignatureMatrix qs_;
  Plan plan_;
};

TEST_F(ScratchedEvaluatorTest, ExternalScratchMatchesInternal) {
  PsiEvaluator internal(g_, gs_);
  internal.BindQuery(q_, qs_, plan_);

  SearchScratch scratch;
  PsiEvaluator external(g_, gs_, &scratch);
  external.BindQuery(q_, qs_, plan_);

  for (const PsiMode mode : {PsiMode::kOptimistic, PsiMode::kPessimistic,
                             PsiMode::kSuperOptimistic}) {
    EXPECT_EQ(EvaluateAll(internal, mode), EvaluateAll(external, mode));
  }
}

TEST_F(ScratchedEvaluatorTest, ScratchSurvivesEvaluatorAndPoolsAcrossUses) {
  SearchScratchPool pool;
  std::vector<Outcome> first, second;
  SearchScratch* arena = nullptr;
  {
    SearchScratchPool::Lease lease(&pool);
    arena = lease.get();
    PsiEvaluator evaluator(g_, gs_, lease.get());
    evaluator.BindQuery(q_, qs_, plan_);
    first = EvaluateAll(evaluator, PsiMode::kPessimistic);
  }
  {
    // A second evaluator picks up the same warmed arena from the pool.
    SearchScratchPool::Lease lease(&pool);
    EXPECT_EQ(lease.get(), arena);
    PsiEvaluator evaluator(g_, gs_, lease.get());
    evaluator.BindQuery(q_, qs_, plan_);
    second = EvaluateAll(evaluator, PsiMode::kPessimistic);
  }
  EXPECT_EQ(first, second);
}

TEST_F(ScratchedEvaluatorTest, RebindAcrossQueriesStaysCorrect) {
  // One scratch, alternating binds between two different queries: stale
  // state from the previous bind must never leak into the next.
  graph::QueryGraph single;
  single.AddNode(psi::testing::kB);
  single.set_pivot(0);
  const auto single_sigs = signature::BuildSignatures(
      single, signature::Method::kExploration, 2, g_.num_labels());
  Plan single_plan;
  single_plan.order = {0};

  SearchScratch scratch;
  PsiEvaluator evaluator(g_, gs_, &scratch);
  PsiEvaluator::Options options;
  for (int round = 0; round < 3; ++round) {
    evaluator.BindQuery(q_, qs_, plan_);
    EXPECT_EQ(evaluator.EvaluateNode(0, options), Outcome::kValid);
    EXPECT_EQ(evaluator.EvaluateNode(5, options), Outcome::kValid);
    EXPECT_EQ(evaluator.EvaluateNode(1, options), Outcome::kInvalid);

    evaluator.BindQuery(single, single_sigs, single_plan);
    EXPECT_EQ(evaluator.EvaluateNode(1, options), Outcome::kValid);
    EXPECT_EQ(evaluator.EvaluateNode(0, options), Outcome::kInvalid);
  }
}

TEST_F(ScratchedEvaluatorTest, RepeatedRebindIsIdempotent) {
  // The same-binding fast path must leave behavior unchanged.
  PsiEvaluator evaluator(g_, gs_);
  evaluator.BindQuery(q_, qs_, plan_);
  const auto before = EvaluateAll(evaluator, PsiMode::kOptimistic);
  for (int i = 0; i < 5; ++i) evaluator.BindQuery(q_, qs_, plan_);
  EXPECT_EQ(EvaluateAll(evaluator, PsiMode::kOptimistic), before);
}

TEST_F(ScratchedEvaluatorTest, FilterPivotCandidatesMatchesPerCandidateCheck) {
  const graph::Graph g = psi::testing::MakeRandomGraph(400, 1600, 3, 9);
  graph::QueryGraph q;
  const graph::NodeId a = q.AddNode(0);
  const graph::NodeId b = q.AddNode(1);
  const graph::NodeId c = q.AddNode(2);
  q.AddEdge(a, b);
  q.AddEdge(b, c);
  q.set_pivot(a);
  const auto gs = signature::BuildSignatures(
      g, signature::Method::kExploration, 2, g.num_labels());
  const auto qs = signature::BuildSignatures(
      q, signature::Method::kExploration, 2, g.num_labels());
  const Plan plan = MakeHeuristicPlan(q, g, a);

  PsiEvaluator evaluator(g, gs);
  evaluator.BindQuery(q, qs, plan);

  const auto all = ExtractPivotCandidates(g, q);
  ASSERT_FALSE(all.empty());

  // Reference: the scalar per-candidate pivot satisfaction check.
  std::vector<graph::NodeId> reference;
  for (const graph::NodeId u : all) {
    if (signature::Satisfies(gs.row(u), qs.row(a))) reference.push_back(u);
  }

  std::vector<graph::NodeId> bulk = all;
  SearchStats stats;
  FilterPivotCandidates(gs, qs.row(a), bulk, stats);
  EXPECT_EQ(bulk, reference);
  EXPECT_EQ(stats.pruned_by_signature, all.size() - reference.size());
  EXPECT_EQ(stats.signature_checks, all.size());

  // Survivors evaluated with pivot_prefiltered give the same outcomes as
  // the unfiltered pessimistic evaluation of the full list.
  PsiEvaluator::Options prefiltered;
  prefiltered.mode = PsiMode::kPessimistic;
  prefiltered.pivot_prefiltered = true;
  std::vector<graph::NodeId> valid_fast;
  for (const graph::NodeId u : bulk) {
    if (evaluator.EvaluateNode(u, prefiltered) == Outcome::kValid) {
      valid_fast.push_back(u);
    }
  }
  PsiEvaluator::Options plain;
  plain.mode = PsiMode::kPessimistic;
  std::vector<graph::NodeId> valid_reference;
  for (const graph::NodeId u : all) {
    if (evaluator.EvaluateNode(u, plain) == Outcome::kValid) {
      valid_reference.push_back(u);
    }
  }
  EXPECT_EQ(valid_fast, valid_reference);
}

}  // namespace
}  // namespace psi::match
