#include "core/query_context.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/batch_context.h"
#include "core/pure_drivers.h"
#include "graph/generators.h"
#include "tests/test_fixtures.h"

namespace psi::core {
namespace {

TEST(QueryContextTest, FeasibleQuery) {
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  const auto gs = signature::BuildSignatures(
      g, signature::Method::kMatrix, 2, g.num_labels());
  const graph::QueryGraph q = psi::testing::MakeFigure1Query();
  const QueryContext ctx = PrepareQuery(g, gs, q);
  EXPECT_TRUE(ctx.feasible);
  EXPECT_EQ(ctx.candidates, (std::vector<graph::NodeId>{0, 5}));
  EXPECT_EQ(ctx.query_sigs.num_rows(), q.num_nodes());
  EXPECT_EQ(ctx.query_sigs.num_labels(), gs.num_labels());
  EXPECT_EQ(ctx.query_sigs.method(), gs.method());
}

TEST(QueryContextTest, UnknownLabelInfeasible) {
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  const auto gs = signature::BuildSignatures(
      g, signature::Method::kExploration, 2, g.num_labels());
  graph::QueryGraph q;
  const graph::NodeId a = q.AddNode(psi::testing::kA);
  const graph::NodeId x = q.AddNode(77);  // label absent from g
  q.AddEdge(a, x);
  q.set_pivot(a);
  const QueryContext ctx = PrepareQuery(g, gs, q);
  EXPECT_FALSE(ctx.feasible);
  EXPECT_TRUE(ctx.candidates.empty());
}

TEST(QueryContextTest, SignatureMethodFollowsGraphSignatures) {
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  const graph::QueryGraph q = psi::testing::MakeFigure1Query();
  for (const auto method :
       {signature::Method::kExploration, signature::Method::kMatrix}) {
    const auto gs = signature::BuildSignatures(g, method, 2, g.num_labels());
    const QueryContext ctx = PrepareQuery(g, gs, q);
    EXPECT_EQ(ctx.query_sigs.method(), method);
    EXPECT_EQ(ctx.query_sigs.depth(), 2u);
  }
}

// ---------------------------------------------------------------------------
// BatchEvalContext (DESIGN.md §17): memoized preparation must be
// indistinguishable from PrepareQuery.
// ---------------------------------------------------------------------------

/// `q` with edge labels 0 and 1 swapped: the same node labels and degrees,
/// so only the edge labels tell its pivot classes from `q`'s.
graph::QueryGraph SwapEdgeLabels(const graph::QueryGraph& q) {
  graph::QueryGraph swapped;
  for (graph::NodeId v = 0; v < q.num_nodes(); ++v) swapped.AddNode(q.label(v));
  for (graph::NodeId v = 0; v < q.num_nodes(); ++v) {
    for (const auto& [nbr, elabel] : q.neighbors(v)) {
      if (v < nbr) swapped.AddEdge(v, nbr, 1 - elabel);
    }
  }
  swapped.set_pivot(q.pivot());
  return swapped;
}

void ExpectSameSignatures(const signature::SignatureMatrix& got,
                          const signature::SignatureMatrix& want) {
  ASSERT_EQ(got.num_rows(), want.num_rows());
  ASSERT_EQ(got.num_labels(), want.num_labels());
  EXPECT_EQ(got.method(), want.method());
  EXPECT_EQ(got.depth(), want.depth());
  EXPECT_EQ(got.decay(), want.decay());
  for (size_t r = 0; r < got.num_rows(); ++r) {
    EXPECT_TRUE(std::ranges::equal(got.row(r), want.row(r))) << "row " << r;
  }
}

void ExpectSameRun(const PureDriverResult& got, const PureDriverResult& want) {
  EXPECT_EQ(got.valid_nodes, want.valid_nodes);
  EXPECT_EQ(got.complete, want.complete);
  EXPECT_EQ(got.stats.recursive_calls, want.stats.recursive_calls);
  EXPECT_EQ(got.stats.candidates_examined, want.stats.candidates_examined);
  EXPECT_EQ(got.stats.signature_checks, want.stats.signature_checks);
  EXPECT_EQ(got.stats.pruned_by_signature, want.stats.pruned_by_signature);
  EXPECT_EQ(got.stats.score_sorts, want.stats.score_sorts);
}

class BatchEvalContextTest : public ::testing::TestWithParam<uint64_t> {};

// One context prepares every pivot of several patterns, each next to its
// edge-label-swapped twin, so a memo key that drops a fact the preparation
// reads shares state between queries that differ in it. Every prepared
// context must equal PrepareQuery's, and EvaluatePure must give the same
// answer and the same stats with and without it, unlimited and at a limit.
TEST_P(BatchEvalContextTest, PrepareMatchesPrepareQueryAtEveryPivot) {
  const uint64_t seed = psi::testing::TestSeed(GetParam());
  PSI_LOG_TEST_SEED(seed);
  util::Rng rng(seed);
  graph::LabelConfig labels;
  labels.num_labels = 3;
  labels.zipf_exponent = 0.6;
  labels.num_edge_labels = 2;
  const graph::Graph g = graph::ErdosRenyi(200, 700, labels, rng);
  const auto gs = signature::BuildSignatures(
      g, signature::Method::kMatrix, 2, g.num_labels());

  BatchEvalContext context(g, gs);
  size_t compared = 0;
  for (uint64_t p = 0; p < 4; ++p) {
    const graph::QueryGraph extracted =
        psi::testing::ExtractQuery(g, 4, seed * 31 + p);
    if (extracted.num_nodes() != 4) continue;
    for (graph::QueryGraph q : {extracted, SwapEdgeLabels(extracted)}) {
      for (graph::NodeId pivot = 0; pivot < q.num_nodes(); ++pivot) {
        q.set_pivot(pivot);
        SCOPED_TRACE(q.ToString());
        const QueryContext want = PrepareQuery(g, gs, q);
        const QueryContext* got = context.Prepare(q).context;
        ASSERT_NE(got, nullptr);
        EXPECT_EQ(got->feasible, want.feasible);
        EXPECT_EQ(got->candidates, want.candidates);
        ExpectSameSignatures(got->query_sigs, want.query_sigs);
        for (const PureStrategy strategy :
             {PureStrategy::kPessimistic, PureStrategy::kOptimistic}) {
          for (const size_t limit : {size_t{0}, size_t{3}}) {
            SCOPED_TRACE(::testing::Message()
                         << "limit=" << limit << " pessimistic="
                         << (strategy == PureStrategy::kPessimistic));
            PureDriverOptions options;
            options.strategy = strategy;
            options.max_valid_nodes = limit;
            const PureDriverResult standalone =
                EvaluatePure(g, gs, q, options);
            options.prepared = got;
            ExpectSameRun(EvaluatePure(g, gs, q, options), standalone);
          }
        }
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 0u) << "no pattern extracted";
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchEvalContextTest,
                         ::testing::Values(3, 8, 21));

}  // namespace
}  // namespace psi::core
