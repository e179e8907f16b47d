#include "graph/equivalence.h"

#include <unordered_set>

#include <gtest/gtest.h>

#include "core/smart_psi.h"
#include "graph/graph_builder.h"
#include "graph/query_extractor.h"
#include "match/engine.h"
#include "tests/test_fixtures.h"

namespace psi::graph {
namespace {

TEST(EquivalenceTest, OpenTwinsDetected) {
  // A star: the three leaves share the center as their whole neighborhood.
  GraphBuilder b;
  const NodeId center = b.AddNode(0);
  const NodeId l1 = b.AddNode(1);
  const NodeId l2 = b.AddNode(1);
  const NodeId l3 = b.AddNode(1);
  b.AddEdge(center, l1);
  b.AddEdge(center, l2);
  b.AddEdge(center, l3);
  const Graph g = std::move(b).Build();
  const EquivalenceClasses classes = ComputeSyntacticEquivalence(g);
  EXPECT_EQ(classes.class_of[l1], classes.class_of[l2]);
  EXPECT_EQ(classes.class_of[l2], classes.class_of[l3]);
  EXPECT_NE(classes.class_of[center], classes.class_of[l1]);
  EXPECT_EQ(classes.num_classes(), 2u);
}

TEST(EquivalenceTest, DifferentLabelsNeverTwins) {
  GraphBuilder b;
  const NodeId center = b.AddNode(0);
  const NodeId l1 = b.AddNode(1);
  const NodeId l2 = b.AddNode(2);  // same neighborhood, different label
  b.AddEdge(center, l1);
  b.AddEdge(center, l2);
  const Graph g = std::move(b).Build();
  const EquivalenceClasses classes = ComputeSyntacticEquivalence(g);
  EXPECT_NE(classes.class_of[l1], classes.class_of[l2]);
}

TEST(EquivalenceTest, EdgeLabelsDistinguishOpenTwins) {
  GraphBuilder b;
  const NodeId center = b.AddNode(0);
  const NodeId l1 = b.AddNode(1);
  const NodeId l2 = b.AddNode(1);
  b.AddEdge(center, l1, 7);
  b.AddEdge(center, l2, 8);  // different edge label
  const Graph g = std::move(b).Build();
  const EquivalenceClasses classes = ComputeSyntacticEquivalence(g);
  EXPECT_NE(classes.class_of[l1], classes.class_of[l2]);
}

TEST(EquivalenceTest, ClosedTwinsDetected) {
  // Triangle of same-label nodes plus one attachment: the two triangle
  // nodes not carrying the attachment are adjacent closed twins.
  GraphBuilder b;
  const NodeId a = b.AddNode(0);
  const NodeId c = b.AddNode(0);
  const NodeId d = b.AddNode(0);
  const NodeId tail = b.AddNode(1);
  b.AddEdge(a, c);
  b.AddEdge(a, d);
  b.AddEdge(c, d);
  b.AddEdge(a, tail);
  const Graph g = std::move(b).Build();
  const EquivalenceClasses classes = ComputeSyntacticEquivalence(g);
  EXPECT_EQ(classes.class_of[c], classes.class_of[d]);
  EXPECT_NE(classes.class_of[a], classes.class_of[c]);
}

TEST(EquivalenceTest, RepresentativeIsSmallestMember) {
  GraphBuilder b;
  const NodeId center = b.AddNode(0);
  const NodeId l1 = b.AddNode(1);
  const NodeId l2 = b.AddNode(1);
  b.AddEdge(center, l1);
  b.AddEdge(center, l2);
  const Graph g = std::move(b).Build();
  const EquivalenceClasses classes = ComputeSyntacticEquivalence(g);
  EXPECT_EQ(classes.representative[classes.class_of[l2]], l1);
}

TEST(EquivalenceTest, IsolatedNodesWithSameLabelAreTwins) {
  GraphBuilder b;
  b.AddNodes(3);
  b.SetNodeLabel(2, 1);
  const Graph g = std::move(b).Build();
  const EquivalenceClasses classes = ComputeSyntacticEquivalence(g);
  EXPECT_EQ(classes.class_of[0], classes.class_of[1]);
  EXPECT_NE(classes.class_of[0], classes.class_of[2]);
}

// Twins must share PSI validity — verified against ground truth with the
// engine's exploit_equivalence knob on and off.
class EquivalenceExactnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EquivalenceExactnessTest, EngineWithEquivalenceMatchesGroundTruth) {
  // Power-law graphs have many degree-1 twins hanging off hubs.
  util::Rng gen_rng(GetParam());
  LabelConfig labels;
  labels.num_labels = 3;
  labels.zipf_exponent = 0.5;
  const Graph g = ChungLuPowerLaw(400, 900, 2.1, labels, gen_rng);

  const EquivalenceClasses classes = ComputeSyntacticEquivalence(g);
  ASSERT_LT(classes.num_classes(), g.num_nodes());  // twins must exist

  QueryExtractor extractor(g);
  util::Rng rng(GetParam() * 7 + 3);
  const QueryGraph q = extractor.Extract(4, rng);
  if (q.num_nodes() != 4) GTEST_SKIP();

  match::BasicEngine basic(g);
  const auto truth = basic.ProjectPivot(q, match::MatchingEngine::Options());
  ASSERT_TRUE(truth.complete);

  core::SmartPsiConfig config;
  config.exploit_equivalence = true;
  config.min_candidates_for_ml = 8;
  core::SmartPsiEngine engine(g, config);
  const auto result = engine.Evaluate(q);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.valid_nodes, truth.pivot_matches) << q.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivalenceExactnessTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(EquivalenceTest, TwinsShareValidityOnRandomGraphs) {
  // Direct statement of the theorem the engine relies on: for every query,
  // the ground-truth valid set is a union of equivalence classes restricted
  // to the candidate set.
  util::Rng gen_rng(99);
  LabelConfig labels;
  labels.num_labels = 2;
  labels.zipf_exponent = 0.3;
  const Graph g = ChungLuPowerLaw(300, 700, 2.2, labels, gen_rng);
  const EquivalenceClasses classes = ComputeSyntacticEquivalence(g);

  QueryExtractor extractor(g);
  util::Rng rng(100);
  match::BasicEngine basic(g);
  for (int trial = 0; trial < 8; ++trial) {
    const QueryGraph q = extractor.Extract(3, rng);
    if (q.num_nodes() != 3) continue;
    const auto truth =
        basic.ProjectPivot(q, match::MatchingEngine::Options());
    ASSERT_TRUE(truth.complete);
    std::unordered_set<NodeId> valid(truth.pivot_matches.begin(),
                                     truth.pivot_matches.end());
    for (const NodeId u : truth.pivot_matches) {
      // Every candidate twin of a valid node must be valid too.
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (v == u || classes.class_of[u] != classes.class_of[v]) continue;
        EXPECT_TRUE(valid.count(v) > 0)
            << "twin " << v << " of valid " << u << " not valid, query "
            << q.ToString();
      }
    }
  }
}

}  // namespace
}  // namespace psi::graph
