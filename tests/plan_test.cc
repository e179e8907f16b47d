#include "match/plan.h"

#include <set>

#include <gtest/gtest.h>

#include "tests/test_fixtures.h"

namespace psi::match {
namespace {

TEST(PlanValidityTest, AcceptsConnectedPermutation) {
  const graph::QueryGraph q = psi::testing::MakeFigure2Query();
  Plan plan;
  plan.order = {1, 0, 2, 3, 4};
  EXPECT_TRUE(IsValidPlan(q, plan, 1));
}

TEST(PlanValidityTest, RejectsWrongRoot) {
  const graph::QueryGraph q = psi::testing::MakeFigure2Query();
  Plan plan;
  plan.order = {1, 0, 2, 3, 4};
  EXPECT_FALSE(IsValidPlan(q, plan, 0));
}

TEST(PlanValidityTest, RejectsDisconnectedPrefix) {
  const graph::QueryGraph q = psi::testing::MakeFigure2Query();
  Plan plan;
  plan.order = {0, 4, 3, 1, 2};  // v4 is not adjacent to v0
  EXPECT_FALSE(IsValidPlan(q, plan, 0));
}

TEST(PlanValidityTest, RejectsDuplicatesAndWrongSize) {
  const graph::QueryGraph q = psi::testing::MakeFigure2Query();
  Plan dup;
  dup.order = {1, 0, 0, 2, 3};
  EXPECT_FALSE(IsValidPlan(q, dup, 1));
  Plan short_plan;
  short_plan.order = {1, 0};
  EXPECT_FALSE(IsValidPlan(q, short_plan, 1));
}

TEST(HeuristicPlanTest, ValidForAnyRoot) {
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  const graph::QueryGraph q = psi::testing::MakeFigure2Query();
  for (graph::NodeId root = 0; root < q.num_nodes(); ++root) {
    const Plan plan = MakeHeuristicPlan(q, g, root);
    EXPECT_TRUE(IsValidPlan(q, plan, root)) << plan.ToString();
  }
}

TEST(HeuristicPlanTest, SingleNodeQuery) {
  graph::QueryGraph q;
  q.AddNode(0);
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  const Plan plan = MakeHeuristicPlan(q, g, 0);
  EXPECT_EQ(plan.order.size(), 1u);
  EXPECT_EQ(plan.order[0], 0u);
}

TEST(RandomPlanTest, AlwaysValid) {
  const graph::QueryGraph q = psi::testing::MakeFigure2Query();
  util::Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const Plan plan = MakeRandomPlan(q, 2, rng);
    EXPECT_TRUE(IsValidPlan(q, plan, 2)) << plan.ToString();
  }
}

TEST(RandomPlanTest, ProducesVariety) {
  const graph::QueryGraph q = psi::testing::MakeFigure2Query();
  util::Rng rng(6);
  std::set<std::vector<graph::NodeId>> distinct;
  for (int i = 0; i < 60; ++i) {
    distinct.insert(MakeRandomPlan(q, 1, rng).order);
  }
  EXPECT_GT(distinct.size(), 3u);
}

TEST(SamplePlanPoolTest, HeuristicFirstAllValidDistinct) {
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  const graph::QueryGraph q = psi::testing::MakeFigure2Query();
  util::Rng rng(7);
  const auto pool = SamplePlanPool(q, g, 1, 4, rng);
  ASSERT_GE(pool.size(), 2u);
  ASSERT_LE(pool.size(), 4u);
  EXPECT_EQ(pool[0].order, MakeHeuristicPlan(q, g, 1).order);
  std::set<std::vector<graph::NodeId>> distinct;
  for (const Plan& p : pool) {
    EXPECT_TRUE(IsValidPlan(q, p, 1));
    distinct.insert(p.order);
  }
  EXPECT_EQ(distinct.size(), pool.size());
}

TEST(SamplePlanPoolTest, SmallQueryPoolShrinks) {
  // A 2-node query has exactly one connected order from each root.
  graph::QueryGraph q;
  q.AddNode(0);
  q.AddNode(1);
  q.AddEdge(0, 1);
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  util::Rng rng(8);
  const auto pool = SamplePlanPool(q, g, 0, 4, rng);
  EXPECT_EQ(pool.size(), 1u);
}

}  // namespace
}  // namespace psi::match
