#include "graph/datasets.h"

#include <utility>

#include <gtest/gtest.h>

namespace psi::graph {
namespace {

TEST(DatasetsTest, SpecsMatchPaperTable3) {
  const DatasetSpec& yeast = GetDatasetSpec(Dataset::kYeast);
  EXPECT_EQ(yeast.name, "Yeast");
  EXPECT_EQ(yeast.nodes, 3112u);
  EXPECT_EQ(yeast.edges, 12519u);
  EXPECT_EQ(yeast.labels, 71u);

  const DatasetSpec& weibo = GetDatasetSpec(Dataset::kWeibo);
  EXPECT_EQ(weibo.nodes, 1655678u);
  EXPECT_EQ(weibo.edges, 369438063u);
  EXPECT_EQ(weibo.labels, 55u);
}

TEST(DatasetsTest, AllDatasetsListsSix) {
  EXPECT_EQ(AllDatasets().size(), 6u);
}

TEST(DatasetsTest, FullScaleSmallDatasets) {
  const Graph yeast = MakeDataset(Dataset::kYeast, 1.0, 42);
  EXPECT_EQ(yeast.num_nodes(), 3112u);
  EXPECT_EQ(yeast.num_edges(), 12519u);
  EXPECT_LE(yeast.num_labels(), 71u);

  const Graph cora = MakeDataset(Dataset::kCora, 1.0, 42);
  EXPECT_EQ(cora.num_nodes(), 2708u);
  EXPECT_LE(cora.num_labels(), 7u);
}

// The counts psi_generate sizes its memory guard by are the ones
// MakeDataset builds to.
TEST(DatasetsTest, ScaledSizeIsWhatMakeDatasetBuilds) {
  for (const auto& [d, scale] : {std::pair{Dataset::kYeast, 1.0},
                                 std::pair{Dataset::kYouTube, 0.002}}) {
    const DatasetSize size = ScaledDatasetSize(d, scale);
    const Graph g = MakeDataset(d, scale, 42);
    EXPECT_EQ(g.num_nodes(), size.nodes);
    EXPECT_LE(g.num_edges(), size.edges);
    EXPECT_GT(g.num_edges(), size.edges * 9 / 10);
  }
  const DatasetSize weibo = ScaledDatasetSize(Dataset::kWeibo, 1.0);
  EXPECT_EQ(weibo.nodes, 1655678u);
  EXPECT_EQ(weibo.edges, 369438063u);
}

TEST(DatasetsTest, HumanIsDenserThanYeast) {
  const Graph yeast = MakeDataset(Dataset::kYeast, 1.0, 1);
  const Graph human = MakeDataset(Dataset::kHuman, 1.0, 1);
  EXPECT_GT(human.average_degree(), 3.0 * yeast.average_degree());
}

TEST(DatasetsTest, ScalingShrinksCounts) {
  const Graph g = MakeDataset(Dataset::kYouTube, 0.002, 7);
  const DatasetSpec& spec = GetDatasetSpec(Dataset::kYouTube);
  EXPECT_NEAR(static_cast<double>(g.num_nodes()),
              0.002 * static_cast<double>(spec.nodes),
              0.002 * static_cast<double>(spec.nodes) * 0.05 + 32);
  EXPECT_GT(g.num_edges(), g.num_nodes());  // keeps density above 1
}

TEST(DatasetsTest, DeterministicInSeed) {
  const Graph a = MakeDataset(Dataset::kCora, 0.5, 99);
  const Graph b = MakeDataset(Dataset::kCora, 0.5, 99);
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (NodeId u = 0; u < a.num_nodes(); ++u) {
    ASSERT_EQ(a.label(u), b.label(u));
  }
}

TEST(DatasetsTest, DifferentSeedsDiffer) {
  const Graph a = MakeDataset(Dataset::kCora, 0.5, 1);
  const Graph b = MakeDataset(Dataset::kCora, 0.5, 2);
  bool any_diff = a.num_edges() != b.num_edges();
  for (NodeId u = 0; !any_diff && u < a.num_nodes(); ++u) {
    any_diff = a.label(u) != b.label(u);
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace psi::graph
