// Tests for the versioned graph-snapshot catalog (DESIGN.md §12): publish,
// hot swap, retire, pin-gauge accounting, memory release after the last
// pin drops, the catalog.publish fault site, and snapshot cache salting.

#include "service/catalog.h"

#include <future>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tests/test_fixtures.h"
#include "util/fault_injection.h"

namespace psi::service {
namespace {

SnapshotBuildOptions FastBuild() {
  SnapshotBuildOptions options;
  options.signature_depth = 1;
  return options;
}

class GraphCatalogTest : public ::testing::Test {
 protected:
  void SetUp() override { util::FaultInjector::Global().DisarmAll(); }
  void TearDown() override { util::FaultInjector::Global().DisarmAll(); }
};

TEST_F(GraphCatalogTest, PublishThenResolve) {
  GraphCatalog catalog;
  const auto published = catalog.BuildAndPublish(
      "fig1", testing::MakeFigure1Graph(), FastBuild());
  ASSERT_TRUE(published.ok()) << published.status().ToString();
  EXPECT_EQ(published.value()->name(), "fig1");
  EXPECT_EQ(published.value()->version(), 1u);
  EXPECT_EQ(published.value()->graph().num_nodes(), 6u);
  EXPECT_EQ(published.value()->signatures().num_rows(), 6u);
  EXPECT_GE(published.value()->timings().signature_build_seconds, 0.0);

  EXPECT_EQ(catalog.Resolve("fig1"), published.value());
  EXPECT_EQ(catalog.Resolve("other"), nullptr);
  EXPECT_EQ(catalog.size(), 1u);
  EXPECT_EQ(catalog.counters().published, 1u);
  EXPECT_EQ(catalog.counters().swaps, 0u);
}

TEST_F(GraphCatalogTest, PublishedRowHashesAreHashSignature) {
  // The publish-time prewarm fills every RowHash memo slot in one pass; a
  // slot must hold what RowHash would memoize itself: HashSignature of the
  // row, with 0 replaced by RowHash's fixed substitute.
  util::ThreadPool pool(3);
  for (util::ThreadPool* build_pool : {static_cast<util::ThreadPool*>(nullptr),
                                       &pool}) {
    SnapshotBuildOptions options;
    options.pool = build_pool;
    GraphCatalog catalog;
    const auto published = catalog.BuildAndPublish(
        "g", testing::MakeRandomGraph(3000, 9000, 7, 5), options);
    ASSERT_TRUE(published.ok()) << published.status().ToString();
    const signature::SignatureMatrix& sigs = published.value()->signatures();
    for (size_t i = 0; i < sigs.num_rows(); ++i) {
      const uint64_t direct = signature::HashSignature(sigs.row(i));
      ASSERT_EQ(sigs.RowHash(i), direct == 0 ? 0x9e3779b97f4a7c15ULL : direct)
          << "row " << i << (build_pool != nullptr ? " (pool)" : " (serial)");
    }
  }
}

TEST_F(GraphCatalogTest, EmptyNameIsRejected) {
  GraphCatalog catalog;
  const auto published =
      catalog.BuildAndPublish("", testing::MakeFigure1Graph(), FastBuild());
  EXPECT_FALSE(published.ok());
  EXPECT_EQ(catalog.size(), 0u);
}

TEST_F(GraphCatalogTest, VersionsAreCatalogGlobalAndMonotonic) {
  GraphCatalog catalog;
  const auto a = catalog.BuildAndPublish("a", testing::MakeFigure1Graph(),
                                         FastBuild());
  const auto b = catalog.BuildAndPublish("b", testing::MakeFigure1Graph(),
                                         FastBuild());
  const auto a2 = catalog.BuildAndPublish("a", testing::MakeFigure1Graph(),
                                          FastBuild());
  ASSERT_TRUE(a.ok() && b.ok() && a2.ok());
  EXPECT_EQ(a.value()->version(), 1u);
  EXPECT_EQ(b.value()->version(), 2u);
  EXPECT_EQ(a2.value()->version(), 3u);
  // Republish under an existing name is a swap, and the cache salts of the
  // two generations must differ (the cross-snapshot isolation mechanism).
  EXPECT_EQ(catalog.counters().published, 3u);
  EXPECT_EQ(catalog.counters().swaps, 1u);
  EXPECT_NE(a.value()->cache_salt(), a2.value()->cache_salt());
  EXPECT_EQ(catalog.Resolve("a"), a2.value());
}

TEST_F(GraphCatalogTest, SwapKeepsOldGenerationAliveWhilePinned) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog
                  .BuildAndPublish("g", testing::MakeFigure1Graph(),
                                   FastBuild())
                  .ok());
  std::weak_ptr<const GraphSnapshot> old_generation;
  {
    SnapshotPin pin = catalog.Pin("g");
    ASSERT_TRUE(static_cast<bool>(pin));
    old_generation = catalog.Resolve("g");
    EXPECT_EQ(pin->pins(), 1u);

    // Hot swap while the pin is held: the old generation must survive…
    ASSERT_TRUE(catalog
                    .BuildAndPublish("g", testing::MakeFigure1Graph(),
                                     FastBuild())
                    .ok());
    EXPECT_FALSE(old_generation.expired());
    EXPECT_EQ(pin->version(), 1u);
    // …while new resolutions already see the replacement.
    EXPECT_EQ(catalog.Resolve("g")->version(), 2u);
  }
  // …and be released the moment the last pin drops.
  EXPECT_TRUE(old_generation.expired());
  EXPECT_EQ(catalog.Resolve("g")->pins(), 0u);
}

TEST_F(GraphCatalogTest, RetireReleasesWhenUnpinned) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog
                  .BuildAndPublish("g", testing::MakeFigure1Graph(),
                                   FastBuild())
                  .ok());
  std::weak_ptr<const GraphSnapshot> snapshot = catalog.Resolve("g");
  EXPECT_TRUE(catalog.Retire("g"));
  EXPECT_EQ(catalog.Resolve("g"), nullptr);
  EXPECT_FALSE(static_cast<bool>(catalog.Pin("g")));
  EXPECT_TRUE(snapshot.expired());
  EXPECT_EQ(catalog.counters().retired, 1u);
  EXPECT_FALSE(catalog.Retire("g")) << "retire of an unknown name";
}

TEST_F(GraphCatalogTest, MovedPinTransfersTheGaugeExactlyOnce) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog
                  .BuildAndPublish("g", testing::MakeFigure1Graph(),
                                   FastBuild())
                  .ok());
  const auto snapshot = catalog.Resolve("g");
  {
    SnapshotPin a = catalog.Pin("g");
    EXPECT_EQ(snapshot->pins(), 1u);
    SnapshotPin b = std::move(a);
    EXPECT_EQ(snapshot->pins(), 1u) << "move must not double-count";
    SnapshotPin c;
    c = std::move(b);
    EXPECT_EQ(snapshot->pins(), 1u);
  }
  EXPECT_EQ(snapshot->pins(), 0u);
}

TEST_F(GraphCatalogTest, ListShowsCurrentAndStillPinnedRetired) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog
                  .BuildAndPublish("a", testing::MakeFigure1Graph(),
                                   FastBuild())
                  .ok());
  auto old_generation = catalog.Resolve("a");  // keeps v1 alive post-swap
  ASSERT_TRUE(catalog
                  .BuildAndPublish("a", testing::MakeFigure1Graph(),
                                   FastBuild())
                  .ok());
  ASSERT_TRUE(catalog
                  .BuildAndPublish("b", testing::MakeFigure1Graph(),
                                   FastBuild())
                  .ok());

  std::vector<CatalogEntry> entries = catalog.List();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].name, "a");
  EXPECT_EQ(entries[0].version, 1u);
  EXPECT_FALSE(entries[0].current);
  EXPECT_EQ(entries[1].name, "a");
  EXPECT_EQ(entries[1].version, 2u);
  EXPECT_TRUE(entries[1].current);
  EXPECT_EQ(entries[2].name, "b");
  EXPECT_TRUE(entries[2].current);
  EXPECT_EQ(entries[0].num_nodes, 6u);

  // Once the last reference to the old generation drops, List prunes it.
  old_generation.reset();
  entries = catalog.List();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_TRUE(entries[0].current && entries[1].current);
}

TEST_F(GraphCatalogTest, AsyncBuildPublishesWithoutBlockingTheCaller) {
  GraphCatalog catalog;
  auto future = catalog.BuildAndPublishAsync(
      "g", testing::MakeRandomGraph(200, 600, 4, /*seed=*/7), FastBuild());
  const auto published = future.get();
  ASSERT_TRUE(published.ok()) << published.status().ToString();
  EXPECT_EQ(catalog.Resolve("g"), published.value());
}

#if PSI_FAULT_INJECTION_ENABLED
TEST_F(GraphCatalogTest, InjectedPublishFailureLeavesOldSnapshotServing) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog
                  .BuildAndPublish("g", testing::MakeFigure1Graph(),
                                   FastBuild())
                  .ok());
  const auto before = catalog.Resolve("g");
  {
    util::ScopedFaultSpec chaos("catalog.publish=always");
    const auto failed = catalog.BuildAndPublish(
        "g", testing::MakeFigure1Graph(), FastBuild());
    EXPECT_FALSE(failed.ok());
  }
  // The failed publish must not have touched the published state, burned a
  // version, or removed the serving snapshot.
  EXPECT_EQ(catalog.Resolve("g"), before);
  EXPECT_EQ(catalog.counters().publish_failures, 1u);
  EXPECT_EQ(catalog.counters().published, 1u);
  const auto after = catalog.BuildAndPublish(
      "g", testing::MakeFigure1Graph(), FastBuild());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value()->version(), 2u) << "failed publish burned a version";
}
#endif  // PSI_FAULT_INJECTION_ENABLED

}  // namespace
}  // namespace psi::service
