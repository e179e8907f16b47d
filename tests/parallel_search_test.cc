// Work-stealing parallel search (DESIGN.md §14): the stealing executor's
// exactly-once contract, and the enumerator's parallel projection against
// its own sequential ground truth.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "match/parallel_search.h"
#include "match/plan.h"
#include "match/subgraph_enumerator.h"
#include "tests/test_fixtures.h"
#include "util/thread_pool.h"

namespace psi::match {
namespace {

// --- Work-stealing executor ----------------------------------------------

TEST(WorkStealingTest, EveryItemRunsExactlyOnce) {
  for (const size_t workers : {1u, 2u, 3u, 8u, 64u}) {
    for (const size_t count : {0u, 1u, 5u, 97u}) {
      std::vector<std::atomic<int>> hits(count);
      RunWorkStealing(count, workers, nullptr, [&](size_t item, size_t) {
        hits[item].fetch_add(1, std::memory_order_relaxed);
      });
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "workers=" << workers << " i=" << i;
      }
    }
  }
}

TEST(WorkStealingTest, RunsOnAProvidedPool) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(200);
  RunWorkStealing(hits.size(), 4, &pool, [&](size_t item, size_t) {
    hits[item].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(WorkStealingTest, ImbalancedWorkProvokesSteals) {
  // One worker owns a range of slow items; the others run dry and steal.
  // Steals are schedule-dependent, so only assert the exactly-once
  // contract plus a sane return value.
  std::atomic<uint64_t> done{0};
  const uint64_t steals =
      RunWorkStealing(64, 4, nullptr, [&](size_t item, size_t) {
        if (item < 16) {
          // Busy-spin to hold the first range's owner occupied.
          for (volatile int spin = 0; spin < 50000; ++spin) {
        }
        }
        done.fetch_add(1, std::memory_order_relaxed);
      });
  EXPECT_EQ(done.load(), 64u);
  EXPECT_LT(steals, 64u);
}

// --- Enumerator: parallel projection -------------------------------------

class EnumeratorSearchCoreTest : public ::testing::Test {
 protected:
  // An extracted query is guaranteed at least one embedding (itself).
  EnumeratorSearchCoreTest()
      : g_(psi::testing::MakeRandomGraph(300, 1800, 3, 29)),
        q_(psi::testing::ExtractQuery(g_, 4, 17)) {}

  void SetUp() override {
    if (q_.num_nodes() != 4) GTEST_SKIP() << "extraction failed";
  }

  graph::Graph g_;
  graph::QueryGraph q_;
};

TEST_F(EnumeratorSearchCoreTest, ParallelProjectionBitIdenticalAcrossThreads) {
  SubgraphEnumerator enumerator(g_);
  const Plan plan = MakeHeuristicPlan(q_, g_, q_.pivot());
  SubgraphEnumerator::Options options;
  const auto sequential = enumerator.ProjectPivot(q_, plan, options);
  ASSERT_TRUE(sequential.complete);

  for (const size_t threads : {2u, 3u, 8u}) {
    SearchStats stats;
    const auto parallel = enumerator.ProjectPivotParallel(
        q_, plan, options, threads, nullptr, &stats);
    EXPECT_TRUE(parallel.complete) << threads;
    EXPECT_EQ(parallel.pivot_matches, sequential.pivot_matches) << threads;
    EXPECT_EQ(parallel.embedding_count, sequential.embedding_count)
        << threads;
  }

  util::ThreadPool pool(4);
  const auto pooled =
      enumerator.ProjectPivotParallel(q_, plan, options, 4, &pool);
  EXPECT_TRUE(pooled.complete);
  EXPECT_EQ(pooled.pivot_matches, sequential.pivot_matches);
}

TEST_F(EnumeratorSearchCoreTest, ParallelRespectsMaxEmbeddings) {
  SubgraphEnumerator enumerator(g_);
  const Plan plan = MakeHeuristicPlan(q_, g_, q_.pivot());
  SubgraphEnumerator::Options unlimited;
  const auto full = enumerator.ProjectPivot(q_, plan, unlimited);
  ASSERT_GT(full.embedding_count, 2u);

  SubgraphEnumerator::Options capped;
  capped.max_embeddings = 2;
  const auto cut = enumerator.ProjectPivotParallel(q_, plan, capped, 4);
  EXPECT_FALSE(cut.complete);
  EXPECT_GE(cut.embedding_count, capped.max_embeddings);
  // A truncated projection is a subset of the full answer.
  for (const graph::NodeId v : cut.pivot_matches) {
    EXPECT_TRUE(std::binary_search(full.pivot_matches.begin(),
                                   full.pivot_matches.end(), v));
  }
}

}  // namespace
}  // namespace psi::match
