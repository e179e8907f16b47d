// Work-stealing parallel search (DESIGN.md §14): the stealing executor's
// exactly-once contract.

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "match/parallel_search.h"
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

}  // namespace
}  // namespace psi::match
