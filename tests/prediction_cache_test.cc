#include "core/prediction_cache.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace psi::core {
namespace {

TEST(PredictionCacheTest, MissThenHit) {
  PredictionCache cache;
  EXPECT_FALSE(cache.Lookup(42).has_value());
  cache.Insert(42, {true, 3});
  const auto entry = cache.Lookup(42);
  ASSERT_TRUE(entry.has_value());
  EXPECT_TRUE(entry->valid);
  EXPECT_EQ(entry->plan_index, 3u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PredictionCacheTest, LastWriterWins) {
  PredictionCache cache;
  cache.Insert(7, {true, 0});
  cache.Insert(7, {false, 2});
  const auto entry = cache.Lookup(7);
  ASSERT_TRUE(entry.has_value());
  EXPECT_FALSE(entry->valid);
  EXPECT_EQ(entry->plan_index, 2u);
  EXPECT_EQ(cache.size(), 1u);
}

// The cross-snapshot tripwire: an entry stamped for one epoch is a miss,
// counted in epoch_drops, under any other; under its own it round-trips.
TEST(PredictionCacheTest, OtherEpochIsDroppedAndCounted) {
  PredictionCache cache;
  cache.Insert(7, {.valid = true, .plan_index = 2, .steps = 99, .epoch = 5});
  EXPECT_FALSE(cache.Lookup(7, 6).has_value());
  EXPECT_FALSE(cache.Lookup(7).has_value());
  EXPECT_EQ(cache.counters().epoch_drops, 2u);
  const auto entry = cache.Lookup(7, 5);
  ASSERT_TRUE(entry.has_value());
  EXPECT_TRUE(entry->valid);
  EXPECT_EQ(entry->plan_index, 2u);
  EXPECT_EQ(entry->steps, 99u);
  EXPECT_EQ(entry->epoch, 5u);
  EXPECT_EQ(cache.counters().epoch_drops, 2u);
}

TEST(PredictionCacheTest, SizeCountsDistinctKeys) {
  PredictionCache cache;
  cache.Insert(1, {true, 0});
  cache.Insert(2, {false, 1});
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PredictionCacheTest, ConcurrentInsertLookup) {
  PredictionCache cache;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      for (uint64_t i = 0; i < 500; ++i) {
        cache.Insert(t * 1000 + i, {i % 2 == 0, static_cast<uint16_t>(i % 4)});
        cache.Lookup(i);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(cache.size(), 2000u);
}

TEST(PredictionCacheTest, CountersTrackHitsMissesInserts) {
  PredictionCache cache;
  cache.Lookup(1);               // miss
  cache.Insert(1, {true, 0});    // insert
  cache.Lookup(1);               // hit
  cache.Lookup(2);               // miss
  const auto counters = cache.counters();
  EXPECT_EQ(counters.hits, 1u);
  EXPECT_EQ(counters.misses, 2u);
  EXPECT_EQ(counters.inserts, 1u);
  EXPECT_NEAR(counters.HitRate(), 1.0 / 3.0, 1e-12);
}

TEST(PredictionCacheTest, HitRateOfIdleCacheIsZero) {
  PredictionCache cache;
  EXPECT_EQ(cache.counters().HitRate(), 0.0);
}

TEST(PredictionCacheTest, CountersDescribeTrafficNotContents) {
  PredictionCache cache;
  cache.Insert(1, {true, 0});
  cache.Lookup(1);
  cache.Insert(1, {false, 2});  // an overwrite adds traffic, not an entry
  const auto counters = cache.counters();
  EXPECT_EQ(counters.hits, 1u);
  EXPECT_EQ(counters.inserts, 2u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PredictionCacheTest, CountersConsistentUnderConcurrency) {
  PredictionCache cache;
  constexpr int kThreads = 4;
  constexpr uint64_t kOps = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (uint64_t i = 0; i < kOps; ++i) {
        const uint64_t key = t * 10000 + i;
        cache.Lookup(key);            // always a miss (distinct keys)
        cache.Insert(key, {true, 0});
        cache.Lookup(key);            // always a hit
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto counters = cache.counters();
  EXPECT_EQ(counters.hits, kThreads * kOps);
  EXPECT_EQ(counters.misses, kThreads * kOps);
  EXPECT_EQ(counters.inserts, kThreads * kOps);
}

// Keys below 2^60 all land in shard 0 (the shard index is the top 4 bits),
// so consecutive small keys fill one shard.
constexpr size_t kShardBound =
    PredictionCache::kMaxEntries / PredictionCache::kShards;

TEST(PredictionCacheTest, FullShardStaysWithinItsBound) {
  PredictionCache cache;
  constexpr uint64_t kInserts = 3 * kShardBound;
  for (uint64_t key = 0; key < kInserts; ++key) {
    cache.Insert(key, {.valid = key % 2 == 0});
    ASSERT_LE(cache.size(), kShardBound) << key;
  }
  const auto counters = cache.counters();
  EXPECT_GT(counters.evictions, 0u);
  // Every key was distinct, so each insert is either held or evicted.
  EXPECT_EQ(cache.size() + counters.evictions, kInserts);
  EXPECT_LE(cache.size(), PredictionCache::kMaxEntries);
}

TEST(PredictionCacheTest, FullShardStartsOverAndKeepsServing) {
  PredictionCache cache;
  for (uint64_t key = 0; key < kShardBound; ++key) {
    cache.Insert(key, {.valid = true});
  }
  ASSERT_EQ(cache.size(), kShardBound);
  ASSERT_EQ(cache.counters().evictions, 0u);
  // One more key finds the shard full at its cap: it is emptied first.
  cache.Insert(kShardBound, {.valid = false, .plan_index = 3, .steps = 1234});
  EXPECT_EQ(cache.counters().evictions, kShardBound);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.Lookup(0).has_value());
  const auto entry = cache.Lookup(kShardBound);
  ASSERT_TRUE(entry.has_value());
  EXPECT_FALSE(entry->valid);
  EXPECT_EQ(entry->plan_index, 3u);
  EXPECT_EQ(entry->steps, 1234u);
}

TEST(PredictionCacheTest, GrowthKeepsEveryEntry) {
  PredictionCache cache;
  for (uint64_t key = 0; key < 5000; ++key) cache.Insert(key, {.valid = true});
  ASSERT_EQ(cache.size(), 5000u);
  EXPECT_EQ(cache.counters().evictions, 0u);
  cache.Insert(42, {.valid = false, .plan_index = 1});
  const auto entry = cache.Lookup(42);
  ASSERT_TRUE(entry.has_value());
  EXPECT_FALSE(entry->valid);
  EXPECT_EQ(entry->plan_index, 1u);
  EXPECT_EQ(cache.size(), 5000u);
}

}  // namespace
}  // namespace psi::core
