// Targeted multi-thread stress tests for every shared-state component
// (DESIGN.md §10). The assertions are deliberately light — the point is to
// drive real concurrent interleavings through the shared paths so
// ThreadSanitizer (-fsanitize=thread) can prove them race-free; the CI TSan
// job runs this suite alongside the regular tests. Without TSan the suite
// still checks the cross-thread invariants each component promises.

#include <atomic>
#include <cstdint>
#include <future>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/prediction_cache.h"
#include "match/search_scratch.h"
#include "service/metrics.h"
#include "service/request.h"
#include "service/service.h"
#include "service/workload.h"
#include "signature/signature_matrix.h"
#include "tests/test_fixtures.h"
#include "util/random.h"
#include "util/stop_token.h"
#include "util/thread_pool.h"

namespace psi {
namespace {

/// Launches `n` threads running `body(thread_index)` and joins them all.
template <typename Body>
void RunThreads(int n, const Body& body) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(n));
  for (int t = 0; t < n; ++t) threads.emplace_back([&body, t] { body(t); });
  for (auto& thread : threads) thread.join();
}

// --- PredictionCache -------------------------------------------------------

// Concurrent get/put over a salted key space that collides across
// threads and spreads over all shards. Counter sums must remain coherent:
// every lookup is either a hit or a miss, never both, never lost.
TEST(RaceHarness, PredictionCacheGetPutStorm) {
  core::PredictionCache cache;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  constexpr uint64_t kKeySpace = 512;  // dense collisions across threads

  RunThreads(kThreads, [&](int t) {
    for (int i = 0; i < kOpsPerThread; ++i) {
      // Salt like the service does: query fingerprint XOR row hash. The
      // shard index uses the high bits, so spread the salt there too.
      const uint64_t key =
          (static_cast<uint64_t>(i) % kKeySpace) * 0x9e3779b97f4a7c15ULL;
      if (i % 3 == 0) {
        cache.Insert(key, {.valid = (t + i) % 2 == 0,
                           .plan_index = static_cast<uint16_t>(t)});
      } else {
        (void)cache.Lookup(key);
      }
      if (i % 257 == 0) (void)cache.size();
    }
  });

  const core::PredictionCache::Counters counters = cache.counters();
  // 2 of every 3 ops per thread are lookups; each must count exactly once.
  EXPECT_EQ(counters.hits + counters.misses,
            static_cast<uint64_t>(kThreads) * (kOpsPerThread -
                                               (kOpsPerThread + 2) / 3));
  // 1 of every 3 ops per thread is an insert.
  EXPECT_EQ(counters.inserts,
            static_cast<uint64_t>(kThreads) * ((kOpsPerThread + 2) / 3));
  EXPECT_LE(cache.size(), kKeySpace);
}

// Concurrent inserts of more distinct keys than the cache may hold, beside
// lookups: every shard crosses its bound and is emptied, and the entry
// count never exceeds kMaxEntries at any poll.
TEST(RaceHarness, PredictionCacheStormAcrossTheBound) {
  core::PredictionCache cache;
  constexpr int kThreads = 4;
  constexpr uint64_t kKeysPerThread =
      core::PredictionCache::kMaxEntries / kThreads + 20000;
  std::atomic<bool> within_bound{true};

  RunThreads(kThreads, [&](int t) {
    for (uint64_t i = 0; i < kKeysPerThread; ++i) {
      // The odd multiplier is a bijection, so keys are distinct across
      // threads and spread over every shard.
      const uint64_t key =
          (static_cast<uint64_t>(t) * kKeysPerThread + i) *
          0x9e3779b97f4a7c15ULL;
      cache.Insert(key, {.valid = i % 2 == 0});
      if (i % 4 == 0) (void)cache.Lookup(key);
      if (i % 1024 == 0 &&
          cache.size() > core::PredictionCache::kMaxEntries) {
        within_bound.store(false);
      }
    }
  });

  EXPECT_TRUE(within_bound.load());
  EXPECT_LE(cache.size(), core::PredictionCache::kMaxEntries);
  const core::PredictionCache::Counters counters = cache.counters();
  EXPECT_GT(counters.evictions, 0u);
  EXPECT_EQ(cache.size() + counters.evictions,
            static_cast<uint64_t>(kThreads) * kKeysPerThread);
}

// --- ThreadPool ------------------------------------------------------------

// Submit / TrySubmit / Wait / queue_depth churn from many threads at once,
// including tasks that submit follow-up tasks, then destruction with the
// queue still warm (the destructor must drain, not drop).
TEST(RaceHarness, ThreadPoolSubmitWaitChurn) {
  std::atomic<int> executed{0};
  std::atomic<int> submitted{0};
  {
    util::ThreadPool pool(4);
    RunThreads(6, [&](int t) {
      for (int i = 0; i < 200; ++i) {
        if (t % 2 == 0) {
          pool.Submit([&executed] {
            executed.fetch_add(1, std::memory_order_relaxed);
          });
          submitted.fetch_add(1, std::memory_order_relaxed);
          if (i % 16 == 0) pool.Wait();
        } else {
          const bool ok = pool.TrySubmit(
              [&executed, &pool, &submitted] {
                executed.fetch_add(1, std::memory_order_relaxed);
                // Tasks may themselves submit (the engine does this).
                if (pool.TrySubmit([&executed] {
                      executed.fetch_add(1, std::memory_order_relaxed);
                    }, /*max_queue_depth=*/64)) {
                  submitted.fetch_add(1, std::memory_order_relaxed);
                }
              },
              /*max_queue_depth=*/32);
          if (ok) submitted.fetch_add(1, std::memory_order_relaxed);
          (void)pool.queue_depth();
        }
      }
    });
    // Destructor runs here with work possibly still queued.
  }
  EXPECT_EQ(executed.load(), submitted.load());
}

// Rapid construct/drain/destroy cycles: the shutdown handshake (flag +
// notify + join) must not race the workers' queue checks.
TEST(RaceHarness, ThreadPoolConstructDestroyCycles) {
  std::atomic<int> executed{0};
  for (int round = 0; round < 40; ++round) {
    util::ThreadPool pool(3);
    for (int i = 0; i < 8; ++i) {
      pool.Submit([&executed] {
        executed.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }
  EXPECT_EQ(executed.load(), 40 * 8);
}

// --- SearchScratchPool -----------------------------------------------------

// Lease churn: many threads checking scratch arenas in and out while
// mutating the leased buffers. Each lease must be exclusive — concurrent
// writes to the same scratch would be a TSan-visible race.
TEST(RaceHarness, ScratchPoolLeaseChurn) {
  match::SearchScratchPool pool;
  RunThreads(8, [&](int t) {
    for (int i = 0; i < 500; ++i) {
      match::SearchScratchPool::Lease lease(&pool);
      match::SearchScratch* scratch = lease.get();
      // Mutate through the lease; exclusivity makes this race-free.
      scratch->mapping.assign(16, static_cast<graph::NodeId>(t));
      scratch->mapped_stack.push_back(static_cast<graph::NodeId>(i));
      for (const graph::NodeId id : scratch->mapping) {
        ASSERT_EQ(id, static_cast<graph::NodeId>(t));
      }
    }
  });
}

// --- SignatureMatrix::RowHash ---------------------------------------------

// First-touch races on the memoized row hashes: every thread hammers the
// same fresh rows, so several threads compute the same hash concurrently
// and the winning store must be benign (all observers agree, forever).
TEST(RaceHarness, RowHashFirstTouchAgreement) {
  constexpr size_t kRows = 64;
  constexpr size_t kLabels = 8;
  signature::SignatureMatrix sigs(kRows, kLabels,
                                  signature::Method::kExploration,
                                  /*depth=*/2);
  for (size_t i = 0; i < kRows; ++i) {
    for (size_t l = 0; l < kLabels; ++l) {
      sigs.at(i, l) = static_cast<float>((i * 31 + l * 7) % 13) * 0.25f;
    }
  }

  constexpr int kThreads = 8;
  std::vector<std::vector<uint64_t>> seen(
      kThreads, std::vector<uint64_t>(kRows, 0));
  RunThreads(kThreads, [&](int t) {
    for (int round = 0; round < 3; ++round) {
      for (size_t i = 0; i < kRows; ++i) {
        const uint64_t h = sigs.RowHash(i);
        ASSERT_NE(h, 0u);
        if (round == 0) {
          seen[static_cast<size_t>(t)][i] = h;
        } else {
          // Memoization must be stable within a thread too.
          ASSERT_EQ(h, seen[static_cast<size_t>(t)][i]);
        }
      }
    }
  });
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<size_t>(t)], seen[0]);
  }
}

// --- MetricsRegistry / LatencyReservoir ------------------------------------

// Writers hammer the full outcome path while readers snapshot. Every
// snapshot must satisfy the registry's ordering contract:
//   latency.count <= Settled() <= admitted.
TEST(RaceHarness, MetricsSnapshotInvariantsUnderWriters) {
  service::MetricsRegistry metrics;
  std::atomic<bool> done{false};

  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const service::MetricsSnapshot s = metrics.Snapshot();
      ASSERT_LE(s.latency.count, s.Settled());
      ASSERT_LE(s.Settled(), s.admitted);
    }
  });

  RunThreads(6, [&](int t) {
    for (int i = 0; i < 5000; ++i) {
      metrics.RecordAdmitted();
      service::QueryResponse response;
      response.status = (t + i) % 7 == 0 ? service::RequestStatus::kTimeout
                                         : service::RequestStatus::kOk;
      response.latency_seconds = 1e-6 * static_cast<double>(i);
      response.cache_hits = static_cast<uint64_t>(i % 3);
      metrics.RecordOutcome(response, /*method_recoveries=*/i % 2,
                            /*plan_fallbacks=*/i % 5 == 0);
    }
  });
  done.store(true, std::memory_order_release);
  reader.join();

  const service::MetricsSnapshot s = metrics.Snapshot();
  EXPECT_EQ(s.admitted, 6u * 5000u);
  EXPECT_EQ(s.Settled(), 6u * 5000u);
  EXPECT_EQ(s.latency.count, 6u * 5000u);
}

// The reservoir alone: concurrent Record with concurrent Summarize.
TEST(RaceHarness, LatencyReservoirHammer) {
  service::LatencyReservoir reservoir(/*capacity=*/256);
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const auto summary = reservoir.Summarize();
      ASSERT_GE(summary.max, 0.0);
      ASSERT_GE(summary.mean, 0.0);
    }
  });
  RunThreads(6, [&](int t) {
    for (int i = 0; i < 20000; ++i) {
      reservoir.Record(1e-6 * static_cast<double>(t * 7 + i % 100));
    }
  });
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(reservoir.Summarize().count, 6u * 20000u);
}

// --- StopToken -------------------------------------------------------------

// The release/acquire contract of stop_token.h: data written before
// RequestStop() must be visible after StopRequested() observes the stop.
TEST(RaceHarness, StopTokenPublishesPriorWrites) {
  for (int round = 0; round < 200; ++round) {
    util::StopSource source;
    int payload = 0;  // deliberately non-atomic: ordered by the flag
    std::thread initiator([&] {
      payload = 42;
      source.RequestStop();
    });
    std::thread worker([&] {
      util::StopToken token(&source);
      while (!token.StopRequested()) std::this_thread::yield();
      ASSERT_EQ(payload, 42);
    });
    initiator.join();
    worker.join();
  }
}

// --- PsiService ------------------------------------------------------------

service::ServiceOptions StormOptions(size_t workers) {
  service::ServiceOptions options;
  options.num_workers = workers;
  options.max_queue_depth = 8;  // small bound: force shedding under load
  options.engine.signature_depth = 1;
  return options;
}

// Submit storm with a deadline mix (including sub-microsecond deadlines
// that expire in flight) plus a Stats() poller, then a shutdown racing the
// last submissions. Exercises admission, engine checkout, the shared
// cache, deadline timeout and cancellation all at once.
TEST(RaceHarness, ServiceSubmitDeadlineShutdownStorm) {
  const graph::Graph g = testing::MakeFigure1Graph();
  service::PsiService service(g, StormOptions(3));
  const graph::QueryGraph query = testing::MakeFigure1Query();

  std::atomic<bool> done{false};
  std::thread poller([&] {
    while (!done.load(std::memory_order_acquire)) {
      const service::ServiceStats stats = service.Stats();
      ASSERT_LE(stats.metrics.latency.count, stats.metrics.Settled());
      ASSERT_LE(stats.metrics.Settled(), stats.metrics.admitted);
    }
  });

  std::atomic<uint64_t> settled_ok{0}, settled_other{0}, shed{0};
  RunThreads(6, [&](int t) {
    std::vector<std::future<service::QueryResponse>> futures;
    for (int i = 0; i < 120; ++i) {
      service::QueryRequest request;
      request.query = query;
      // Deadline mix: none / generous / already-hopeless.
      if (i % 3 == 1) request.deadline_seconds = 1.0;
      if (i % 3 == 2) request.deadline_seconds = 1e-7;
      if (t == 5 && i == 60) service.Shutdown();  // storm the shutdown path
      auto future = service.Submit(std::move(request));
      if (!future.has_value()) {
        shed.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      futures.push_back(std::move(*future));
    }
    for (auto& future : futures) {
      const service::QueryResponse response = future.get();
      if (response.status == service::RequestStatus::kOk) {
        // Cancellation never corrupts answers: complete results are exact.
        ASSERT_EQ(response.valid_nodes, (std::vector<graph::NodeId>{0, 5}));
        settled_ok.fetch_add(1, std::memory_order_relaxed);
      } else {
        ASSERT_TRUE(response.status == service::RequestStatus::kTimeout ||
                    response.status == service::RequestStatus::kCancelled ||
                    response.status == service::RequestStatus::kRejected);
        settled_other.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  done.store(true, std::memory_order_release);
  poller.join();

  const service::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.metrics.Settled(), settled_ok.load() + settled_other.load());
  EXPECT_EQ(stats.metrics.admitted, stats.metrics.Settled());
  EXPECT_EQ(stats.metrics.rejected, shed.load());
}

// Engine checkout/return under maximum contention: more client threads
// than workers, all answers must still be exact (shared cache + per-worker
// engines stay coherent).
TEST(RaceHarness, ServiceExactnessUnderContention) {
  const graph::Graph g = testing::MakeRandomGraph(200, 600, 4, /*seed=*/7);
  util::Rng rng(3);
  service::WorkloadSpec spec;
  spec.count = 6;
  spec.query_size = 4;
  const std::vector<service::QueryRequest> workload =
      service::ExtractWorkload(g, spec, rng);
  ASSERT_FALSE(workload.empty());

  service::ServiceOptions options;
  options.num_workers = 4;
  options.engine.signature_depth = 1;
  service::PsiService service(g, options);

  // Serial ground truth through the same service, before the storm.
  std::vector<std::vector<graph::NodeId>> expected;
  for (const service::QueryRequest& request : workload) {
    expected.push_back(service.Execute(request).valid_nodes);
  }

  RunThreads(8, [&](int t) {
    for (int round = 0; round < 4; ++round) {
      const size_t pick =
          (static_cast<size_t>(t) + static_cast<size_t>(round)) %
          workload.size();
      const service::QueryResponse response =
          service.Execute(workload[pick]);
      ASSERT_EQ(response.status, service::RequestStatus::kOk);
      ASSERT_EQ(response.valid_nodes, expected[pick]);
    }
  });
}

}  // namespace
}  // namespace psi
