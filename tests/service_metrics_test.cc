#include "service/metrics.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "tests/test_fixtures.h"

namespace psi::service {
namespace {

QueryResponse MakeResponse(RequestStatus status, double latency_seconds) {
  QueryResponse response;
  response.status = status;
  response.latency_seconds = latency_seconds;
  return response;
}

TEST(LatencyReservoirTest, EmptySummaryIsZero) {
  LatencyReservoir reservoir;
  const auto s = reservoir.Summarize();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.max, 0.0);
}

TEST(LatencyReservoirTest, QuantilesOnKnownSamples) {
  LatencyReservoir reservoir(128);
  // 1..100 ms: p50 ~ 50.5ms, p95 ~ 95ms, max = 100ms.
  for (int i = 1; i <= 100; ++i) reservoir.Record(i * 1e-3);
  const auto s = reservoir.Summarize();
  EXPECT_EQ(s.count, 100u);
  EXPECT_NEAR(s.mean, 50.5e-3, 1e-9);
  EXPECT_NEAR(s.p50, 50.5e-3, 1e-3);
  EXPECT_NEAR(s.p95, 95e-3, 2e-3);
  EXPECT_NEAR(s.p99, 99e-3, 2e-3);
  EXPECT_DOUBLE_EQ(s.max, 100e-3);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, s.max);
}

TEST(LatencyReservoirTest, WindowSlidesPastCapacity) {
  LatencyReservoir reservoir(4);
  for (int i = 0; i < 100; ++i) reservoir.Record(1.0);
  reservoir.Record(5.0);
  const auto s = reservoir.Summarize();
  EXPECT_EQ(s.count, 101u);  // total observations, not window size
  EXPECT_DOUBLE_EQ(s.max, 5.0);
}

TEST(LatencyReservoirTest, ConcurrentRecordsAllCounted) {
  LatencyReservoir reservoir(1024);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&reservoir] {
      for (int i = 0; i < 1000; ++i) reservoir.Record(1e-3);
    });
  }
  for (auto& thread : threads) thread.join();
  const auto s = reservoir.Summarize();
  EXPECT_EQ(s.count, 4000u);
  EXPECT_DOUBLE_EQ(s.p50, 1e-3);
}

TEST(MetricsRegistryTest, OutcomesRouteToStatusBuckets) {
  MetricsRegistry metrics;
  for (int i = 0; i < 3; ++i) metrics.RecordAdmitted();
  metrics.RecordOutcome(MakeResponse(RequestStatus::kOk, 1e-3));
  metrics.RecordOutcome(MakeResponse(RequestStatus::kTimeout, 2e-3));
  metrics.RecordOutcome(MakeResponse(RequestStatus::kInvalid, 1e-6));
  const MetricsSnapshot s = metrics.Snapshot();
  EXPECT_EQ(s.admitted, 3u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.timed_out, 1u);
  EXPECT_EQ(s.invalid, 1u);
  EXPECT_EQ(s.Settled(), s.admitted);
  EXPECT_EQ(s.latency.count, 3u);
}

TEST(MetricsRegistryTest, RejectedRecordsNoLatencyOrEngineWork) {
  MetricsRegistry metrics;
  QueryResponse shed = MakeResponse(RequestStatus::kRejected, 9.0);
  shed.cache_hits = 7;
  shed.num_candidates = 11;
  metrics.RecordOutcome(shed, /*method_recoveries=*/2, /*plan_fallbacks=*/3);
  const MetricsSnapshot s = metrics.Snapshot();
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.Settled(), 0u);
  EXPECT_EQ(s.latency.count, 0u);
  EXPECT_EQ(s.cache_hits, 0u);
  EXPECT_EQ(s.method_recoveries, 0u);
  EXPECT_EQ(s.plan_fallbacks, 0u);
  EXPECT_EQ(s.candidates_evaluated, 0u);
}

// Realist training counters sum over the responses the Realist evaluated
// only: a pure-method response's execution time is not Realist work.
TEST(MetricsRegistryTest, TrainingShareCountsRealistResponsesOnly) {
  MetricsRegistry metrics;
  QueryResponse smart = MakeResponse(RequestStatus::kOk, 5e-3);
  smart.exec_seconds = 4e-3;
  smart.train_seconds = 1e-3;
  smart.num_training_nodes = 6;
  QueryResponse pure = MakeResponse(RequestStatus::kOk, 9e-3);
  pure.exec_seconds = 8e-3;
  metrics.RecordOutcome(smart, 0, 0, /*smart_evaluated=*/true);
  metrics.RecordOutcome(smart, 0, 0, /*smart_evaluated=*/true);
  metrics.RecordOutcome(pure);
  const MetricsSnapshot s = metrics.Snapshot();
  EXPECT_EQ(s.training_nodes, 12u);
  EXPECT_EQ(s.train_micros, 2000u);
  EXPECT_EQ(s.smart_exec_micros, 8000u);
  EXPECT_DOUBLE_EQ(s.TrainShare(), 0.25);
  EXPECT_EQ(MetricsSnapshot().TrainShare(), 0.0);
}

TEST(MetricsRegistryTest, EngineCountersAggregateAcrossOutcomes) {
  MetricsRegistry metrics;
  QueryResponse a = MakeResponse(RequestStatus::kOk, 1e-3);
  a.cache_hits = 5;
  a.num_candidates = 10;
  QueryResponse b = MakeResponse(RequestStatus::kTimeout, 2e-3);
  b.cache_hits = 2;
  b.num_candidates = 4;
  metrics.RecordOutcome(a, 1, 0);
  metrics.RecordOutcome(b, 0, 2);
  const MetricsSnapshot s = metrics.Snapshot();
  EXPECT_EQ(s.cache_hits, 7u);
  EXPECT_EQ(s.candidates_evaluated, 14u);
  EXPECT_EQ(s.method_recoveries, 1u);
  EXPECT_EQ(s.plan_fallbacks, 2u);
}

// Regression for the admission/settling ordering bug: PsiService used to
// count an admission only after the task was enqueued, so a fast worker
// could settle the request first and a concurrent Snapshot() observed
// Settled() > admitted. The fix counts admission up front and revokes it
// with UndoAdmitted() when the enqueue is shed.
TEST(MetricsRegistryTest, UndoAdmittedRevokesProvisionalAdmission) {
  MetricsRegistry metrics;
  metrics.RecordAdmitted();  // provisional, enqueue will "fail"
  metrics.UndoAdmitted();
  metrics.RecordRejected();
  metrics.RecordAdmitted();  // a real admission afterwards
  metrics.RecordOutcome(MakeResponse(RequestStatus::kOk, 1e-3));
  const MetricsSnapshot s = metrics.Snapshot();
  EXPECT_EQ(s.admitted, 1u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.Settled(), 1u);
}

// Snapshot consistency contract under concurrent writers (see the class
// comment in service/metrics.h): every snapshot, taken at any instant,
// satisfies latency.count <= Settled() <= admitted. The heavier TSan-aimed
// variant lives in race_harness_test.cc; this one runs everywhere.
TEST(MetricsRegistryTest, SnapshotInvariantsHoldUnderConcurrentWriters) {
  MetricsRegistry metrics;
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 3000;

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&metrics, t] {
      for (int i = 0; i < kPerWriter; ++i) {
        metrics.RecordAdmitted();
        const RequestStatus status = (t + i) % 5 == 0
                                         ? RequestStatus::kCancelled
                                         : RequestStatus::kOk;
        metrics.RecordOutcome(MakeResponse(status, 1e-6));
      }
    });
  }
  // Snapshot continuously while the writers run.
  for (int round = 0; round < 2000; ++round) {
    const MetricsSnapshot s = metrics.Snapshot();
    ASSERT_LE(s.latency.count, s.Settled());
    ASSERT_LE(s.Settled(), s.admitted);
  }
  for (auto& writer : writers) writer.join();

  const MetricsSnapshot s = metrics.Snapshot();
  EXPECT_EQ(s.admitted, static_cast<uint64_t>(kWriters) * kPerWriter);
  EXPECT_EQ(s.Settled(), s.admitted);
  EXPECT_EQ(s.latency.count, s.admitted);
}

TEST(MetricsSnapshotTest, ToStringMentionsEverySection) {
  MetricsRegistry metrics;
  metrics.RecordAdmitted();
  metrics.RecordOutcome(MakeResponse(RequestStatus::kOk, 1e-3));
  const std::string text = metrics.Snapshot().ToString();
  EXPECT_NE(text.find("admitted=1"), std::string::npos);
  EXPECT_NE(text.find("completed=1"), std::string::npos);
  EXPECT_NE(text.find("search: work_steals="), std::string::npos);
  EXPECT_NE(text.find("p99="), std::string::npos);
}

// Every counter in MetricsSnapshot must be printed by ToString with a
// distinguishable value — a counter that exists but never surfaces in the
// dump is dead instrumentation (psi_check's metrics-pair rule enforces the
// pairing statically; this test pins the printed labels).
TEST(MetricsSnapshotTest, ToStringEmitsEveryCounter) {
  MetricsSnapshot s;
  s.admitted = 1;
  s.rejected = 2;
  s.completed = 3;
  s.timed_out = 4;
  s.cancelled = 5;
  s.invalid = 6;
  s.not_found = 7;
  s.cache_hits = 8;
  s.method_recoveries = 9;
  s.plan_fallbacks = 10;
  s.candidates_evaluated = 11;
  s.cache_mismatches = 12;
  s.work_steals = 13;
  s.snapshot_publishes = 14;
  s.snapshot_swaps = 15;
  s.snapshot_retires = 16;
  s.snapshot_publish_failures = 17;
  s.batch_submitted = 18;
  s.batch_rejected = 19;
  s.batch_queries = 20;
  s.batch_context_hits = 21;
  s.cache_entries = 23;
  s.cache_evictions = 24;
  s.training_nodes = 25;
  s.train_micros = 26;
  s.smart_exec_micros = 52;

  const std::string text = s.ToString();
  const std::vector<std::string> expected = {
      "admitted=1", "rejected=2",
      "completed=3", "timed_out=4",
      "cancelled=5", "invalid=6",
      "not_found=7", "cache_hits=8",
      "method_recoveries=9", "plan_fallbacks=10",
      "candidates=11", "cache_mismatches=12",
      "work_steals=13", "publishes=14",
      "swaps=15", "retires=16",
      "publish_failures=17", "batch_submitted=18",
      "batch_rejected=19", "batch_queries=20",
      "batch_context_hits=21", "cache_entries=23",
      "cache_evictions=24",
      "training_nodes=25", "train_micros=26",
      "smart_exec_micros=52", "train_share=0.5",
  };
  for (const std::string& label : expected) {
    EXPECT_NE(text.find(label), std::string::npos)
        << "missing \"" << label << "\" in:\n" << text;
  }
}

// Batch-path recorders (DESIGN.md §17): one increment per batch unit, and
// per settled batch its member queries, with context hits a subset of
// batch_queries.
TEST(MetricsRegistryTest, BatchRecordersAccumulate) {
  MetricsRegistry metrics;
  metrics.RecordBatchSubmitted();
  metrics.RecordBatchRejected();
  metrics.RecordBatchQueries(/*queries=*/3, /*context_hits=*/1);
  const MetricsSnapshot s = metrics.Snapshot();
  EXPECT_EQ(s.batch_submitted, 1u);
  EXPECT_EQ(s.batch_rejected, 1u);
  EXPECT_EQ(s.batch_queries, 3u);
  EXPECT_EQ(s.batch_context_hits, 1u);
  EXPECT_LE(s.batch_context_hits, s.batch_queries);
}

TEST(MetricsSnapshotTest, SearchCoreCountersAggregate) {
  MetricsRegistry metrics;
  QueryResponse response = MakeResponse(RequestStatus::kOk, 1e-3);
  response.work_steals = 11;
  metrics.RecordAdmitted();
  metrics.RecordOutcome(response);
  metrics.RecordAdmitted();
  metrics.RecordOutcome(response);
  const MetricsSnapshot s = metrics.Snapshot();
  EXPECT_EQ(s.work_steals, 22u);
}

}  // namespace
}  // namespace psi::service
