// Tests for the deterministic fault injector (DESIGN.md §11): schedule
// semantics, the spec grammar, the compiled-in hooks, and what they may
// and may not change in the service (counters and latency, never answers).
//
// The FaultInjector class compiles in every configuration, so the schedule
// and grammar tests below run under -DPSI_ENABLE_FAULT_INJECTION=OFF too;
// only the sections that need a hook to actually fire inside the stack are
// gated on PSI_FAULT_INJECTION_ENABLED.

#include "util/fault_injection.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/prediction_cache.h"
#include "core/smart_psi.h"
#include "match/engine.h"
#include "service/request.h"
#include "service/service.h"
#include "tests/test_fixtures.h"
#include "util/timer.h"

namespace psi {
namespace {

using util::FaultInjector;
using util::FaultSchedule;
using util::ScopedFaultSpec;

/// Arms nothing itself but guarantees the global injector is clean before
/// and after every test in this file, so tests compose in any order.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().DisarmAll(); }
  void TearDown() override { FaultInjector::Global().DisarmAll(); }
};

/// Drives `site` through `hits` consultations and returns the fire pattern.
std::vector<bool> FirePattern(std::string_view site, int hits) {
  std::vector<bool> pattern;
  pattern.reserve(static_cast<size_t>(hits));
  for (int i = 0; i < hits; ++i) {
    pattern.push_back(FaultInjector::Global().ShouldFail(site));
  }
  return pattern;
}

// --- Schedule semantics ----------------------------------------------------

TEST_F(FaultInjectionTest, UnarmedSiteNeverFires) {
  EXPECT_TRUE(FaultInjector::Global().AllStats().empty());
  const std::vector<bool> pattern = FirePattern("some.site", 100);
  EXPECT_EQ(std::count(pattern.begin(), pattern.end(), true), 0);
  // An unarmed site records nothing.
  EXPECT_EQ(FaultInjector::Global().Stats("some.site").hits, 0u);
}

TEST_F(FaultInjectionTest, NthFiresExactlyOnce) {
  FaultInjector::Global().Arm("x", FaultSchedule::Nth(3));
  const std::vector<bool> pattern = FirePattern("x", 10);
  std::vector<bool> expected(10, false);
  expected[2] = true;  // the 3rd hit, 1-based
  EXPECT_EQ(pattern, expected);
  const auto stats = FaultInjector::Global().Stats("x");
  EXPECT_EQ(stats.hits, 10u);
  EXPECT_EQ(stats.fires, 1u);
}

TEST_F(FaultInjectionTest, EveryKFiresPeriodically) {
  FaultInjector::Global().Arm("x", FaultSchedule::EveryK(4));
  const std::vector<bool> pattern = FirePattern("x", 12);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(pattern[static_cast<size_t>(i)], (i + 1) % 4 == 0) << i;
  }
  EXPECT_EQ(FaultInjector::Global().Stats("x").fires, 3u);
}

TEST_F(FaultInjectionTest, AlwaysFiresOnEveryHit) {
  FaultInjector::Global().Arm("x", FaultSchedule::Always());
  const std::vector<bool> pattern = FirePattern("x", 7);
  EXPECT_EQ(std::count(pattern.begin(), pattern.end(), true), 7);
}

TEST_F(FaultInjectionTest, ProbabilisticIsDeterministicPerSeed) {
  FaultInjector::Global().Arm("x", FaultSchedule::WithProbability(99, 0.3));
  const std::vector<bool> first = FirePattern("x", 1000);

  // Re-arming with the same seed replays the identical pattern — the
  // property every chaos spec relies on.
  FaultInjector::Global().Arm("x", FaultSchedule::WithProbability(99, 0.3));
  const std::vector<bool> second = FirePattern("x", 1000);
  EXPECT_EQ(first, second);

  const auto fires = std::count(first.begin(), first.end(), true);
  EXPECT_GT(fires, 200);  // p=0.3 over 1000 hits; generous bounds
  EXPECT_LT(fires, 400);
}

TEST_F(FaultInjectionTest, ArmResetsCountsButTotalFiresIsMonotonic) {
  const uint64_t before = FaultInjector::Global().TotalFires();
  FaultInjector::Global().Arm("x", FaultSchedule::Always());
  FirePattern("x", 5);
  EXPECT_EQ(FaultInjector::Global().Stats("x").fires, 5u);

  FaultInjector::Global().Arm("x", FaultSchedule::Always());  // re-arm
  EXPECT_EQ(FaultInjector::Global().Stats("x").hits, 0u);
  EXPECT_EQ(FaultInjector::Global().Stats("x").fires, 0u);

  FaultInjector::Global().Disarm("x");
  EXPECT_TRUE(FaultInjector::Global().AllStats().empty());
  // The process-wide gauge keeps counting across arm/disarm cycles.
  EXPECT_EQ(FaultInjector::Global().TotalFires(), before + 5);
}

TEST_F(FaultInjectionTest, AllStatsSortsBySiteName) {
  FaultInjector::Global().Arm("b.site", FaultSchedule::Always());
  FaultInjector::Global().Arm("a.site", FaultSchedule::Always());
  FaultInjector::Global().Arm("c.site", FaultSchedule::Always());
  FaultInjector::Global().ShouldFail("b.site");
  const auto all = FaultInjector::Global().AllStats();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].first, "a.site");
  EXPECT_EQ(all[1].first, "b.site");
  EXPECT_EQ(all[2].first, "c.site");
  EXPECT_EQ(all[1].second.fires, 1u);
}

TEST_F(FaultInjectionTest, MaybeStallSleepsForScheduledDuration) {
  FaultInjector::Global().Arm(
      "stall.site", FaultSchedule::EveryK(2).StallMs(10.0));
  util::WallTimer timer;
  FaultInjector::Global().MaybeStall("stall.site");  // hit 1: no fire
  const double first = timer.Seconds();
  EXPECT_LT(first, 0.009);

  util::WallTimer timer2;
  FaultInjector::Global().MaybeStall("stall.site");  // hit 2: fires, sleeps
  // sleep_for guarantees at least the requested duration.
  EXPECT_GE(timer2.Seconds(), 0.009);
  EXPECT_EQ(FaultInjector::Global().Stats("stall.site").fires, 1u);
}

// --- Spec grammar ----------------------------------------------------------

TEST_F(FaultInjectionTest, ArmFromSpecParsesEveryTriggerForm) {
  ASSERT_TRUE(FaultInjector::Global()
                  .ArmFromSpec("a=nth:2,b=every:3,c=prob:0.5:42,d=always,"
                               "e=prob:0.25,f=always@2.5")
                  .ok());
  const auto all = FaultInjector::Global().AllStats();
  ASSERT_EQ(all.size(), 6u);

  // nth:2 fires on the second hit only.
  EXPECT_FALSE(FaultInjector::Global().ShouldFail("a"));
  EXPECT_TRUE(FaultInjector::Global().ShouldFail("a"));
  EXPECT_FALSE(FaultInjector::Global().ShouldFail("a"));
  // every:3 fires on the third.
  EXPECT_FALSE(FaultInjector::Global().ShouldFail("b"));
  EXPECT_FALSE(FaultInjector::Global().ShouldFail("b"));
  EXPECT_TRUE(FaultInjector::Global().ShouldFail("b"));
  // always fires immediately.
  EXPECT_TRUE(FaultInjector::Global().ShouldFail("d"));
}

TEST_F(FaultInjectionTest, ArmFromSpecOffDisarmsOneSite) {
  ASSERT_TRUE(FaultInjector::Global().ArmFromSpec("a=always,b=always").ok());
  ASSERT_TRUE(FaultInjector::Global().ArmFromSpec("a=off").ok());
  EXPECT_FALSE(FaultInjector::Global().ShouldFail("a"));
  EXPECT_TRUE(FaultInjector::Global().ShouldFail("b"));
}

TEST_F(FaultInjectionTest, ArmFromSpecRejectsMalformedEntries) {
  const char* kBad[] = {
      "justasite",     // no '='
      "=always",       // empty site
      "x=",            // empty trigger
      "x=maybe",       // unknown trigger
      "x=nth:",        // missing N
      "x=nth:0",       // N must be >= 1
      "x=nth:3x",      // trailing garbage
      "x=every:0",     // period must be >= 1
      "x=prob:1.5",    // p out of [0, 1]
      "x=prob:-0.1",   // p out of [0, 1]
      "x=prob:0.5:zz", // bad seed
      "x=always@",     // empty stall
      "x=always@-3",   // negative stall
  };
  for (const char* spec : kBad) {
    EXPECT_FALSE(FaultInjector::Global().ArmFromSpec(spec).ok()) << spec;
  }
}

TEST_F(FaultInjectionTest, BadTailEntryArmsNothing) {
  const util::Status status =
      FaultInjector::Global().ArmFromSpec("good=always,bad=nope");
  EXPECT_FALSE(status.ok());
  // Two-pass parse: the valid head entry must not have been armed.
  EXPECT_TRUE(FaultInjector::Global().AllStats().empty());
  EXPECT_FALSE(FaultInjector::Global().ShouldFail("good"));
}

TEST_F(FaultInjectionTest, ScopedFaultSpecDisarmsOnExit) {
  {
    ScopedFaultSpec chaos("x=always");
    EXPECT_FALSE(FaultInjector::Global().AllStats().empty());
  }
  EXPECT_TRUE(FaultInjector::Global().AllStats().empty());
}

#if PSI_FAULT_INJECTION_ENABLED

// --- Hooks in the stack ----------------------------------------------------

TEST_F(FaultInjectionTest, CacheForcedMissHidesAnEntry) {
  core::PredictionCache cache;
  cache.Insert(42, {.valid = true, .plan_index = 1});
  ASSERT_TRUE(cache.Lookup(42).has_value());

  ScopedFaultSpec chaos("cache.lookup.miss=always");
  EXPECT_FALSE(cache.Lookup(42).has_value());
  // The forced miss counts as a miss in the cache's own traffic counters.
  EXPECT_GE(cache.counters().misses, 1u);
}

TEST_F(FaultInjectionTest, CachePoisonFlipsTheCachedDecision) {
  core::PredictionCache cache;
  cache.Insert(42, {.valid = true, .plan_index = 1});

  ScopedFaultSpec chaos("cache.lookup.poison=always");
  const auto entry = cache.Lookup(42);
  ASSERT_TRUE(entry.has_value());
  EXPECT_FALSE(entry->valid);          // flipped
  EXPECT_EQ(entry->plan_index, 2u);    // shifted; consumers clamp
}

// The acceptance criterion for the whole subsystem: an injected fault moves
// the instrumentation counters but never the answer.
TEST_F(FaultInjectionTest, InjectedFaultsChangeCountersNeverThePivotSet) {
  const uint64_t seed = psi::testing::TestSeed(0xfa017);
  PSI_LOG_TEST_SEED(seed);
  const graph::Graph g = psi::testing::MakeRandomGraph(150, 450, 3, seed);
  const graph::QueryGraph q = psi::testing::ExtractQuery(g, 4, seed);
  if (q.num_nodes() != 4) GTEST_SKIP() << "query extraction failed";

  core::SmartPsiConfig config;
  config.min_candidates_for_ml = 4;  // force the full ML + cache pipeline
  config.seed = seed;

  core::SmartPsiEngine baseline_engine(g, config);
  const core::PsiQueryResult baseline = baseline_engine.Evaluate(q);
  ASSERT_TRUE(baseline.complete);

  const uint64_t fires_before = FaultInjector::Global().TotalFires();
  ScopedFaultSpec chaos(psi::testing::MakeChaosSchedule());
  core::SmartPsiEngine chaos_engine(g, config);
  const core::PsiQueryResult faulted = chaos_engine.Evaluate(q);

  ASSERT_TRUE(faulted.complete);
  EXPECT_EQ(faulted.valid_nodes, baseline.valid_nodes);
  EXPECT_GT(FaultInjector::Global().TotalFires(), fires_before);
}

// --- Service under injected faults ------------------------------------------

service::ServiceOptions SmartServiceOptions() {
  service::ServiceOptions options;
  options.num_workers = 1;  // serialize: one worker, deterministic order
  options.engine.min_candidates_for_ml = 4;
  return options;
}

service::QueryRequest SmartRequest(const graph::QueryGraph& q) {
  service::QueryRequest request;
  request.query = q;
  request.method = service::Method::kSmart;
  return request;
}

// A shed is final: Submit and SubmitBatch make one admission attempt, count
// the shed as rejected and admit nothing, and the next submission is
// admitted as usual.
TEST_F(FaultInjectionTest, ShedFailsFast) {
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  service::PsiService service(g, SmartServiceOptions());

  {
    ScopedFaultSpec chaos("service.admission.shed=nth:1");
    const service::QueryResponse shed =
        service.Execute(SmartRequest(psi::testing::MakeFigure1Query()));
    EXPECT_EQ(shed.status, service::RequestStatus::kRejected);
    const service::MetricsSnapshot m = service.Stats().metrics;
    EXPECT_EQ(m.rejected, 1u);
    EXPECT_EQ(m.admitted, 0u);

    const service::QueryResponse next =
        service.Execute(SmartRequest(psi::testing::MakeFigure1Query()));
    EXPECT_EQ(next.status, service::RequestStatus::kOk);
    EXPECT_EQ(next.valid_nodes, (std::vector<graph::NodeId>{0, 5}));
  }
  {
    ScopedFaultSpec chaos("service.admission.shed=nth:1");
    service::BatchRequest batch;
    for (int i = 0; i < 3; ++i) {
      batch.queries.push_back(SmartRequest(psi::testing::MakeFigure1Query()));
    }
    EXPECT_FALSE(service.SubmitBatch(std::move(batch)).has_value());
  }

  const service::ServiceStats stats = service.Stats();
  const service::MetricsSnapshot& m = stats.metrics;
  EXPECT_EQ(m.rejected, 4u);
  EXPECT_EQ(m.batch_rejected, 1u);
  EXPECT_EQ(m.batch_submitted, 0u);
  EXPECT_EQ(m.admitted, 1u);
  EXPECT_EQ(m.Settled(), m.admitted);
  EXPECT_EQ(m.latency.count, 1u);
  EXPECT_GE(stats.faults_injected, 2u);
}

// Every state-1 run pretends its MaxTime expired, so every candidate the
// executor runs goes through a state-2 recovery. The recoveries are
// counted, and no answer moves.
TEST_F(FaultInjectionTest, PreemptionStormRecoversEveryAnswer) {
  const uint64_t seed = psi::testing::TestSeed(0xde62ade);
  PSI_LOG_TEST_SEED(seed);
  const graph::Graph g = psi::testing::MakeRandomGraph(120, 360, 2, seed);
  const graph::QueryGraph q = psi::testing::ExtractQuery(g, 3, seed);
  if (q.num_nodes() != 3) GTEST_SKIP() << "query extraction failed";
  match::BasicEngine basic(g);
  const auto truth = basic.ProjectPivot(q, match::MatchingEngine::Options());
  ASSERT_TRUE(truth.complete);

  service::PsiService service(g, SmartServiceOptions());
  ScopedFaultSpec chaos("smart.preempt.expire=always");
  constexpr int kRequests = 10;
  for (int i = 0; i < kRequests; ++i) {
    const service::QueryResponse response = service.Execute(SmartRequest(q));
    ASSERT_EQ(response.status, service::RequestStatus::kOk) << i;
    EXPECT_EQ(response.valid_nodes, truth.pivot_matches) << i;
  }

  const service::MetricsSnapshot m = service.Stats().metrics;
  // Request 1 trains on a sample and runs the rest through the executor;
  // requests 2.. hit the cache on every candidate and run all of them.
  EXPECT_GE(m.method_recoveries, static_cast<uint64_t>(kRequests));
}

// Every cache hit hands back a flipped decision. The evaluation contradicts
// it, the service counts the mismatch, and the answer stays exact.
TEST_F(FaultInjectionTest, PoisonedCacheCountsMismatchesWithExactAnswers) {
  const uint64_t seed = psi::testing::TestSeed(0xca0e);
  PSI_LOG_TEST_SEED(seed);
  const graph::Graph g = psi::testing::MakeRandomGraph(120, 360, 2, seed);
  const graph::QueryGraph q = psi::testing::ExtractQuery(g, 3, seed);
  if (q.num_nodes() != 3) GTEST_SKIP() << "query extraction failed";
  match::BasicEngine basic(g);
  const auto truth = basic.ProjectPivot(q, match::MatchingEngine::Options());
  ASSERT_TRUE(truth.complete);

  service::PsiService service(g, SmartServiceOptions());
  ScopedFaultSpec chaos("cache.lookup.poison=always");
  for (int i = 0; i < 6; ++i) {
    const service::QueryResponse response = service.Execute(SmartRequest(q));
    ASSERT_EQ(response.status, service::RequestStatus::kOk) << i;
    EXPECT_EQ(response.valid_nodes, truth.pivot_matches) << i;
    // A poisoned hit always disagrees with the confirmed outcome.
    EXPECT_EQ(response.cache_mismatches, response.cache_hits) << i;
  }

  const service::MetricsSnapshot m = service.Stats().metrics;
  EXPECT_GE(m.cache_hits, 1u);
  EXPECT_GE(m.cache_mismatches, 1u);
  EXPECT_EQ(m.cache_mismatches, m.cache_hits);
}

// The service.worker.stall site deschedules a worker between dequeue and
// execution — latency moves, the answer must not (DESIGN.md §11's core
// corollary).
TEST_F(FaultInjectionTest, WorkerStallDelaysEvaluationNotTheAnswer) {
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  service::ServiceOptions options;
  options.num_workers = 2;
  options.engine.signature_depth = 2;
  service::PsiService service(g, options);

  ScopedFaultSpec chaos("service.worker.stall=always@2");
  service::QueryRequest request;
  request.query = psi::testing::MakeFigure1Query();
  const service::QueryResponse response = service.Execute(std::move(request));
  EXPECT_EQ(response.status, service::RequestStatus::kOk);
  EXPECT_EQ(response.valid_nodes, (std::vector<graph::NodeId>{0, 5}));
  const auto stats =
      FaultInjector::Global().Stats(util::faults::kServiceWorkerStall);
  EXPECT_GE(stats.fires, 1u);
}

// Admission is counted before the batch becomes runnable (DESIGN.md §17.1).
// With the submitter stalled right after its enqueue, the worker settles
// the query while the submitter sleeps, and no Stats() snapshot taken
// meanwhile may show Settled() > admitted.
TEST_F(FaultInjectionTest, AdmissionIsCountedBeforeTheEnqueue) {
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  service::ServiceOptions options;
  options.num_workers = 1;
  service::PsiService service(g, options);
  ScopedFaultSpec chaos("service.admission.enqueued=always@150");

  std::atomic<bool> returned{false};
  std::thread submitter([&] {
    service::QueryRequest request;
    request.query = psi::testing::MakeFigure1Query();
    request.method = service::Method::kPessimistic;
    EXPECT_TRUE(service.Execute(std::move(request)).ok());
    returned.store(true, std::memory_order_release);
  });
  bool settled_during_stall = false;
  while (!returned.load(std::memory_order_acquire)) {
    const service::MetricsSnapshot m = service.Stats().metrics;
    EXPECT_LE(m.Settled(), m.admitted);
    if (m.Settled() == 1) settled_during_stall = true;
    if (HasFailure()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  submitter.join();
  // The stall must actually have let the worker settle first, or this
  // test checked nothing.
  EXPECT_TRUE(settled_during_stall);
  EXPECT_GE(FaultInjector::Global()
                .Stats(util::faults::kServiceAdmissionEnqueued)
                .fires,
            1u);
}

// A request's deadline runs from admission (service/request.h), so a worker
// stalled past it must settle kTimeout — with a sound subset of the answer —
// instead of starting a fresh budget when execution begins.
TEST_F(FaultInjectionTest, WorkerStallPastDeadlineTimesOut) {
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  service::ServiceOptions options;
  options.num_workers = 1;
  options.engine.signature_depth = 2;
  service::PsiService service(g, options);

  const std::vector<graph::NodeId> answer = {0, 5};
  ScopedFaultSpec chaos("service.worker.stall=always@100");
  for (const service::Method method :
       {service::Method::kSmart, service::Method::kPessimistic}) {
    service::QueryRequest request;
    request.query = psi::testing::MakeFigure1Query();
    request.method = method;
    request.deadline_seconds = 0.02;
    const service::QueryResponse response =
        service.Execute(std::move(request));
    SCOPED_TRACE(service::MethodName(method));
    EXPECT_EQ(response.status, service::RequestStatus::kTimeout);
    EXPECT_GE(response.latency_seconds, 0.1);
    EXPECT_TRUE(std::includes(answer.begin(), answer.end(),
                              response.valid_nodes.begin(),
                              response.valid_nodes.end()));
  }
}

// A batch shares one admission time, so members that start after the
// batch deadline has passed report kTimeout rather than each getting a
// fresh full budget.
TEST_F(FaultInjectionTest, BatchMembersStartingPastDeadlineTimeOut) {
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  service::ServiceOptions options;
  options.num_workers = 1;
  options.engine.signature_depth = 2;
  service::PsiService service(g, options);

  const std::vector<graph::NodeId> answer = {0, 5};
  ScopedFaultSpec chaos("service.worker.stall=always@100");
  service::BatchRequest batch;
  batch.deadline_seconds = 0.02;
  for (const service::Method method :
       {service::Method::kPessimistic, service::Method::kOptimistic,
        service::Method::kSmart}) {
    service::QueryRequest member;
    member.query = psi::testing::MakeFigure1Query();
    member.method = method;
    batch.queries.push_back(std::move(member));
  }
  auto future = service.SubmitBatch(std::move(batch));
  ASSERT_TRUE(future.has_value());
  const service::BatchResponse response = future->get();
  ASSERT_EQ(response.responses.size(), 3u);
  for (const service::QueryResponse& member : response.responses) {
    EXPECT_EQ(member.status, service::RequestStatus::kTimeout) << member.id;
    EXPECT_TRUE(std::includes(answer.begin(), answer.end(),
                              member.valid_nodes.begin(),
                              member.valid_nodes.end()));
  }
}

#else  // !PSI_FAULT_INJECTION_ENABLED

// In an injection-OFF build the hook macros compile to nothing: arming the
// injector must not perturb the stack, and no site ever records a hit.
TEST_F(FaultInjectionTest, OffBuildHooksAreInert) {
  ScopedFaultSpec chaos("cache.lookup.miss=always,cache.lookup.poison=always");
  core::PredictionCache cache;
  cache.Insert(42, {.valid = true, .plan_index = 1});
  const auto entry = cache.Lookup(42);
  ASSERT_TRUE(entry.has_value());  // no forced miss
  EXPECT_TRUE(entry->valid);       // no poison
  EXPECT_EQ(util::FaultInjector::Global().Stats("cache.lookup.miss").hits, 0u);
}

#endif  // PSI_FAULT_INJECTION_ENABLED

}  // namespace
}  // namespace psi
