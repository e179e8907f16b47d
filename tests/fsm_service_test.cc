// FSM mining through the serving layer and the batched submission path
// (DESIGN.md §17): the service-backed miner must reproduce the in-process
// frequent sets exactly, SubmitBatch must be answer-identical to sequential
// Submit at every search-thread count (bare and under chaos), and the
// batch_* counters must account exactly.
// Registered under the `fsm.` ctest prefix.

#include <algorithm>
#include <future>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "fsm/canonical.h"
#include "fsm/miner.h"
#include "fsm/support.h"
#include "graph/query_graph.h"
#include "service/request.h"
#include "service/service.h"
#include "signature/builders.h"
#include "tests/test_fixtures.h"
#include "util/fault_injection.h"

namespace psi {
namespace {

class FsmServiceTest : public ::testing::Test {
 protected:
  void SetUp() override { util::FaultInjector::Global().DisarmAll(); }
  void TearDown() override { util::FaultInjector::Global().DisarmAll(); }
};

/// Sorted canonical codes of a mined frequent set — the set-equality key
/// (supports are compared separately where exactness allows).
std::vector<std::string> FrequentCodes(const fsm::FsmResult& result) {
  std::vector<std::string> codes;
  codes.reserve(result.frequent.size());
  for (const fsm::MinedPattern& m : result.frequent) {
    codes.push_back(fsm::CanonicalCode(m.pattern));
  }
  std::sort(codes.begin(), codes.end());
  return codes;
}

// ---------------------------------------------------------------------------
// Frequent-set equality: kEnumeration vs kPsi vs service-backed.
// ---------------------------------------------------------------------------

class FsmMethodEquivalenceTest : public FsmServiceTest,
                                 public ::testing::WithParamInterface<uint64_t> {
};

TEST_P(FsmMethodEquivalenceTest, ServedMinerMatchesInProcessMethods) {
  const uint64_t seed = psi::testing::TestSeed(GetParam());
  PSI_LOG_TEST_SEED(seed);
  const graph::Graph g = psi::testing::MakeRandomGraph(120, 360, 3, seed);

  fsm::FsmConfig base;
  base.min_support = 15;
  base.max_edges = 3;

  fsm::FsmConfig enum_config = base;
  enum_config.method = fsm::SupportMethod::kEnumeration;
  const fsm::FsmResult by_enum = fsm::FsmMiner(g, enum_config).Mine();
  ASSERT_TRUE(by_enum.complete);

  fsm::FsmConfig psi_config = base;
  psi_config.method = fsm::SupportMethod::kPsi;
  const fsm::FsmResult by_psi = fsm::FsmMiner(g, psi_config).Mine();
  ASSERT_TRUE(by_psi.complete);

  service::PsiService service(g, service::ServiceOptions{});
  fsm::FsmConfig served_config = base;
  served_config.service = &service;
  const fsm::FsmResult by_served = fsm::FsmMiner(g, served_config).Mine();
  ASSERT_TRUE(by_served.complete);

  // The frequent flag must agree pattern-for-pattern. kPsi and served
  // support go through one reduction over probes that stop at min_support,
  // so their supports are equal too (exactly min_support); enumeration's
  // are lower bounds that only have to reach it.
  EXPECT_EQ(FrequentCodes(by_enum), FrequentCodes(by_psi));
  EXPECT_EQ(FrequentCodes(by_psi), FrequentCodes(by_served));
  EXPECT_EQ(by_enum.candidates_evaluated, by_served.candidates_evaluated);
  ASSERT_EQ(by_psi.frequent.size(), by_served.frequent.size());
  for (size_t i = 0; i < by_served.frequent.size(); ++i) {
    EXPECT_EQ(fsm::CanonicalCode(by_served.frequent[i].pattern),
              fsm::CanonicalCode(by_psi.frequent[i].pattern));
    EXPECT_EQ(by_served.frequent[i].support, by_psi.frequent[i].support);
    EXPECT_EQ(by_served.frequent[i].support, base.min_support);
  }
  for (const fsm::MinedPattern& m : by_enum.frequent) {
    EXPECT_GE(m.support, base.min_support);
  }
}

INSTANTIATE_TEST_SUITE_P(SeededGraphs, FsmMethodEquivalenceTest,
                         ::testing::Values(17, 29, 61));

// ---------------------------------------------------------------------------
// Miner determinism across thread counts.
// ---------------------------------------------------------------------------

TEST_F(FsmServiceTest, MinerIsDeterministicAcrossNumThreads) {
  const uint64_t seed = psi::testing::TestSeed(83);
  PSI_LOG_TEST_SEED(seed);
  const graph::Graph g = psi::testing::MakeRandomGraph(140, 420, 3, seed);

  fsm::FsmConfig base;
  base.min_support = 12;
  base.max_edges = 3;
  base.method = fsm::SupportMethod::kPsi;

  base.num_threads = 1;
  const fsm::FsmResult reference = fsm::FsmMiner(g, base).Mine();
  ASSERT_TRUE(reference.complete);
  for (const size_t threads : {size_t{2}, size_t{4}}) {
    fsm::FsmConfig config = base;
    config.num_threads = threads;
    const fsm::FsmResult result = fsm::FsmMiner(g, config).Mine();
    ASSERT_TRUE(result.complete) << threads << " threads";
    ASSERT_EQ(result.frequent.size(), reference.frequent.size())
        << threads << " threads";
    // Ordered comparison: the mined list order itself is deterministic.
    for (size_t i = 0; i < result.frequent.size(); ++i) {
      EXPECT_EQ(fsm::CanonicalCode(result.frequent[i].pattern),
                fsm::CanonicalCode(reference.frequent[i].pattern));
      EXPECT_EQ(result.frequent[i].support, reference.frequent[i].support);
    }
  }
}

TEST_F(FsmServiceTest, ServedMinerIsDeterministicAcrossThreadCounts) {
  const uint64_t seed = psi::testing::TestSeed(97);
  PSI_LOG_TEST_SEED(seed);
  const graph::Graph g = psi::testing::MakeRandomGraph(120, 360, 3, seed);

  std::optional<fsm::FsmResult> reference;
  // num_threads parallelizes canonicalization; num_workers the service's
  // evaluation. The mined list (patterns, order, supports) must
  // not depend on either.
  for (const auto [threads, workers] :
       {std::pair<size_t, size_t>{1, 1}, {4, 1}, {1, 3}, {4, 3}}) {
    service::ServiceOptions options;
    options.num_workers = workers;
    service::PsiService service(g, options);
    fsm::FsmConfig config;
    config.min_support = 15;
    config.max_edges = 3;
    config.num_threads = threads;
    config.service = &service;
    const fsm::FsmResult result = fsm::FsmMiner(g, config).Mine();
    ASSERT_TRUE(result.complete);
    if (!reference.has_value()) {
      reference = result;
      continue;
    }
    ASSERT_EQ(result.frequent.size(), reference->frequent.size());
    for (size_t i = 0; i < result.frequent.size(); ++i) {
      EXPECT_EQ(fsm::CanonicalCode(result.frequent[i].pattern),
                fsm::CanonicalCode(reference->frequent[i].pattern));
      EXPECT_EQ(result.frequent[i].support, reference->frequent[i].support);
    }
  }
}

// ---------------------------------------------------------------------------
// Differential: SubmitBatch vs sequential Submit.
// ---------------------------------------------------------------------------

/// Builds the mixed-member workload the batch path must degrade gracefully
/// over: pessimistic probes (the shared-context fast path), an optimistic
/// member, a kSmart member (engine checkout path), and a malformed member.
std::vector<service::QueryRequest> MakeMixedWorkload(const graph::Graph& g,
                                                     uint64_t seed) {
  std::vector<service::QueryRequest> requests;
  for (size_t i = 0; i < 6; ++i) {
    const graph::QueryGraph q =
        psi::testing::ExtractQuery(g, 4, seed * 131 + i);
    if (q.num_nodes() != 4) continue;
    service::QueryRequest request;
    request.id = requests.size() + 1;
    request.query = q;
    request.method = service::Method::kPessimistic;
    requests.push_back(std::move(request));
  }
  if (requests.size() > 1) {
    requests[1].method = service::Method::kOptimistic;
  }
  if (requests.size() > 2) {
    requests[2].method = service::Method::kSmart;
  }
  // Duplicate of the first probe: must be answered identically and counted
  // as a batch context hit.
  if (!requests.empty()) {
    service::QueryRequest repeat = requests[0];
    repeat.id = requests.size() + 1;
    requests.push_back(std::move(repeat));
  }
  service::QueryRequest malformed;  // no nodes, no pivot -> kInvalid
  malformed.id = requests.size() + 1;
  requests.push_back(std::move(malformed));
  return requests;
}

/// One differential pass: the same workload through sequential Submit and
/// through one SubmitBatch, on identically configured services. Per-query
/// status and valid_nodes must be byte-identical.
void ExpectBatchMatchesSequential(const graph::Graph& g,
                                  const std::vector<service::QueryRequest>&
                                      requests,
                                  size_t search_threads,
                                  const std::string& context) {
  SCOPED_TRACE(context + ", search_threads=" +
               std::to_string(search_threads));
  service::ServiceOptions options;
  options.num_workers = 2;
  options.search_threads = search_threads;

  std::vector<service::QueryResponse> sequential;
  {
    service::PsiService service(g, options);
    for (const service::QueryRequest& request : requests) {
      sequential.push_back(service.Execute(request));
    }
  }

  service::PsiService service(g, options);
  service::BatchRequest batch;
  batch.queries = requests;
  auto future = service.SubmitBatch(batch);
  ASSERT_TRUE(future.has_value());
  const service::BatchResponse response = future->get();

  ASSERT_EQ(response.responses.size(), sequential.size());
  EXPECT_NE(response.snapshot_version, 0u);
  for (size_t i = 0; i < sequential.size(); ++i) {
    SCOPED_TRACE("member " + std::to_string(i));
    EXPECT_EQ(response.responses[i].id, requests[i].id);
    EXPECT_EQ(response.responses[i].status, sequential[i].status);
    EXPECT_EQ(response.responses[i].valid_nodes, sequential[i].valid_nodes);
    if (response.responses[i].ok()) {
      EXPECT_EQ(response.responses[i].snapshot_version,
                response.snapshot_version);
    }
  }

  const service::MetricsSnapshot m = service.Stats().metrics;
  EXPECT_EQ(m.batch_submitted, 1u);
  EXPECT_EQ(m.batch_queries, requests.size());
  EXPECT_EQ(m.batch_context_hits, response.context_hits);
  EXPECT_EQ(m.Settled(), m.admitted);
}

class BatchDifferentialTest
    : public FsmServiceTest,
      public ::testing::WithParamInterface<std::tuple<uint64_t, size_t>> {};

TEST_P(BatchDifferentialTest, SubmitBatchMatchesSequentialSubmit) {
  const auto [base_seed, search_threads] = GetParam();
  const uint64_t seed = psi::testing::TestSeed(base_seed, search_threads);
  PSI_LOG_TEST_SEED(seed);
  const graph::Graph g = psi::testing::MakeRandomGraph(180, 560, 3, seed);
  const std::vector<service::QueryRequest> requests =
      MakeMixedWorkload(g, seed);
  if (requests.size() < 4) GTEST_SKIP() << "extraction failed";

  ExpectBatchMatchesSequential(g, requests, search_threads, "bare");
  {
    // The engine-side chaos cocktail: flipped predictions, forced cache
    // misses and recoveries may cost the kSmart member time, never move an
    // answer.
    util::ScopedFaultSpec chaos(psi::testing::MakeChaosSchedule());
    ExpectBatchMatchesSequential(g, requests, search_threads, "chaos");
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndThreads, BatchDifferentialTest,
    ::testing::Combine(::testing::Values(19, 47),
                       ::testing::Values(1, 2, 4)));

// ---------------------------------------------------------------------------
// Batch admission accounting and edge cases.
// ---------------------------------------------------------------------------

TEST_F(FsmServiceTest, BatchCountersAccountExactly) {
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  service::PsiService service(g, service::ServiceOptions{});

  service::BatchRequest batch;
  for (int i = 0; i < 3; ++i) {
    service::QueryRequest request;
    request.query = psi::testing::MakeFigure1Query();
    request.method = service::Method::kPessimistic;
    batch.queries.push_back(std::move(request));
  }
  auto future = service.SubmitBatch(std::move(batch));
  ASSERT_TRUE(future.has_value());
  const service::BatchResponse response = future->get();
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.responses.size(), 3u);
  for (const service::QueryResponse& r : response.responses) {
    EXPECT_EQ(r.valid_nodes, (std::vector<graph::NodeId>{0, 5}));
  }
  // Identical member queries: the first prepares, the other two reuse.
  EXPECT_EQ(response.context_hits, 2u);
  EXPECT_GT(response.latency_seconds, 0.0);

  const service::MetricsSnapshot m = service.Stats().metrics;
  EXPECT_EQ(m.batch_submitted, 1u);
  EXPECT_EQ(m.batch_rejected, 0u);
  EXPECT_EQ(m.batch_queries, 3u);
  EXPECT_EQ(m.batch_context_hits, 2u);
  EXPECT_EQ(m.admitted, 3u);
  EXPECT_EQ(m.completed, 3u);
  EXPECT_EQ(m.Settled(), m.admitted);
  EXPECT_EQ(m.latency.count, m.Settled());

  // Member ids defaulted to batch_id * 1000 + index.
  EXPECT_NE(response.id, 0u);
  for (size_t i = 0; i < response.responses.size(); ++i) {
    EXPECT_EQ(response.responses[i].id, response.id * 1000 + i);
  }
}

TEST_F(FsmServiceTest, EmptyBatchSettlesCleanly) {
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  service::PsiService service(g, service::ServiceOptions{});
  auto future = service.SubmitBatch(service::BatchRequest{});
  ASSERT_TRUE(future.has_value());
  const service::BatchResponse response = future->get();
  EXPECT_TRUE(response.responses.empty());
  EXPECT_TRUE(response.ok());
  const service::MetricsSnapshot m = service.Stats().metrics;
  EXPECT_EQ(m.batch_submitted, 1u);
  EXPECT_EQ(m.batch_queries, 0u);
}

TEST_F(FsmServiceTest, ShutDownServiceRejectsBatchWhole) {
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  service::PsiService service(g, service::ServiceOptions{});
  service.Shutdown();

  service::BatchRequest batch;
  service::QueryRequest request;
  request.id = 7;
  request.query = psi::testing::MakeFigure1Query();
  batch.queries.push_back(std::move(request));
  EXPECT_FALSE(service.SubmitBatch(batch).has_value());

  const service::MetricsSnapshot m = service.Stats().metrics;
  EXPECT_EQ(m.batch_rejected, 1u);
  EXPECT_EQ(m.rejected, 1u);
  EXPECT_EQ(m.batch_submitted, 0u);
}

// Every member of one SubmitBatch carries its own limit: the same query at
// different limits, next to unlimited members, each settles as the same
// request would through Submit. Sequential search (search_threads = 1)
// returns the k smallest valid nodes; a parallel search keeps only the
// request.h contract: a sorted, duplicate-free subset of the full answer of
// size min(k, |answer|), which subset depending on the schedule.
TEST_F(FsmServiceTest, BatchMemberLimitsActIndependently) {
  const uint64_t seed = psi::testing::TestSeed(151);
  PSI_LOG_TEST_SEED(seed);
  const graph::Graph g = psi::testing::MakeRandomGraph(180, 560, 3, seed);
  for (const size_t search_threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("search_threads=" + std::to_string(search_threads));
    service::ServiceOptions options;
    options.num_workers = 2;
    options.search_threads = search_threads;
    service::PsiService service(g, options);

    std::vector<service::QueryRequest> requests;
    std::vector<std::vector<graph::NodeId>> full;
    for (uint64_t i = 0; i < 3; ++i) {
      const graph::QueryGraph q =
          psi::testing::ExtractQuery(g, 3, seed * 13 + i);
      if (q.num_nodes() != 3) continue;
      service::QueryRequest request;
      request.query = q;
      request.method = i % 2 == 0 ? service::Method::kPessimistic
                                  : service::Method::kOptimistic;
      const service::QueryResponse whole = service.Execute(request);
      ASSERT_TRUE(whole.ok());
      const size_t n = whole.valid_nodes.size();
      for (const size_t k : {size_t{0}, size_t{1}, n / 2 + 1, n, n + 1,
                             size_t{0}}) {
        request.max_valid_nodes = k;
        requests.push_back(request);
        full.push_back(whole.valid_nodes);
      }
    }
    ASSERT_GE(requests.size(), 12u);

    service::BatchRequest batch;
    batch.queries = requests;
    auto future = service.SubmitBatch(batch);
    ASSERT_TRUE(future.has_value());
    const service::BatchResponse response = future->get();
    ASSERT_EQ(response.responses.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      const size_t k = requests[i].max_valid_nodes;
      SCOPED_TRACE("member " + std::to_string(i) + " k=" + std::to_string(k));
      const service::QueryResponse& member = response.responses[i];
      ASSERT_EQ(member.status, service::RequestStatus::kOk);
      const size_t expected =
          k == 0 ? full[i].size() : std::min(k, full[i].size());
      const std::vector<graph::NodeId>& got = member.valid_nodes;
      if (search_threads == 1) {
        EXPECT_EQ(got, std::vector<graph::NodeId>(
                           full[i].begin(), full[i].begin() + expected));
        continue;
      }
      EXPECT_EQ(got.size(), expected);
      EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
      EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end());
      EXPECT_TRUE(std::includes(full[i].begin(), full[i].end(), got.begin(),
                                got.end()));
    }
  }
}

// ---------------------------------------------------------------------------
// Served support primitives.
// ---------------------------------------------------------------------------

TEST_F(FsmServiceTest, EvaluateSupportServedMatchesInProcessSupports) {
  const uint64_t seed = psi::testing::TestSeed(127);
  PSI_LOG_TEST_SEED(seed);
  const graph::Graph g = psi::testing::MakeRandomGraph(120, 360, 3, seed);
  const auto sigs = signature::BuildMatrixSignatures(g, 2, g.num_labels());
  service::PsiService service(g, service::ServiceOptions{});

  for (uint64_t pattern_seed = 1; pattern_seed <= 6; ++pattern_seed) {
    // The extractor's pivot is irrelevant: both support paths probe every
    // pattern node as the pivot in turn.
    const graph::QueryGraph pattern =
        psi::testing::ExtractQuery(g, 3, seed * 17 + pattern_seed);
    if (pattern.num_nodes() != 3) continue;
    for (const uint64_t min_support : {uint64_t{2}, uint64_t{25}}) {
      const fsm::SupportResult in_process =
          fsm::EvaluateSupport(g, &sigs, pattern, min_support,
                               fsm::SupportMethod::kPsi, util::Deadline());
      auto future = fsm::SubmitSupportBatch(service, pattern, min_support);
      ASSERT_TRUE(future.has_value());
      const fsm::SupportResult served = fsm::ReduceServedSupport(
          future->get(), pattern.num_nodes(), min_support);
      ASSERT_TRUE(in_process.complete);
      ASSERT_TRUE(served.complete);
      EXPECT_EQ(served.frequent, in_process.frequent);
      // One reduction over the same limited probes: equal supports, and a
      // frequent pattern's is the threshold itself.
      EXPECT_EQ(served.support, in_process.support);
      if (served.frequent) {
        EXPECT_EQ(served.support, min_support);
      }
    }
  }
}

}  // namespace
}  // namespace psi
