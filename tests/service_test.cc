#include "service/service.h"

#include <algorithm>
#include <future>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/pure_drivers.h"
#include "core/smart_psi.h"
#include "graph/query_extractor.h"
#include "service/request.h"
#include "service/workload.h"
#include "tests/test_fixtures.h"
#include "util/random.h"

namespace psi::service {
namespace {

ServiceOptions SmallOptions(size_t workers) {
  ServiceOptions options;
  options.num_workers = workers;
  options.engine.signature_depth = 1;
  return options;
}

// A failed status comparison names the statuses (gtest finds PrintTo by
// argument-dependent lookup) instead of dumping the enum's bytes.
TEST(PsiServiceTest, RequestStatusPrintsItsName) {
  EXPECT_EQ(::testing::PrintToString(RequestStatus::kTimeout), "timeout");
  EXPECT_EQ(::testing::PrintToString(RequestStatus::kNotFound), "not_found");
}

TEST(PsiServiceTest, Figure1QueryMatchesPaperAnswer) {
  const graph::Graph g = testing::MakeFigure1Graph();
  PsiService service(g, SmallOptions(2));
  QueryRequest request;
  request.id = 7;
  request.query = testing::MakeFigure1Query();
  const QueryResponse response = service.Execute(std::move(request));
  EXPECT_EQ(response.id, 7u);
  EXPECT_EQ(response.status, RequestStatus::kOk);
  EXPECT_EQ(response.valid_nodes, (std::vector<graph::NodeId>{0, 5}));
  EXPECT_GE(response.latency_seconds, response.exec_seconds);
}

// The Realist has no stop point: a kSmart request with a limit is refused
// as kInvalid, alone or as a batch member, while a pure member of the same
// batch honours its limit.
TEST(PsiServiceTest, SmartRequestWithLimitIsInvalid) {
  const graph::Graph g = testing::MakeFigure1Graph();
  PsiService service(g, SmallOptions(2));
  QueryRequest smart;
  smart.query = testing::MakeFigure1Query();
  smart.method = Method::kSmart;
  smart.max_valid_nodes = 1;
  const QueryResponse alone = service.Execute(smart);
  EXPECT_EQ(alone.status, RequestStatus::kInvalid);
  EXPECT_TRUE(alone.valid_nodes.empty());

  QueryRequest pure = smart;
  pure.method = Method::kPessimistic;
  BatchRequest batch;
  batch.queries = {smart, pure};
  const BatchResponse response = service.ExecuteBatch(std::move(batch));
  ASSERT_EQ(response.responses.size(), 2u);
  EXPECT_EQ(response.responses[0].status, RequestStatus::kInvalid);
  EXPECT_EQ(response.responses[1].status, RequestStatus::kOk);
  EXPECT_EQ(response.responses[1].valid_nodes,
            (std::vector<graph::NodeId>{0}));

  // Without the limit the same kSmart request is answered in full.
  smart.max_valid_nodes = 0;
  EXPECT_EQ(service.Execute(smart).valid_nodes,
            (std::vector<graph::NodeId>{0, 5}));
  EXPECT_EQ(service.Stats().metrics.invalid, 2u);
}

TEST(PsiServiceTest, PureMethodsAgreeWithSmart) {
  const graph::Graph g = testing::MakeFigure1Graph();
  PsiService service(g, SmallOptions(2));
  for (const Method method :
       {Method::kSmart, Method::kOptimistic, Method::kPessimistic}) {
    QueryRequest request;
    request.query = testing::MakeFigure1Query();
    request.method = method;
    const QueryResponse response = service.Execute(std::move(request));
    EXPECT_EQ(response.status, RequestStatus::kOk) << MethodName(method);
    EXPECT_EQ(response.valid_nodes, (std::vector<graph::NodeId>{0, 5}))
        << MethodName(method);
  }
}

// The service's answers must be byte-identical to a serial engine's even
// when many clients hammer it at once: exactness is the paper's invariant
// (mispredictions cost time, never correctness), and sharing signatures +
// prediction cache across workers must not break it.
TEST(PsiServiceTest, ConcurrentAnswersAgreeWithSerialEngine) {
  const graph::Graph g = testing::MakeRandomGraph(300, 900, 4, /*seed=*/11);
  util::Rng rng(13);
  WorkloadSpec spec;
  spec.count = 12;
  spec.query_size = 4;
  const std::vector<QueryRequest> requests = ExtractWorkload(g, spec, rng);
  ASSERT_FALSE(requests.empty());

  core::SmartPsiConfig serial_config;
  serial_config.num_threads = 1;
  serial_config.signature_depth = 1;
  core::SmartPsiEngine serial(g, serial_config);
  std::vector<std::vector<graph::NodeId>> expected;
  for (const QueryRequest& request : requests) {
    expected.push_back(serial.Evaluate(request.query).valid_nodes);
  }

  PsiService service(g, SmallOptions(4));
  constexpr int kClientThreads = 4;
  constexpr int kRounds = 3;
  std::vector<std::thread> clients;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < requests.size(); ++i) {
          const QueryResponse response = service.Execute(requests[i]);
          if (response.status != RequestStatus::kOk ||
              response.valid_nodes != expected[i]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(mismatches.load(), 0);

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.metrics.admitted,
            static_cast<uint64_t>(kClientThreads) * kRounds * requests.size());
  EXPECT_EQ(stats.metrics.admitted, stats.metrics.Settled());
}

TEST(PsiServiceTest, ExpiredDeadlineReturnsTimeoutWithoutCrashing) {
  const graph::Graph g = testing::MakeRandomGraph(500, 2000, 3, /*seed=*/5);
  graph::QueryExtractor extractor(g);
  util::Rng rng(17);
  const auto queries = extractor.ExtractMany(5, 4, rng);
  ASSERT_FALSE(queries.empty());

  PsiService service(g, SmallOptions(2));
  for (const auto& query : queries) {
    QueryRequest request;
    request.query = query;
    request.deadline_seconds = 1e-9;  // expired before the worker sees it
    const QueryResponse response = service.Execute(std::move(request));
    EXPECT_EQ(response.status, RequestStatus::kTimeout);
  }
  // Partial answers must still be sound: re-running without a deadline
  // succeeds and the timed-out answers were subsets.
  for (const auto& query : queries) {
    QueryRequest request;
    request.query = query;
    const QueryResponse response = service.Execute(std::move(request));
    EXPECT_EQ(response.status, RequestStatus::kOk);
  }
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.metrics.timed_out, queries.size());
  EXPECT_EQ(stats.metrics.completed, queries.size());
}

TEST(PsiServiceTest, TimedOutAnswerIsSubsetOfTrueAnswer) {
  const graph::Graph g = testing::MakeRandomGraph(400, 1600, 3, /*seed=*/23);
  graph::QueryExtractor extractor(g);
  util::Rng rng(29);
  const auto queries = extractor.ExtractMany(4, 3, rng);
  ASSERT_FALSE(queries.empty());

  PsiService service(g, SmallOptions(1));
  for (const auto& query : queries) {
    QueryRequest timed;
    timed.query = query;
    timed.deadline_seconds = 1e-6;
    const QueryResponse partial = service.Execute(std::move(timed));

    QueryRequest full;
    full.query = query;
    const QueryResponse complete = service.Execute(std::move(full));
    ASSERT_EQ(complete.status, RequestStatus::kOk);
    EXPECT_TRUE(std::includes(complete.valid_nodes.begin(),
                              complete.valid_nodes.end(),
                              partial.valid_nodes.begin(),
                              partial.valid_nodes.end()));
  }
}

TEST(PsiServiceTest, OverloadShedsInsteadOfHanging) {
  const graph::Graph g = testing::MakeRandomGraph(300, 1200, 3, /*seed=*/3);
  graph::QueryExtractor extractor(g);
  util::Rng rng(31);
  const auto queries = extractor.ExtractMany(4, 8, rng);
  ASSERT_FALSE(queries.empty());

  ServiceOptions options = SmallOptions(1);
  options.max_queue_depth = 1;
  PsiService service(g, options);

  constexpr size_t kOffered = 64;
  size_t rejected = 0;
  std::vector<std::future<QueryResponse>> futures;
  for (size_t i = 0; i < kOffered; ++i) {
    QueryRequest request;
    request.query = queries[i % queries.size()];
    auto future = service.Submit(std::move(request));
    if (future.has_value()) {
      futures.push_back(std::move(*future));
    } else {
      ++rejected;
    }
  }
  for (auto& future : futures) {
    EXPECT_EQ(future.get().status, RequestStatus::kOk);
  }
  EXPECT_GT(rejected, 0u) << "queue bound 1 must shed under a burst of "
                          << kOffered;

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.metrics.rejected, rejected);
  EXPECT_EQ(stats.metrics.admitted, futures.size());
  EXPECT_EQ(stats.metrics.admitted + stats.metrics.rejected, kOffered);
  EXPECT_EQ(stats.metrics.Settled(), stats.metrics.admitted);
}

TEST(PsiServiceTest, MetricsCountersAddUpUnderConcurrentLoad) {
  const graph::Graph g = testing::MakeRandomGraph(200, 600, 3, /*seed=*/41);
  graph::QueryExtractor extractor(g);
  util::Rng rng(43);
  const auto queries = extractor.ExtractMany(4, 6, rng);
  ASSERT_FALSE(queries.empty());

  PsiService service(g, SmallOptions(3));
  constexpr int kThreads = 3;
  constexpr int kPerThread = 10;
  std::atomic<uint64_t> offered{0};
  std::atomic<uint64_t> shed{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        QueryRequest request;
        request.query = queries[(t + i) % queries.size()];
        // Mix in some already-expired deadlines and one invalid request.
        if (i % 5 == 4) request.deadline_seconds = 1e-9;
        if (i % 7 == 6) request.query = graph::QueryGraph();
        offered.fetch_add(1);
        auto future = service.Submit(std::move(request));
        if (!future.has_value()) {
          shed.fetch_add(1);
          continue;
        }
        future->get();
      }
    });
  }
  for (auto& client : clients) client.join();

  const MetricsSnapshot m = service.Stats().metrics;
  EXPECT_EQ(m.admitted + m.rejected, offered.load());
  EXPECT_EQ(m.rejected, shed.load());
  EXPECT_EQ(m.Settled(), m.admitted);
  EXPECT_GT(m.completed, 0u);
  EXPECT_GT(m.timed_out, 0u);
  EXPECT_GT(m.invalid, 0u);
  EXPECT_EQ(m.latency.count, m.Settled());
  EXPECT_GT(m.latency.p99, 0.0);
  EXPECT_GE(m.latency.max, m.latency.p99);
}

TEST(PsiServiceTest, InvalidRequestsAreReportedNotExecuted) {
  const graph::Graph g = testing::MakeFigure1Graph();
  PsiService service(g, SmallOptions(1));

  QueryRequest empty;  // no nodes at all
  EXPECT_EQ(service.Execute(std::move(empty)).status, RequestStatus::kInvalid);

  QueryRequest no_pivot;
  no_pivot.query.AddNode(testing::kA);  // a node but no pivot
  EXPECT_EQ(service.Execute(std::move(no_pivot)).status,
            RequestStatus::kInvalid);

  EXPECT_EQ(service.Stats().metrics.invalid, 2u);
}

TEST(PsiServiceTest, AssignsIdsWhenCallerDoesNot) {
  const graph::Graph g = testing::MakeFigure1Graph();
  PsiService service(g, SmallOptions(1));
  QueryRequest request;
  request.query = testing::MakeFigure1Query();
  const QueryResponse a = service.Execute(request);
  const QueryResponse b = service.Execute(std::move(request));
  EXPECT_NE(a.id, 0u);
  EXPECT_NE(b.id, 0u);
  EXPECT_NE(a.id, b.id);
}

TEST(PsiServiceTest, SharedCacheSeesRepeatTraffic) {
  const graph::Graph g = testing::MakeRandomGraph(300, 900, 3, /*seed=*/47);
  graph::QueryExtractor extractor(g);
  util::Rng rng(53);
  const auto queries = extractor.ExtractMany(4, 2, rng);
  ASSERT_FALSE(queries.empty());

  PsiService service(g, SmallOptions(2));
  for (int round = 0; round < 3; ++round) {
    for (const auto& query : queries) {
      QueryRequest request;
      request.query = query;
      EXPECT_EQ(service.Execute(std::move(request)).status,
                RequestStatus::kOk);
    }
  }
  const ServiceStats stats = service.Stats();
  EXPECT_GT(stats.metrics.cache_entries, 0u);
  EXPECT_LE(stats.metrics.cache_entries, stats.cache.inserts);
  EXPECT_EQ(stats.cache_entries, stats.metrics.cache_entries);
  // Far below the bound: nothing was evicted, and the gauge says so.
  EXPECT_EQ(stats.metrics.cache_evictions, 0u);
  EXPECT_EQ(stats.metrics.cache_evictions, stats.cache.evictions);
  EXPECT_GT(stats.cache.inserts, 0u);
  // Rounds 2 and 3 re-run identical queries against a warm cache.
  EXPECT_GT(stats.cache.hits, 0u);
}

TEST(PsiServiceTest, ShutdownStopsAdmissionAndIsIdempotent) {
  const graph::Graph g = testing::MakeFigure1Graph();
  PsiService service(g, SmallOptions(2));
  QueryRequest request;
  request.query = testing::MakeFigure1Query();
  EXPECT_EQ(service.Execute(request).status, RequestStatus::kOk);

  service.Shutdown();
  service.Shutdown();  // must not hang or crash
  EXPECT_FALSE(service.Submit(request).has_value());
  EXPECT_EQ(service.Stats().metrics.completed, 1u);
}

// An infeasible query (label absent from the data graph) is a *valid*
// request with an empty answer — it must settle kOk with no nodes through
// every method, not error out, for both the smart and pure execution paths.
TEST(PsiServiceTest, InfeasibleQuerySettlesOkAndEmptyForEveryMethod) {
  const graph::Graph g = testing::MakeFigure1Graph();
  PsiService service(g, SmallOptions(2));
  for (const Method method :
       {Method::kSmart, Method::kOptimistic, Method::kPessimistic}) {
    QueryRequest request;
    request.query.AddNode(12345);  // not in the Figure 1 alphabet
    request.query.set_pivot(0);
    request.method = method;
    const QueryResponse response = service.Execute(std::move(request));
    EXPECT_EQ(response.status, RequestStatus::kOk) << MethodName(method);
    EXPECT_TRUE(response.valid_nodes.empty()) << MethodName(method);
  }
  EXPECT_EQ(service.Stats().metrics.completed, 3u);
}

// --- Catalog-backed serving (DESIGN.md §12) --------------------------------

TEST(PsiServiceTest, ResponsesReportTheirSnapshotVersion) {
  const graph::Graph g = testing::MakeFigure1Graph();
  PsiService service(g, SmallOptions(1));
  QueryRequest request;
  request.query = testing::MakeFigure1Query();
  const QueryResponse response = service.Execute(std::move(request));
  EXPECT_EQ(response.status, RequestStatus::kOk);
  EXPECT_EQ(response.snapshot_version, 1u);
}

TEST(PsiServiceTest, UnknownGraphNameSettlesNotFound) {
  const graph::Graph g = testing::MakeFigure1Graph();
  PsiService service(g, SmallOptions(2));
  QueryRequest request;
  request.query = testing::MakeFigure1Query();
  request.graph = "no-such-graph";
  const QueryResponse response = service.Execute(std::move(request));
  EXPECT_EQ(response.status, RequestStatus::kNotFound);
  EXPECT_EQ(response.snapshot_version, 0u);
  EXPECT_TRUE(response.valid_nodes.empty());

  const MetricsSnapshot m = service.Stats().metrics;
  EXPECT_EQ(m.not_found, 1u);
  EXPECT_EQ(m.Settled(), m.admitted) << "not_found must settle, not leak";
}

TEST(PsiServiceTest, RoutesRequestsByGraphName) {
  // Two graphs with different answers to the same query: Figure 1 answers
  // {0, 5}; a single A–B–C path answers {0} only.
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.BuildAndPublish("fig1", testing::MakeFigure1Graph())
                  .ok());
  graph::GraphBuilder path;
  const graph::NodeId a = path.AddNode(testing::kA);
  const graph::NodeId b = path.AddNode(testing::kB);
  const graph::NodeId c = path.AddNode(testing::kC);
  path.AddEdge(a, b);
  path.AddEdge(b, c);
  path.AddEdge(c, a);
  ASSERT_TRUE(catalog.BuildAndPublish("path", std::move(path).Build()).ok());

  ServiceOptions options = SmallOptions(2);
  options.default_graph = "fig1";
  PsiService service(&catalog, options);

  QueryRequest to_default;
  to_default.query = testing::MakeFigure1Query();
  const QueryResponse from_default = service.Execute(std::move(to_default));
  EXPECT_EQ(from_default.valid_nodes, (std::vector<graph::NodeId>{0, 5}));

  QueryRequest to_path;
  to_path.query = testing::MakeFigure1Query();
  to_path.graph = "path";
  const QueryResponse from_path = service.Execute(std::move(to_path));
  EXPECT_EQ(from_path.valid_nodes, (std::vector<graph::NodeId>{0}));
  EXPECT_NE(from_path.snapshot_version, from_default.snapshot_version);
}

TEST(PsiServiceTest, HotSwapRebindsNewRequestsAndReleasesTheOldSnapshot) {
  GraphCatalog catalog;
  ASSERT_TRUE(
      catalog.BuildAndPublish("g", testing::MakeFigure1Graph()).ok());
  ServiceOptions options = SmallOptions(2);
  options.default_graph = "g";
  PsiService service(&catalog, options);

  QueryRequest before;
  before.query = testing::MakeFigure1Query();
  const QueryResponse v1 = service.Execute(std::move(before));
  EXPECT_EQ(v1.snapshot_version, 1u);
  EXPECT_EQ(v1.valid_nodes, (std::vector<graph::NodeId>{0, 5}));

  std::weak_ptr<const GraphSnapshot> old_generation = catalog.Resolve("g");
  ASSERT_TRUE(
      catalog.BuildAndPublish("g", testing::MakeFigure1Graph()).ok());

  QueryRequest after;
  after.query = testing::MakeFigure1Query();
  const QueryResponse v2 = service.Execute(std::move(after));
  EXPECT_EQ(v2.snapshot_version, 2u);
  EXPECT_EQ(v2.valid_nodes, (std::vector<graph::NodeId>{0, 5}));

  // Nothing holds the old generation once its last request settled: the
  // engines keep only non-owning views, so the memory is already gone.
  EXPECT_TRUE(old_generation.expired());
  EXPECT_EQ(service.Stats().metrics.snapshot_swaps, 1u);
}

TEST(PsiServiceTest, PinGaugeDrainsToZeroAfterTheLastResponse) {
  const graph::Graph g = testing::MakeRandomGraph(200, 600, 3, /*seed=*/61);
  graph::QueryExtractor extractor(g);
  util::Rng rng(67);
  const auto queries = extractor.ExtractMany(4, 6, rng);
  ASSERT_FALSE(queries.empty());

  PsiService service(g, SmallOptions(3));
  std::vector<std::future<QueryResponse>> futures;
  for (int round = 0; round < 4; ++round) {
    for (const auto& query : queries) {
      QueryRequest request;
      request.query = query;
      auto future = service.Submit(std::move(request));
      if (future.has_value()) futures.push_back(std::move(*future));
    }
  }
  for (auto& future : futures) {
    EXPECT_NE(future.get().snapshot_version, 0u);
  }
  // Pins drop before the response future is fulfilled, so after the last
  // get() the gauge must already read zero — no grace period.
  const std::vector<CatalogEntry> entries = service.catalog().List();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].pins, 0u);
}

TEST(PsiServiceTest, CacheIsSaltedPerSnapshotGeneration) {
  const graph::Graph g = testing::MakeRandomGraph(300, 900, 3, /*seed=*/71);
  graph::QueryExtractor extractor(g);
  util::Rng rng(73);
  const auto queries = extractor.ExtractMany(4, 3, rng);
  ASSERT_FALSE(queries.empty());

  PsiService service(g, SmallOptions(2));
  auto run_rounds = [&] {
    for (int round = 0; round < 3; ++round) {
      for (const auto& query : queries) {
        QueryRequest request;
        request.query = query;
        EXPECT_EQ(service.Execute(std::move(request)).status,
                  RequestStatus::kOk);
      }
    }
  };
  run_rounds();
  const uint64_t hits_before = service.Stats().cache.hits;
  EXPECT_GT(hits_before, 0u);

  // Swap to a new generation of the same graph and re-run: keys are salted
  // per version, so the epoch tripwire must never fire — a cross-version
  // key collision would surface as a nonzero epoch_drops count.
  ASSERT_TRUE(service.catalog()
                  .BuildAndPublish(service.options().default_graph, g.Clone())
                  .ok());
  run_rounds();
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cache.epoch_drops, 0u);
  EXPECT_GT(stats.cache.hits, hits_before)
      << "the new generation must warm its own cache entries";
}

// A caller-built signature matrix published through the catalog is served
// as is: no startup build, and the paper's Figure-1 answer.
TEST(PsiServiceTest, AdoptsPrecomputedSignatures) {
  const graph::Graph g = testing::MakeFigure1Graph();
  ServiceOptions options = SmallOptions(2);
  core::SmartPsiConfig config = options.engine;
  config.num_threads = 1;
  core::SmartPsiEngine reference(g, config);
  signature::SignatureMatrix sigs = reference.graph_signatures();

  GraphCatalog catalog;
  ASSERT_TRUE(catalog
                  .PublishPrebuilt(options.default_graph, g.Clone(),
                                   std::move(sigs))
                  .ok());
  PsiService service(&catalog, options);
  EXPECT_EQ(service.Stats().signature_build_seconds, 0.0);
  QueryRequest request;
  request.query = testing::MakeFigure1Query();
  const QueryResponse response = service.Execute(std::move(request));
  EXPECT_EQ(response.status, RequestStatus::kOk);
  EXPECT_EQ(response.valid_nodes, (std::vector<graph::NodeId>{0, 5}));
}

// A Submit is a batch of one inside the service, but the batch_* counters
// count SubmitBatch traffic only — admitted, settled or shed.
TEST(PsiServiceTest, PlainSubmitTrafficLeavesBatchCountersAtZero) {
  const graph::Graph g = testing::MakeFigure1Graph();
  PsiService service(g, SmallOptions(2));
  for (const Method method :
       {Method::kSmart, Method::kOptimistic, Method::kPessimistic}) {
    QueryRequest request;
    request.query = testing::MakeFigure1Query();
    request.method = method;
    auto future = service.Submit(request);
    ASSERT_TRUE(future.has_value());
    EXPECT_EQ(future->get().status, RequestStatus::kOk);
    EXPECT_EQ(service.Execute(request).status, RequestStatus::kOk);
  }
  service.Shutdown();
  QueryRequest shed;
  shed.query = testing::MakeFigure1Query();
  EXPECT_EQ(service.Execute(shed).status, RequestStatus::kRejected);

  const MetricsSnapshot m = service.Stats().metrics;
  EXPECT_EQ(m.admitted, 6u);
  EXPECT_EQ(m.completed, 6u);
  EXPECT_EQ(m.rejected, 1u);
  EXPECT_EQ(m.batch_submitted, 0u);
  EXPECT_EQ(m.batch_rejected, 0u);
  EXPECT_EQ(m.batch_queries, 0u);
  EXPECT_EQ(m.batch_context_hits, 0u);
  EXPECT_EQ(m.batch_degraded, 0u);
}

// A pure-method Submit runs through the batch runner's shared prepared
// context; its answer must be the bytes core::EvaluatePure computes from
// scratch on the same snapshot.
TEST(PsiServiceTest, PureSubmitMatchesEvaluatePure) {
  const graph::Graph g = testing::MakeRandomGraph(300, 900, 3, /*seed=*/17);
  util::Rng rng(19);
  WorkloadSpec spec;
  spec.count = 8;
  spec.query_size = 4;
  const std::vector<QueryRequest> requests = ExtractWorkload(g, spec, rng);
  ASSERT_FALSE(requests.empty());

  PsiService service(g, SmallOptions(2));
  const auto snapshot = service.catalog().Resolve(service.options().default_graph);
  ASSERT_NE(snapshot, nullptr);
  size_t nonempty = 0;
  for (const Method method : {Method::kOptimistic, Method::kPessimistic}) {
    core::PureDriverOptions pure;
    pure.strategy = method == Method::kOptimistic
                        ? core::PureStrategy::kOptimistic
                        : core::PureStrategy::kPessimistic;
    for (QueryRequest request : requests) {
      request.method = method;
      const core::PureDriverResult expected = core::EvaluatePure(
          snapshot->graph(), snapshot->signatures(), request.query, pure);
      ASSERT_TRUE(expected.complete);
      const QueryResponse response = service.Execute(request);
      EXPECT_EQ(response.status, RequestStatus::kOk) << MethodName(method);
      EXPECT_EQ(response.valid_nodes, expected.valid_nodes)
          << MethodName(method) << " request " << request.id;
      nonempty += expected.valid_nodes.empty() ? 0 : 1;
    }
  }
  EXPECT_GT(nonempty, 0u);
}

}  // namespace
}  // namespace psi::service
