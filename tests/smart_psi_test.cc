#include "core/smart_psi.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <ostream>
#include <thread>
#include <tuple>
#include <unordered_set>

#include <gtest/gtest.h>

#include "core/query_context.h"
#include "graph/query_extractor.h"
#include "graph/graph_builder.h"
#include "match/engine.h"
#include "match/plan.h"
#include "match/psi_evaluator.h"
#include "signature/builders.h"
#include "tests/test_fixtures.h"

namespace psi::core {
namespace {

TEST(SmartPsiTest, Figure1Answer) {
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  SmartPsiEngine engine(g);
  const PsiQueryResult result =
      engine.Evaluate(psi::testing::MakeFigure1Query());
  EXPECT_EQ(result.valid_nodes, (std::vector<graph::NodeId>{0, 5}));
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.num_candidates, 2u);
  EXPECT_GT(result.total_seconds, 0.0);
}

TEST(SmartPsiTest, InfeasibleQueryEmpty) {
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  SmartPsiEngine engine(g);
  graph::QueryGraph q;
  q.AddNode(12345);
  q.set_pivot(0);
  const PsiQueryResult result = engine.Evaluate(q);
  EXPECT_TRUE(result.valid_nodes.empty());
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.num_candidates, 0u);
}

// The feasibility check must track the *bound* graph: after Rebind moves
// an unbound engine onto a graph, a label outside that graph's alphabet
// short-circuits to empty while a real query still answers correctly.
TEST(SmartPsiTest, RebindTracksFeasibilityOfTheBoundGraph) {
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  SmartPsiConfig config;
  config.signature_depth = 1;
  const auto sigs = signature::BuildSignatures(
      g, config.signature_method, config.signature_depth, g.num_labels());

  SmartPsiEngine engine(config);  // unbound
  EXPECT_FALSE(engine.bound());
  engine.Rebind(g, &sigs);
  ASSERT_TRUE(engine.bound());

  graph::QueryGraph infeasible;
  infeasible.AddNode(12345);
  infeasible.set_pivot(0);
  const PsiQueryResult empty = engine.Evaluate(infeasible);
  EXPECT_TRUE(empty.valid_nodes.empty());
  EXPECT_TRUE(empty.complete);

  const PsiQueryResult answer =
      engine.Evaluate(psi::testing::MakeFigure1Query());
  EXPECT_EQ(answer.valid_nodes, (std::vector<graph::NodeId>{0, 5}));
}

TEST(SmartPsiTest, SignaturesBuiltAtConstruction) {
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  SmartPsiConfig config;
  config.signature_method = signature::Method::kExploration;
  config.signature_depth = 3;
  SmartPsiEngine engine(g, config);
  EXPECT_EQ(engine.graph_signatures().num_rows(), g.num_nodes());
  EXPECT_EQ(engine.graph_signatures().method(),
            signature::Method::kExploration);
  EXPECT_EQ(engine.graph_signatures().depth(), 3u);
  EXPECT_GE(engine.signature_build_seconds(), 0.0);
}

// ---------------------------------------------------------------------------
// Exactness across the whole configuration space: every feature combination
// must return the enumeration ground truth (the paper's exactness claim
// holds regardless of predictions, caching, preemption, or parallelism).
// ---------------------------------------------------------------------------
struct ConfigCase {
  bool cache;
  bool preemption;
  bool plan_model;
  size_t threads;
  signature::Method method;
};

// Without a printer gtest dumps the struct's raw bytes, padding included, so
// the test names would change from process to process.
void PrintTo(const ConfigCase& c, std::ostream* os) {
  *os << "cache=" << c.cache << " preempt=" << c.preemption
      << " plan=" << c.plan_model << " t=" << c.threads << ' '
      << signature::MethodName(c.method);
}

class SmartPsiExactnessTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, ConfigCase>> {};

TEST_P(SmartPsiExactnessTest, MatchesGroundTruth) {
  const auto [seed, config_case] = GetParam();
  const graph::Graph g = psi::testing::MakeRandomGraph(400, 1300, 4, seed);
  graph::QueryExtractor extractor(g);
  util::Rng rng(seed * 13 + 1);

  SmartPsiConfig config;
  config.enable_cache = config_case.cache;
  config.enable_preemption = config_case.preemption;
  config.enable_plan_model = config_case.plan_model;
  config.num_threads = config_case.threads;
  config.signature_method = config_case.method;
  config.min_candidates_for_ml = 8;  // force the ML path on small graphs
  config.seed = seed;
  SmartPsiEngine engine(g, config);

  match::BasicEngine basic(g);
  for (const size_t size : {3u, 5u}) {
    const graph::QueryGraph q = extractor.Extract(size, rng);
    if (q.num_nodes() != size) continue;
    const auto truth =
        basic.ProjectPivot(q, match::MatchingEngine::Options());
    ASSERT_TRUE(truth.complete);
    const PsiQueryResult result = engine.Evaluate(q);
    EXPECT_TRUE(result.complete);
    EXPECT_EQ(result.valid_nodes, truth.pivot_matches)
        << "size=" << size << " " << q.ToString();
    EXPECT_EQ(result.num_candidates >= result.num_training_nodes, true);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SmartPsiExactnessTest,
    ::testing::Combine(
        ::testing::Values(100, 200, 300),
        ::testing::Values(
            ConfigCase{true, true, true, 1, signature::Method::kMatrix},
            ConfigCase{false, true, true, 1, signature::Method::kMatrix},
            ConfigCase{true, false, true, 1, signature::Method::kMatrix},
            ConfigCase{true, true, false, 1, signature::Method::kMatrix},
            ConfigCase{true, true, true, 4, signature::Method::kMatrix},
            ConfigCase{true, true, true, 1,
                       signature::Method::kExploration},
            ConfigCase{false, false, false, 4,
                       signature::Method::kExploration})));

TEST(SmartPsiTest, TinyCandidateSetSkipsMl) {
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  SmartPsiConfig config;
  config.min_candidates_for_ml = 24;  // Figure 1 has only 2 candidates
  SmartPsiEngine engine(g, config);
  const PsiQueryResult result =
      engine.Evaluate(psi::testing::MakeFigure1Query());
  EXPECT_EQ(result.num_training_nodes, 0u);
  EXPECT_EQ(result.train_seconds, 0.0);
  EXPECT_EQ(result.valid_nodes, (std::vector<graph::NodeId>{0, 5}));
}

TEST(SmartPsiTest, MlPathReportsAccuracyAndTiming) {
  const graph::Graph g = psi::testing::MakeRandomGraph(600, 2000, 3, 71);
  SmartPsiConfig config;
  config.min_candidates_for_ml = 8;
  SmartPsiEngine engine(g, config);
  graph::QueryExtractor extractor(g);
  util::Rng rng(72);
  const graph::QueryGraph q = extractor.Extract(4, rng);
  ASSERT_EQ(q.num_nodes(), 4u);
  const PsiQueryResult result = engine.Evaluate(q);
  EXPECT_TRUE(result.complete);
  EXPECT_GT(result.num_training_nodes, 0u);
  EXPECT_GT(result.alpha_predictions, 0u);
  EXPECT_LE(result.alpha_correct, result.alpha_predictions);
  EXPECT_GT(result.train_seconds, 0.0);
  EXPECT_LE(result.train_seconds + result.predict_seconds,
            result.total_seconds);
}

TEST(SmartPsiTest, CacheHitsAccumulateAcrossQueries) {
  const graph::Graph g = psi::testing::MakeRandomGraph(600, 2000, 2, 73);
  SmartPsiConfig config;
  config.min_candidates_for_ml = 8;
  SmartPsiEngine engine(g, config);
  graph::QueryExtractor extractor(g);
  util::Rng rng(74);
  const graph::QueryGraph q = extractor.Extract(3, rng);
  ASSERT_EQ(q.num_nodes(), 3u);
  const PsiQueryResult first = engine.Evaluate(q);
  const PsiQueryResult second = engine.Evaluate(q);
  EXPECT_EQ(first.valid_nodes, second.valid_nodes);
  // After the first run every remaining candidate's signature is cached.
  EXPECT_GT(second.cache_hits, 0u);
}

// Cache-first: once a query's candidates are all cached, repeating it
// fits no model and predicts nothing; every candidate runs its cached
// decision and the answer stays exact.
TEST(SmartPsiTest, RepeatedQueryFitsNoModel) {
  const graph::Graph g = psi::testing::MakeRandomGraph(600, 2000, 2, 73);
  SmartPsiConfig config;
  config.min_candidates_for_ml = 8;
  SmartPsiEngine engine(g, config);
  graph::QueryExtractor extractor(g);
  util::Rng rng(74);
  const graph::QueryGraph q = extractor.Extract(3, rng);
  ASSERT_EQ(q.num_nodes(), 3u);
  match::BasicEngine basic(g);
  const auto truth = basic.ProjectPivot(q, match::MatchingEngine::Options());
  ASSERT_TRUE(truth.complete);

  const PsiQueryResult first = engine.Evaluate(q);
  ASSERT_TRUE(first.complete);
  ASSERT_GT(first.num_training_nodes, 0u);
  const PsiQueryResult second = engine.Evaluate(q);
  EXPECT_TRUE(second.complete);
  EXPECT_EQ(second.num_training_nodes, 0u);
  EXPECT_EQ(second.train_seconds, 0.0);
  EXPECT_EQ(second.alpha_predictions, 0u);
  EXPECT_EQ(second.cache_hits, second.num_candidates);
  EXPECT_EQ(second.valid_nodes, truth.pivot_matches);
}

// A half-warm query samples its training nodes from the cache misses only.
TEST(SmartPsiTest, HalfWarmQueryTrainsOnlyOnMisses) {
  const graph::Graph g = psi::testing::MakeRandomGraph(600, 2000, 2, 73);
  SmartPsiConfig config;
  config.min_candidates_for_ml = 8;
  SmartPsiEngine engine(g, config);
  graph::QueryExtractor extractor(g);
  util::Rng rng(74);
  const graph::QueryGraph q = extractor.Extract(3, rng);
  ASSERT_EQ(q.num_nodes(), 3u);
  match::BasicEngine basic(g);
  const auto truth = basic.ProjectPivot(q, match::MatchingEngine::Options());
  ASSERT_TRUE(truth.complete);

  // Warm every other candidate with its true decision, keyed exactly as a
  // standalone engine keys it (row hash salted by the query fingerprint,
  // epoch 0).
  PredictionCache cache;
  engine.UseSharedCache(&cache);
  const signature::SignatureMatrix& sigs = engine.graph_signatures();
  const std::vector<graph::NodeId> candidates =
      PrepareQuery(g, sigs, q).candidates;
  std::unordered_set<uint64_t> warm_keys;
  for (size_t i = 0; i < candidates.size(); i += 2) {
    const graph::NodeId u = candidates[i];
    const bool valid = std::binary_search(truth.pivot_matches.begin(),
                                          truth.pivot_matches.end(), u);
    cache.Insert(sigs.RowHash(u) ^ q.Fingerprint(),
                 {.valid = valid, .steps = 1000});
    warm_keys.insert(sigs.RowHash(u));
  }
  // Signature twins of a warmed candidate hit too.
  size_t misses = 0;
  for (const graph::NodeId u : candidates) {
    misses += warm_keys.count(sigs.RowHash(u)) == 0 ? 1 : 0;
  }
  ASSERT_GE(misses, config.min_candidates_for_ml);
  const auto sample_of = [&](size_t n) {
    return static_cast<size_t>(
        std::ceil(config.train_fraction * static_cast<double>(n)));
  };
  // Sampling from every candidate would take strictly more nodes.
  ASSERT_LT(sample_of(misses), sample_of(candidates.size()));

  const PsiQueryResult result = engine.Evaluate(q);
  EXPECT_TRUE(result.complete);
  EXPECT_GT(result.num_training_nodes, 0u);
  EXPECT_LE(result.num_training_nodes, sample_of(misses));
  EXPECT_GE(result.cache_hits, candidates.size() - misses);
  EXPECT_EQ(result.cache_mismatches, 0u);
  EXPECT_EQ(result.valid_nodes, truth.pivot_matches);
}

// A standalone engine keys its private cache by query as well as by node
// signature, as the service does: decisions confirmed for one query are
// never served as hits to a different query with the same pivot label.
TEST(SmartPsiTest, StandaloneCacheHitsDoNotCrossQueries) {
  const graph::Graph g = psi::testing::MakeRandomGraph(600, 2000, 2, 73);
  using psi::testing::kA;
  using psi::testing::kB;
  // The first query admits every label-A node; the second, a subset.
  const graph::QueryGraph first = psi::testing::MakeSingleNodeQuery(kA);
  const graph::QueryGraph second =
      psi::testing::MakePathQuery({kA, kB, kA, kB, kA});
  SmartPsiConfig config;
  const SmartPsiEngine sizer(g, config);
  const size_t first_candidates =
      PrepareQuery(g, sizer.graph_signatures(), first).candidates.size();
  const size_t second_candidates =
      PrepareQuery(g, sizer.graph_signatures(), second).candidates.size();
  ASSERT_GT(second_candidates, 0u);
  ASSERT_GT(first_candidates, second_candidates);
  // The first query fits models and caches its confirmed decisions; the
  // second has too few candidates to fit any, so it re-looks nothing up
  // mid-query and every hit it counts would come from the first query.
  config.min_candidates_for_ml = second_candidates + 1;
  SmartPsiEngine engine(g, config);

  const PsiQueryResult warm = engine.Evaluate(first);
  ASSERT_TRUE(warm.complete);
  ASSERT_GT(warm.num_training_nodes, 0u);
  const PsiQueryResult other = engine.Evaluate(second);
  EXPECT_TRUE(other.complete);
  EXPECT_EQ(other.num_candidates, second_candidates);
  EXPECT_EQ(other.cache_hits, 0u);

  match::BasicEngine basic(g);
  const auto truth =
      basic.ProjectPivot(second, match::MatchingEngine::Options());
  ASSERT_TRUE(truth.complete);
  EXPECT_EQ(other.valid_nodes, truth.pivot_matches);
}

TEST(SmartPsiTest, ExpiredDeadlineIncomplete) {
  const graph::Graph g = psi::testing::MakeRandomGraph(400, 1300, 2, 75);
  SmartPsiEngine engine(g);
  graph::QueryExtractor extractor(g);
  util::Rng rng(76);
  const graph::QueryGraph q = extractor.Extract(4, rng);
  ASSERT_EQ(q.num_nodes(), 4u);
  const PsiQueryResult result =
      engine.Evaluate(q, util::Deadline::After(-1.0));
  EXPECT_FALSE(result.complete);
}

// A graph on which the preemptive executor's recovery states follow from
// step counts alone. The query is p(0)–X(1), p–Y(2), Y–Z(3), with the
// Y–Z edge labelled 1; its plan pool is all three connected orders, and
// the heuristic one, p Y Z X, is plan 0. Candidates:
// - `trap`: invalid, because its Y image `w` reaches a label-3 node only
//   over an edge labelled 0. Its signature satisfies the pivot's, so both
//   methods must search, and every plan but the heuristic one (which
//   fails at Z right away) walks all n X images first: about n² steps.
// - `refuted`: invalid with no label-3 node within two hops, so the
//   pessimist's pivot check refutes it in one step while the optimist,
//   on a non-heuristic plan, walks all n X images.
// - `valid`: a small valid node.
// n is chosen so that n² is twice MaxTime for a base of zero steps.
struct RecoveryFixture {
  graph::Graph g;
  graph::QueryGraph q;
  graph::NodeId trap, refuted, valid;
};

RecoveryFixture MakeRecoveryFixture() {
  const size_t n = static_cast<size_t>(std::sqrt(
                       2.0 * SmartPsiEngine::kTimeoutFactor *
                       static_cast<double>(
                           SmartPsiEngine::kMinPreemptionSteps))) +
                   1;
  RecoveryFixture f;
  graph::GraphBuilder b;
  f.trap = b.AddNode(0);
  f.refuted = b.AddNode(0);
  f.valid = b.AddNode(0);
  const graph::NodeId w = b.AddNode(2);
  const graph::NodeId w_refuted = b.AddNode(2);
  b.AddEdge(f.trap, w);
  b.AddEdge(f.refuted, w_refuted);
  b.AddEdge(w, b.AddNode(3), /*label=*/0);  // the wrong edge label
  for (size_t i = 0; i < n; ++i) {
    const graph::NodeId x = b.AddNode(1);
    b.AddEdge(f.trap, x);
    b.AddEdge(f.refuted, x);
    // Fillers make every Z scan from w or w_refuted cost n steps.
    const graph::NodeId filler = b.AddNode(4);
    b.AddEdge(w, filler);
    b.AddEdge(w_refuted, filler);
  }
  const graph::NodeId valid_y = b.AddNode(2);
  b.AddEdge(f.valid, b.AddNode(1));
  b.AddEdge(f.valid, valid_y);
  b.AddEdge(valid_y, b.AddNode(3), /*label=*/1);
  f.g = std::move(b).Build();

  const graph::NodeId p = f.q.AddNode(0);
  const graph::NodeId x = f.q.AddNode(1);
  const graph::NodeId y = f.q.AddNode(2);
  const graph::NodeId z = f.q.AddNode(3);
  f.q.AddEdge(p, x);
  f.q.AddEdge(p, y);
  f.q.AddEdge(y, z, /*label=*/1);
  f.q.set_pivot(p);
  return f;
}

// Cached decisions steer the two invalid candidates into the recovery
// states, deterministically: no sleep, no fault hook. `refuted`, cached as
// valid on plan 2, times out optimistically (state 1) and is refuted by the
// pessimist (state 2). `trap`, cached as invalid on plan 1, times out under
// both methods on that plan (states 1 and 2) and completes on the
// heuristic plan (state 3). Each confirmed decision is re-cached with the
// steps of the run that completed it.
TEST(SmartPsiTest, PreemptionRecoversAndStaysExact) {
  const RecoveryFixture f = MakeRecoveryFixture();
  SmartPsiEngine engine(f.g);
  PredictionCache cache;
  engine.UseSharedCache(&cache);
  const signature::SignatureMatrix& sigs = engine.graph_signatures();
  const auto key = [&](graph::NodeId u) {
    return sigs.RowHash(u) ^ f.q.Fingerprint();
  };
  cache.Insert(key(f.trap), {.valid = false, .plan_index = 1});
  cache.Insert(key(f.refuted), {.valid = true, .plan_index = 2});

  const PsiQueryResult result = engine.Evaluate(f.q);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.num_candidates, 3u);
  EXPECT_EQ(result.valid_nodes, std::vector<graph::NodeId>{f.valid});
  EXPECT_EQ(result.cache_hits, 2u);
  EXPECT_EQ(result.num_training_nodes, 0u);
  EXPECT_EQ(result.method_recoveries, 2u);
  EXPECT_EQ(result.plan_fallbacks, 1u);

  // What the pessimist on the heuristic plan takes, measured directly.
  match::PsiEvaluator evaluator(f.g, sigs);
  const QueryContext ctx = PrepareQuery(f.g, sigs, f.q);
  evaluator.BindQuery(f.q, ctx.query_sigs,
                      match::MakeHeuristicPlan(f.q, f.g, f.q.pivot()));
  match::PsiEvaluator::Options pessimist;
  pessimist.mode = match::PsiMode::kPessimistic;
  ASSERT_EQ(evaluator.EvaluateNode(f.trap, pessimist),
            match::Outcome::kInvalid);
  const uint64_t trap_steps = evaluator.steps();
  ASSERT_EQ(evaluator.EvaluateNode(f.refuted, pessimist),
            match::Outcome::kInvalid);
  ASSERT_EQ(evaluator.steps(), 1u);  // the pivot check

  const auto trap = cache.Lookup(key(f.trap));
  ASSERT_TRUE(trap.has_value());
  EXPECT_FALSE(trap->valid);
  EXPECT_EQ(trap->plan_index, 0u);
  EXPECT_EQ(trap->steps, trap_steps);
  const auto refuted = cache.Lookup(key(f.refuted));
  ASSERT_TRUE(refuted.has_value());
  EXPECT_FALSE(refuted->valid);
  EXPECT_EQ(refuted->plan_index, 2u);
  EXPECT_EQ(refuted->steps, 1u);
  // The valid node ran model-free, which is never cached.
  EXPECT_FALSE(cache.Lookup(key(f.valid)).has_value());

  // Steered by the confirmed decisions, nothing needs recovering.
  const PsiQueryResult again = engine.Evaluate(f.q);
  EXPECT_TRUE(again.complete);
  EXPECT_EQ(again.valid_nodes, result.valid_nodes);
  EXPECT_EQ(again.method_recoveries, 0u);
  EXPECT_EQ(again.plan_fallbacks, 0u);
}

// Every decision the Realist makes counts search steps, so a busy host
// changes no answer and no count: two fresh engines evaluate one query
// sequence, one of them while other threads keep the cores busy, and agree
// on everything but the seconds.
TEST(SmartPsiTest, DecisionsDoNotDependOnHostLoad) {
  const graph::Graph g = psi::testing::MakeRandomGraph(1500, 9000, 3, 81);
  std::vector<graph::QueryGraph> queries;
  for (uint64_t s = 0; queries.size() < 20; ++s) {
    graph::QueryGraph q = psi::testing::ExtractQuery(g, 4 + s % 3, 900 + s);
    if (q.num_nodes() >= 4) queries.push_back(std::move(q));
  }
  SmartPsiConfig config;
  config.min_candidates_for_ml = 8;
  config.num_threads = 1;
  const auto run_all = [&]() {
    SmartPsiEngine engine(g, config);
    std::vector<PsiQueryResult> results;
    for (const graph::QueryGraph& q : queries) {
      results.push_back(engine.Evaluate(q));
    }
    return results;
  };
  const std::vector<PsiQueryResult> quiet = run_all();
  std::atomic<bool> done{false};
  std::vector<std::thread> spinners;
  for (int i = 0; i < 2; ++i) {
    spinners.emplace_back([&done]() {
      while (!done.load(std::memory_order_relaxed)) {
      }
    });
  }
  const std::vector<PsiQueryResult> busy = run_all();
  done.store(true);
  for (std::thread& t : spinners) t.join();

  const auto counts = [](const PsiQueryResult& r) {
    const match::SearchStats& s = r.search;
    return std::make_tuple(r.complete, r.valid_nodes, s.recursive_calls,
                           s.candidates_examined, s.signature_checks,
                           s.pruned_by_signature, s.score_sorts,
                           r.method_recoveries, r.plan_fallbacks,
                           r.num_training_nodes, r.cache_hits,
                           r.alpha_predictions, r.alpha_correct);
  };
  size_t trained = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(counts(quiet[i]), counts(busy[i])) << "query " << i;
    trained += quiet[i].num_training_nodes > 0 ? 1 : 0;
  }
  EXPECT_GT(trained, 5u);
}

// The sample draw is a ceiling and kMinTrainingNodes a floor. A fitted run
// trains at most ceil(train_fraction × misses) and at most kMaxTrainNodes
// nodes, and at least min(kMinTrainingNodes, that ceiling). A fresh engine
// misses on every candidate.
TEST(SmartPsiTest, TrainingSampleStaysBetweenMinimumAndCeiling) {
  const graph::Graph g = psi::testing::MakeRandomGraph(600, 2000, 2, 73);
  size_t fitted = 0;
  size_t at_floor = 0;
  for (const double fraction : {0.1, 0.5, 1.0, 0.01}) {
    for (uint64_t s = 0; s < 4; ++s) {
      SmartPsiConfig config;
      config.min_candidates_for_ml = 8;
      config.train_fraction = fraction;
      SmartPsiEngine engine(g, config);
      const graph::QueryGraph q = psi::testing::ExtractQuery(g, 3, 500 + s);
      const PsiQueryResult r = engine.Evaluate(q);
      ASSERT_TRUE(r.complete);
      if (r.num_candidates < config.min_candidates_for_ml) {
        EXPECT_EQ(r.num_training_nodes, 0u);
        continue;
      }
      ++fitted;
      const size_t ceiling = std::min(
          SmartPsiEngine::kMaxTrainNodes,
          static_cast<size_t>(std::ceil(
              fraction * static_cast<double>(r.num_candidates))));
      const size_t floor =
          std::min(SmartPsiEngine::kMinTrainingNodes, ceiling);
      EXPECT_LE(r.num_training_nodes, ceiling) << fraction;
      EXPECT_GE(r.num_training_nodes, floor) << fraction;
      if (ceiling <= SmartPsiEngine::kMinTrainingNodes) {
        // The budget is first checked after the floor: nothing stops early.
        EXPECT_EQ(r.num_training_nodes, ceiling);
        ++at_floor;
      }
    }
  }
  EXPECT_GT(fitted, 8u);
  EXPECT_GT(at_floor, 0u);
}

TEST(SmartPsiTest, DeterministicAcrossRunsWithSameSeed) {
  const graph::Graph g = psi::testing::MakeRandomGraph(500, 1600, 3, 77);
  graph::QueryExtractor extractor(g);
  util::Rng rng(78);
  const graph::QueryGraph q = extractor.Extract(4, rng);
  ASSERT_EQ(q.num_nodes(), 4u);
  SmartPsiConfig config;
  config.min_candidates_for_ml = 8;
  SmartPsiEngine engine1(g, config);
  SmartPsiEngine engine2(g, config);
  EXPECT_EQ(engine1.Evaluate(q).valid_nodes, engine2.Evaluate(q).valid_nodes);
}

}  // namespace
}  // namespace psi::core
