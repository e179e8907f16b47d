// Differential correctness harness (DESIGN.md §11): every evaluation path
// in the repository — the Realist (SmartPSI), both pure single-method
// drivers, and all four enumeration engines — must produce the exact pivot
// set that brute-force enumerate-and-project produces, on the same inputs.
// Each comparison then runs again under the standard chaos schedule: an
// injected fault may change counters and latency, never the answer. In
// injection-OFF builds the chaos pass degenerates to a repeat run, which
// keeps the suite meaningful in both configurations.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/pure_drivers.h"
#include "core/smart_psi.h"
#include "match/cfl_match.h"
#include "match/engine.h"
#include "match/turbo_iso.h"
#include "match/ullmann.h"
#include "match/vf2.h"
#include "signature/builders.h"
#include "tests/test_fixtures.h"
#include "util/fault_injection.h"

namespace psi {
namespace {

using DifferentialParam = std::tuple<uint64_t /*seed*/, size_t /*query size*/>;

class DifferentialTest : public ::testing::TestWithParam<DifferentialParam> {
 protected:
  void SetUp() override { util::FaultInjector::Global().DisarmAll(); }
  void TearDown() override { util::FaultInjector::Global().DisarmAll(); }
};

/// One full sweep: evaluates `q` on `g` through every path and checks each
/// against the brute-force oracle. `context` labels the pass (bare/chaos).
void ExpectAllPathsMatchOracle(const graph::Graph& g,
                               const graph::QueryGraph& q,
                               uint64_t seed, const std::string& context) {
  SCOPED_TRACE(context);

  match::BasicEngine basic(g);
  const auto truth = basic.ProjectPivot(q, match::MatchingEngine::Options());
  ASSERT_TRUE(truth.complete);
  const std::vector<graph::NodeId>& oracle = truth.pivot_matches;

  // The Realist, with the ML pipeline forced on so the models, the plan
  // pool, the preemptive executor and the prediction cache all execute.
  core::SmartPsiConfig config;
  config.min_candidates_for_ml = 4;
  config.seed = seed;
  core::SmartPsiEngine smart(g, config);
  const core::PsiQueryResult smart_result = smart.Evaluate(q);
  ASSERT_TRUE(smart_result.complete);
  EXPECT_EQ(smart_result.valid_nodes, oracle) << "smart";

  // Both pure single-method drivers.
  const auto gs = signature::BuildSignatures(
      g, signature::Method::kMatrix, 2, g.num_labels());
  for (const core::PureStrategy strategy :
       {core::PureStrategy::kOptimistic, core::PureStrategy::kPessimistic}) {
    core::PureDriverOptions pure;
    pure.strategy = strategy;
    const core::PureDriverResult result = core::EvaluatePure(g, gs, q, pure);
    ASSERT_TRUE(result.complete);
    EXPECT_EQ(result.valid_nodes, oracle)
        << (strategy == core::PureStrategy::kOptimistic ? "optimistic"
                                                        : "pessimistic");
  }

  // The pessimistic driver on work-stealing parallel search. Complete runs
  // are bit-identical to the oracle regardless of thread count or schedule.
  for (const size_t threads : {2u, 4u}) {
    core::PureDriverOptions pure;
    pure.strategy = core::PureStrategy::kPessimistic;
    pure.search_threads = threads;
    const core::PureDriverResult result = core::EvaluatePure(g, gs, q, pure);
    ASSERT_TRUE(result.complete) << "pessimistic-parallel" << threads;
    EXPECT_EQ(result.valid_nodes, oracle) << "pessimistic-parallel" << threads;
  }

  // Every enumeration engine, via pivot projection.
  match::TurboIsoEngine turbo(g);
  EXPECT_EQ(
      turbo.ProjectPivot(q, match::MatchingEngine::Options()).pivot_matches,
      oracle)
      << "turboiso";
  EXPECT_EQ(turbo.EvaluatePsi(q, match::MatchingEngine::Options()).valid_nodes,
            oracle)
      << "turboiso-psi";
  match::CflMatchEngine cfl(g);
  EXPECT_EQ(cfl.ProjectPivot(q, match::MatchingEngine::Options()).pivot_matches,
            oracle)
      << "cfl";
  match::UllmannEngine ullmann(g);
  EXPECT_EQ(
      ullmann.ProjectPivot(q, match::MatchingEngine::Options()).pivot_matches,
      oracle)
      << "ullmann";
  match::Vf2Engine vf2(g);
  EXPECT_EQ(vf2.ProjectPivot(q, match::MatchingEngine::Options()).pivot_matches,
            oracle)
      << "vf2";
}

TEST_P(DifferentialTest, EveryPathMatchesBruteForceWithAndWithoutFaults) {
  const auto [base_seed, query_size] = GetParam();
  const uint64_t seed = psi::testing::TestSeed(base_seed, query_size);
  PSI_LOG_TEST_SEED(seed);

  const graph::Graph g = psi::testing::MakeRandomGraph(220, 700, 3, seed);
  const graph::QueryGraph q =
      psi::testing::ExtractQuery(g, query_size, seed * 7919 + 3);
  if (q.num_nodes() != query_size) GTEST_SKIP() << "extraction failed";

  ExpectAllPathsMatchOracle(g, q, seed, "bare");
  {
    util::ScopedFaultSpec chaos(psi::testing::MakeChaosSchedule());
    ExpectAllPathsMatchOracle(g, q, seed, "chaos");
  }
}

// smart-warm: the Realist's cache-first path. The second evaluation of a
// query on one engine runs its candidates' cached decisions (and fits
// models only for what the cache misses); it must still match the oracle,
// bare and under the chaos schedule, whose cache.lookup.poison hands back
// flipped decisions and smart.predict.flip flips predictions.
TEST_P(DifferentialTest, WarmRealistMatchesBruteForce) {
  const auto [base_seed, query_size] = GetParam();
  const uint64_t seed = psi::testing::TestSeed(base_seed, query_size);
  PSI_LOG_TEST_SEED(seed);

  const graph::Graph g = psi::testing::MakeRandomGraph(220, 700, 3, seed);
  const graph::QueryGraph q =
      psi::testing::ExtractQuery(g, query_size, seed * 7919 + 3);
  if (q.num_nodes() != query_size) GTEST_SKIP() << "extraction failed";
  match::BasicEngine basic(g);
  const auto truth = basic.ProjectPivot(q, match::MatchingEngine::Options());
  ASSERT_TRUE(truth.complete);

  const auto warm_sweep = [&](const std::string& context) {
    SCOPED_TRACE(context);
    core::SmartPsiConfig config;
    config.min_candidates_for_ml = 4;
    config.seed = seed;
    core::SmartPsiEngine smart(g, config);
    const core::PsiQueryResult cold = smart.Evaluate(q);
    ASSERT_TRUE(cold.complete);
    const core::PsiQueryResult warm = smart.Evaluate(q);
    ASSERT_TRUE(warm.complete);
    EXPECT_EQ(warm.valid_nodes, truth.pivot_matches) << "smart-warm";
  };
  warm_sweep("bare");
  {
    util::ScopedFaultSpec chaos(psi::testing::MakeChaosSchedule());
    warm_sweep("chaos");
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, DifferentialTest,
    ::testing::Combine(::testing::Values(11, 23, 37, 41, 53),
                       ::testing::Values(3, 4, 5)));

// Determinism of the parallel search (DESIGN.md §14): the work-stealing
// schedule varies run to run, but per-candidate work is schedule-independent
// and the merge is canonical, so every thread count must return the exact
// byte sequence the sequential driver returns.
TEST_P(DifferentialTest, ParallelSearchIsBitIdenticalToSequential) {
  const auto [base_seed, query_size] = GetParam();
  const uint64_t seed = psi::testing::TestSeed(base_seed, query_size);
  PSI_LOG_TEST_SEED(seed);

  const graph::Graph g = psi::testing::MakeRandomGraph(220, 700, 3, seed);
  const graph::QueryGraph q =
      psi::testing::ExtractQuery(g, query_size, seed * 7919 + 3);
  if (q.num_nodes() != query_size) GTEST_SKIP() << "extraction failed";
  const auto gs = signature::BuildSignatures(
      g, signature::Method::kMatrix, 2, g.num_labels());

  core::PureDriverOptions sequential;
  sequential.strategy = core::PureStrategy::kPessimistic;
  const auto reference = core::EvaluatePure(g, gs, q, sequential);
  ASSERT_TRUE(reference.complete);

  for (const size_t threads : {2u, 3u, 4u, 8u}) {
    core::PureDriverOptions parallel = sequential;
    parallel.search_threads = threads;
    // Two runs per config: schedule jitter across repeats must not show.
    for (int repeat = 0; repeat < 2; ++repeat) {
      const auto result = core::EvaluatePure(g, gs, q, parallel);
      ASSERT_TRUE(result.complete);
      EXPECT_EQ(result.valid_nodes, reference.valid_nodes)
          << "threads=" << threads << " repeat=" << repeat;
    }
  }
}

// The stop condition (PureDriverOptions::max_valid_nodes, the FSM support
// probe's limit): a complete answer under a limit k is a sorted,
// duplicate-free subset of the oracle of size min(k, |oracle|), and the
// sequential loop returns the k smallest. Every k around |oracle| is
// tried, so a limit that stops one node early or one node late fails.
void ExpectLimitedAnswersMatchOracle(const graph::Graph& g,
                                     const signature::SignatureMatrix& gs,
                                     const graph::QueryGraph& q,
                                     const std::vector<graph::NodeId>& oracle,
                                     const std::string& context) {
  SCOPED_TRACE(context);
  const size_t n = oracle.size();
  std::vector<size_t> limits = {1, 2, 3, n / 2, n, n + 1};
  if (n > 0) limits.push_back(n - 1);
  std::sort(limits.begin(), limits.end());
  limits.erase(std::unique(limits.begin(), limits.end()), limits.end());
  if (limits.front() == 0) limits.erase(limits.begin());  // 0 = no limit
  for (const core::PureStrategy strategy :
       {core::PureStrategy::kOptimistic, core::PureStrategy::kPessimistic}) {
    for (const size_t threads : {1u, 2u, 4u}) {
      for (const size_t k : limits) {
        SCOPED_TRACE(::testing::Message()
                     << (strategy == core::PureStrategy::kOptimistic
                             ? "optimistic"
                             : "pessimistic")
                     << " threads=" << threads << " k=" << k
                     << " |oracle|=" << n);
        core::PureDriverOptions pure;
        pure.strategy = strategy;
        pure.search_threads = threads;
        pure.max_valid_nodes = k;
        const core::PureDriverResult result =
            core::EvaluatePure(g, gs, q, pure);
        ASSERT_TRUE(result.complete);
        const std::vector<graph::NodeId>& got = result.valid_nodes;
        EXPECT_EQ(got.size(), std::min(k, n));
        EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
        EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end());
        EXPECT_TRUE(std::includes(oracle.begin(), oracle.end(), got.begin(),
                                  got.end()));
        if (threads == 1) {
          const std::vector<graph::NodeId> smallest(
              oracle.begin(), oracle.begin() + std::min(k, n));
          EXPECT_EQ(got, smallest);
        }
      }
    }
  }
}

TEST_P(DifferentialTest, LimitedAnswersAreOracleSubsetsWithAndWithoutFaults) {
  const auto [base_seed, query_size] = GetParam();
  const uint64_t seed = psi::testing::TestSeed(base_seed, query_size * 31);
  PSI_LOG_TEST_SEED(seed);

  const graph::Graph g = psi::testing::MakeRandomGraph(220, 700, 3, seed);
  const graph::QueryGraph q =
      psi::testing::ExtractQuery(g, query_size, seed * 7919 + 3);
  if (q.num_nodes() != query_size) GTEST_SKIP() << "extraction failed";
  const auto gs = signature::BuildSignatures(
      g, signature::Method::kMatrix, 2, g.num_labels());
  match::BasicEngine basic(g);
  const auto truth = basic.ProjectPivot(q, match::MatchingEngine::Options());
  ASSERT_TRUE(truth.complete);

  ExpectLimitedAnswersMatchOracle(g, gs, q, truth.pivot_matches, "bare");
  util::ScopedFaultSpec chaos(psi::testing::MakeChaosSchedule());
  ExpectLimitedAnswersMatchOracle(g, gs, q, truth.pivot_matches, "chaos");
}

// Compact quantized signatures (DESIGN.md §16.1) are an acceleration
// cache, never a semantics change: the pure drivers with a compact
// companion attached must return byte-identical pivot sets to the same
// drivers on the float-only matrix, bare and under the chaos schedule.
TEST_P(DifferentialTest, CompactPrescreenLeavesPureDriverAnswersUnchanged) {
  const auto [base_seed, query_size] = GetParam();
  const uint64_t seed = psi::testing::TestSeed(base_seed, query_size * 977);
  PSI_LOG_TEST_SEED(seed);

  const graph::Graph g = psi::testing::MakeRandomGraph(220, 700, 3, seed);
  const graph::QueryGraph q =
      psi::testing::ExtractQuery(g, query_size, seed * 7919 + 3);
  if (q.num_nodes() != query_size) GTEST_SKIP() << "extraction failed";

  for (const auto method :
       {signature::Method::kExploration, signature::Method::kMatrix}) {
    signature::SignatureMatrix with_compact =
        signature::BuildSignatures(g, method, 2, g.num_labels());
    const signature::SignatureMatrix float_only = with_compact;
    with_compact.BuildCompact();
    ASSERT_NE(with_compact.compact(), nullptr);

    const auto sweep = [&](const std::string& context) {
      SCOPED_TRACE(context);
      for (const core::PureStrategy strategy :
           {core::PureStrategy::kOptimistic,
            core::PureStrategy::kPessimistic}) {
        core::PureDriverOptions pure;
        pure.strategy = strategy;
        const auto expected = core::EvaluatePure(g, float_only, q, pure);
        const auto actual = core::EvaluatePure(g, with_compact, q, pure);
        ASSERT_TRUE(expected.complete);
        ASSERT_TRUE(actual.complete);
        EXPECT_EQ(actual.valid_nodes, expected.valid_nodes)
            << "method " << static_cast<int>(method) << " strategy "
            << static_cast<int>(strategy);
      }
    };
    sweep("bare");
    {
      util::ScopedFaultSpec chaos(psi::testing::MakeChaosSchedule());
      sweep("chaos");
    }
  }
}

// The paper's running example, pinned: no skip path, every engine, chaos on
// top. If the randomized sweep ever regresses silently (extraction skips),
// this one still bites.
TEST_F(DifferentialTest, Figure1AgreesEverywhereUnderChaos) {
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  const graph::QueryGraph q = psi::testing::MakeFigure1Query();
  ExpectAllPathsMatchOracle(g, q, /*seed=*/1, "bare");
  util::ScopedFaultSpec chaos(psi::testing::MakeChaosSchedule());
  ExpectAllPathsMatchOracle(g, q, /*seed=*/1, "chaos");

  match::BasicEngine basic(g);
  EXPECT_EQ(basic.ProjectPivot(q, match::MatchingEngine::Options())
                .pivot_matches,
            (std::vector<graph::NodeId>{0, 5}));
}

}  // namespace
}  // namespace psi
