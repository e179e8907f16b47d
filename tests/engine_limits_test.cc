// Deadline / stop-token / truncation behaviour across all enumeration
// engines, plus SearchStats aggregation semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "graph/query_extractor.h"
#include "match/cfl_match.h"
#include "match/engine.h"
#include "match/psi_evaluator.h"
#include "match/subgraph_enumerator.h"
#include "match/turbo_iso.h"
#include "match/ullmann.h"
#include "match/vf2.h"
#include "tests/test_fixtures.h"

namespace psi::match {
namespace {

/// A query whose enumeration is large enough that every engine must hit
/// its periodic deadline poll.
graph::QueryGraph HeavyQuery() {
  graph::QueryGraph q;
  graph::NodeId prev = q.AddNode(0);
  q.set_pivot(prev);
  for (int i = 1; i < 5; ++i) {
    const graph::NodeId next = q.AddNode(0);
    q.AddEdge(prev, next);
    prev = next;
  }
  return q;
}

class EngineLimitsTest : public ::testing::Test {
 protected:
  EngineLimitsTest()
      : g_(psi::testing::MakeRandomGraph(500, 3500, 2, 71)),
        q_(HeavyQuery()) {}

  graph::Graph g_;
  graph::QueryGraph q_;
};

template <typename Engine>
void ExpectDeadlineCensors(const graph::Graph& g,
                           const graph::QueryGraph& q) {
  Engine engine(g);
  MatchingEngine::Options options;
  options.deadline = util::Deadline::After(-1.0);
  const auto result = engine.Enumerate(q, nullptr, options);
  EXPECT_FALSE(result.complete);
}

TEST_F(EngineLimitsTest, BasicDeadline) {
  ExpectDeadlineCensors<BasicEngine>(g_, q_);
}
TEST_F(EngineLimitsTest, TurboIsoDeadline) {
  ExpectDeadlineCensors<TurboIsoEngine>(g_, q_);
}
TEST_F(EngineLimitsTest, CflMatchDeadline) {
  ExpectDeadlineCensors<CflMatchEngine>(g_, q_);
}
TEST_F(EngineLimitsTest, UllmannDeadline) {
  ExpectDeadlineCensors<UllmannEngine>(g_, q_);
}
TEST_F(EngineLimitsTest, Vf2Deadline) {
  ExpectDeadlineCensors<Vf2Engine>(g_, q_);
}

TEST_F(EngineLimitsTest, TurboIsoPlusDeadline) {
  TurboIsoEngine engine(g_);
  MatchingEngine::Options options;
  options.deadline = util::Deadline::After(-1.0);
  const auto psi = engine.EvaluatePsi(q_, options);
  EXPECT_FALSE(psi.complete);
}

template <typename Engine>
void ExpectMaxEmbeddingsTruncates(const graph::Graph& g,
                                  const graph::QueryGraph& q) {
  Engine engine(g);
  MatchingEngine::Options options;
  options.max_embeddings = 5;
  const auto result = engine.Enumerate(q, nullptr, options);
  EXPECT_EQ(result.embedding_count, 5u);
  EXPECT_FALSE(result.complete);
}

TEST_F(EngineLimitsTest, MaxEmbeddingsAcrossEngines) {
  ExpectMaxEmbeddingsTruncates<BasicEngine>(g_, q_);
  ExpectMaxEmbeddingsTruncates<TurboIsoEngine>(g_, q_);
  ExpectMaxEmbeddingsTruncates<CflMatchEngine>(g_, q_);
  ExpectMaxEmbeddingsTruncates<UllmannEngine>(g_, q_);
  ExpectMaxEmbeddingsTruncates<Vf2Engine>(g_, q_);
}

// ProjectPivot's `complete` flag is truthful both ways: a run without
// limits reports complete and returns exactly the pivot images a visitor
// over Enumerate sees; an expired deadline censors the run as incomplete
// and leaves a subset of the true answer.
TEST_F(EngineLimitsTest, ProjectPivotCompleteFlagIsTruthful) {
  SubgraphEnumerator enumerator(g_);
  const Plan plan = MakeHeuristicPlan(q_, g_, q_.pivot());

  std::vector<graph::NodeId> visited;
  SubgraphEnumerator::Options plain;
  enumerator.Enumerate(
      q_, plan,
      [&](std::span<const graph::NodeId> mapping) {
        visited.push_back(mapping[q_.pivot()]);
        return true;
      },
      plain);
  std::sort(visited.begin(), visited.end());
  visited.erase(std::unique(visited.begin(), visited.end()), visited.end());

  const auto exact = enumerator.ProjectPivot(q_, plan, plain);
  EXPECT_TRUE(exact.complete);
  EXPECT_EQ(exact.pivot_matches, visited);

  SubgraphEnumerator::Options doomed;
  doomed.deadline = util::Deadline::After(-1.0);
  const auto censored = enumerator.ProjectPivot(q_, plan, doomed);
  EXPECT_FALSE(censored.complete);
  EXPECT_TRUE(std::includes(visited.begin(), visited.end(),
                            censored.pivot_matches.begin(),
                            censored.pivot_matches.end()));
}

TEST_F(EngineLimitsTest, StopTokenCancelsEnumeration) {
  util::StopSource source;
  source.RequestStop();
  BasicEngine engine(g_);
  MatchingEngine::Options options;
  options.stop = util::StopToken(&source);
  const auto result = engine.Enumerate(q_, nullptr, options);
  EXPECT_FALSE(result.complete);
}

TEST(SearchStatsTest, AggregationSumsAllCounters) {
  SearchStats a;
  a.recursive_calls = 1;
  a.candidates_examined = 2;
  a.signature_checks = 3;
  a.pruned_by_signature = 4;
  a.score_sorts = 5;
  a.embeddings_found = 6;
  a.work_steals = 7;
  SearchStats b = a;
  b += a;
  EXPECT_EQ(b.recursive_calls, 2u);
  EXPECT_EQ(b.candidates_examined, 4u);
  EXPECT_EQ(b.signature_checks, 6u);
  EXPECT_EQ(b.pruned_by_signature, 8u);
  EXPECT_EQ(b.score_sorts, 10u);
  EXPECT_EQ(b.embeddings_found, 12u);
  EXPECT_EQ(b.work_steals, 14u);
}

}  // namespace
}  // namespace psi::match
