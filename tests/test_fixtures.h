#ifndef SMARTPSI_TESTS_TEST_FIXTURES_H_
#define SMARTPSI_TESTS_TEST_FIXTURES_H_

#include <cstdint>
#include <cstdlib>
#include <ostream>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "graph/query_extractor.h"
#include "graph/query_graph.h"
#include "service/request.h"
#include "util/random.h"

namespace psi::testing {

/// Seed for randomized tests: `base_seed` by default, overridden globally
/// by the PSI_TEST_SEED environment variable. Every randomized suite
/// derives its RNGs from this (never std::random_device) so any failure
/// replays exactly with `PSI_TEST_SEED=<seed> ./the_test`. `salt` keeps
/// tests within one binary decorrelated under the same override.
inline uint64_t TestSeed(uint64_t base_seed, uint64_t salt = 0) {
  if (const char* env = std::getenv("PSI_TEST_SEED")) {
    char* end = nullptr;
    const uint64_t parsed = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0') {
      return parsed ^ (salt * 0x9e3779b97f4a7c15ULL);
    }
  }
  return base_seed ^ (salt * 0x9e3779b97f4a7c15ULL);
}

/// Annotates every assertion in scope with the seed that produced the
/// failure, so the log line alone is enough to replay:
///   const uint64_t seed = psi::testing::TestSeed(42);
///   PSI_LOG_TEST_SEED(seed);
#define PSI_LOG_TEST_SEED(seed)                                       \
  SCOPED_TRACE(::testing::Message()                                   \
               << "replay with PSI_TEST_SEED=" << (seed))

// Labels used by the paper's running examples.
inline constexpr graph::Label kA = 0;
inline constexpr graph::Label kB = 1;
inline constexpr graph::Label kC = 2;
inline constexpr graph::Label kD = 3;

/// The data graph of paper Figure 1(b):
///   u1(A)–u2(B), u1–u3(C), u1–u4(C), u1–u5(B),
///   u2–u3, u2–u4, u5–u3, u5–u4, u6(A)–u3, u6–u5.
/// Node ids here are zero-based: u1 -> 0, ..., u6 -> 5.
inline graph::Graph MakeFigure1Graph() {
  graph::GraphBuilder b;
  const graph::NodeId u1 = b.AddNode(kA);
  const graph::NodeId u2 = b.AddNode(kB);
  const graph::NodeId u3 = b.AddNode(kC);
  const graph::NodeId u4 = b.AddNode(kC);
  const graph::NodeId u5 = b.AddNode(kB);
  const graph::NodeId u6 = b.AddNode(kA);
  b.AddEdge(u1, u2);
  b.AddEdge(u1, u3);
  b.AddEdge(u1, u4);
  b.AddEdge(u1, u5);
  b.AddEdge(u2, u3);
  b.AddEdge(u2, u4);
  b.AddEdge(u5, u3);
  b.AddEdge(u5, u4);
  b.AddEdge(u6, u3);
  b.AddEdge(u6, u5);
  return std::move(b).Build();
}

/// The triangle query S(v1, v2, v3) of Figure 1(a): v1(A)–v2(B)–v3(C)–v1,
/// pivot v1. Its PSI answer on MakeFigure1Graph() is {u1, u6} = ids {0, 5}.
inline graph::QueryGraph MakeFigure1Query() {
  graph::QueryGraph q;
  const graph::NodeId v1 = q.AddNode(kA);
  const graph::NodeId v2 = q.AddNode(kB);
  const graph::NodeId v3 = q.AddNode(kC);
  q.AddEdge(v1, v2);
  q.AddEdge(v2, v3);
  q.AddEdge(v1, v3);
  q.set_pivot(v1);
  return q;
}

/// The query of paper Figure 2(a) / §3.1's matrix example:
///   v0(A)–v1(B), v1–v2(B), v1–v3(C), v2–v3, v3–v4(D).
/// Its matrix signatures NS^1 / NS^2 are printed in the paper and are
/// asserted exactly in signature_test.cc.
inline graph::QueryGraph MakeFigure2Query() {
  graph::QueryGraph q;
  const graph::NodeId v0 = q.AddNode(kA);
  const graph::NodeId v1 = q.AddNode(kB);
  const graph::NodeId v2 = q.AddNode(kB);
  const graph::NodeId v3 = q.AddNode(kC);
  const graph::NodeId v4 = q.AddNode(kD);
  q.AddEdge(v0, v1);
  q.AddEdge(v1, v2);
  q.AddEdge(v1, v3);
  q.AddEdge(v2, v3);
  q.AddEdge(v3, v4);
  q.set_pivot(v1);
  return q;
}

/// Small labeled random graph for property tests (deterministic in `seed`).
inline graph::Graph MakeRandomGraph(size_t nodes, size_t edges,
                                    size_t num_labels, uint64_t seed) {
  util::Rng rng(seed);
  graph::LabelConfig labels;
  labels.num_labels = num_labels;
  labels.zipf_exponent = 0.6;
  return graph::ErdosRenyi(nodes, edges, labels, rng);
}

/// The extract-a-connected-query idiom most randomized suites repeat:
/// random walk extraction from `g`, deterministic in `seed`. Returns a
/// query with fewer than `query_size` nodes when extraction fails (callers
/// GTEST_SKIP on that, matching QueryExtractor's contract).
inline graph::QueryGraph ExtractQuery(const graph::Graph& g, size_t query_size,
                                      uint64_t seed) {
  graph::QueryExtractor extractor(g);
  util::Rng rng(seed);
  return extractor.Extract(query_size, rng);
}

/// A single-node pivot query: matches every data node with `label`.
/// The simplest fixture that exercises the full service path.
inline graph::QueryGraph MakeSingleNodeQuery(graph::Label label) {
  graph::QueryGraph q;
  q.set_pivot(q.AddNode(label));
  return q;
}

/// A labeled path query v0–v1–…–v(k-1) with the pivot at one end.
inline graph::QueryGraph MakePathQuery(const std::vector<graph::Label>& labels) {
  graph::QueryGraph q;
  for (const graph::Label l : labels) q.AddNode(l);
  for (graph::NodeId v = 0; v + 1 < q.num_nodes(); ++v) {
    q.AddEdge(v, v + 1);
  }
  q.set_pivot(0);
  return q;
}

/// The standard chaos schedule for tests: every engine-side fault site
/// armed deterministically (fail-every-K with coprime periods, so firings
/// interleave rather than align). Use with ScopedFaultSpec:
///   util::ScopedFaultSpec chaos(psi::testing::MakeChaosSchedule());
/// IO short-read sites are intentionally absent — they make loads fail by
/// design and belong in the io_fuzz suite, not under differential runs.
inline std::string MakeChaosSchedule() {
  return "cache.lookup.miss=every:3,"
         "cache.lookup.poison=every:5,"
         "smart.predict.flip=every:4,"
         "smart.plan.mispredict=every:7,"
         "smart.preempt.expire=every:6,"
         "threadpool.task.start=prob:0.05:13@0.2";
}

}  // namespace psi::testing

namespace psi::service {

/// Prints the status name, so a failed test comparison reads `timeout`
/// rather than a byte dump of the enum (gtest finds it by argument-
/// dependent lookup). Every test that compares statuses includes this
/// header, so all of them print statuses the same way.
inline void PrintTo(RequestStatus s, std::ostream* os) {
  *os << RequestStatusName(s);
}

}  // namespace psi::service

#endif  // SMARTPSI_TESTS_TEST_FIXTURES_H_
