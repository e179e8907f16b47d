#include "service/workload.h"

#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph_io.h"
#include "tests/test_fixtures.h"
#include "util/random.h"

namespace psi::service {
namespace {

struct ServeRun {
  int exit_code = -1;
  std::string out;
  std::string err;
};

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Runs psi_serve over the paper's Figure-1 graph with `workload` as its
/// request stream. Files are named after the running test: ctest runs each
/// test in its own process, possibly at the same time.
ServeRun RunServe(const std::string& workload) {
  const std::string stem =
      ::testing::TempDir() + "psi_serve_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  EXPECT_TRUE(
      graph::SaveLgFile(testing::MakeFigure1Graph(), stem + ".lg").ok());
  {
    std::ofstream requests(stem + ".txt");
    requests << workload;
  }
  const std::string command = std::string(PSI_SERVE_BIN) + " " + stem +
                              ".lg --workers 1 --workload " + stem +
                              ".txt >" + stem + ".out 2>" + stem + ".err";
  const int status = std::system(command.c_str());
  ServeRun run;
  if (status != -1 && WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  run.out = Slurp(stem + ".out");
  run.err = Slurp(stem + ".err");
  return run;
}

/// The Figure-1 triangle query as a workload line.
std::string Figure1Line(uint64_t id) {
  QueryRequest request;
  request.id = id;
  request.query = testing::MakeFigure1Query();
  return FormatWorkloadLine(request);
}

TEST(WorkloadParseTest, Figure1TriangleLine) {
  const auto parsed =
      ParseWorkloadLine("v=0,1,2 e=0-1,1-2,0-2 p=0 d=50 m=smart id=9");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const QueryRequest& request = parsed.value();
  EXPECT_EQ(request.id, 9u);
  EXPECT_EQ(request.method, Method::kSmart);
  EXPECT_DOUBLE_EQ(request.deadline_seconds, 0.050);
  EXPECT_EQ(request.query.num_nodes(), 3u);
  EXPECT_EQ(request.query.num_edges(), 3u);
  EXPECT_EQ(request.query.pivot(), 0u);
  EXPECT_EQ(request.query.label(1), 1u);
}

TEST(WorkloadParseTest, TokensInAnyOrderAndDefaults) {
  const auto parsed = ParseWorkloadLine("p=1 v=3,4");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const QueryRequest& request = parsed.value();
  EXPECT_EQ(request.id, 0u);  // service assigns
  EXPECT_EQ(request.method, Method::kSmart);
  EXPECT_EQ(request.deadline_seconds, 0.0);
  EXPECT_EQ(request.query.num_nodes(), 2u);
  EXPECT_EQ(request.query.num_edges(), 0u);
  EXPECT_EQ(request.query.pivot(), 1u);
}

TEST(WorkloadParseTest, EdgeLabels) {
  const auto parsed = ParseWorkloadLine("v=0,0 e=0-1-7 p=0");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto& q = parsed.value().query;
  ASSERT_EQ(q.neighbors(0).size(), 1u);
  EXPECT_EQ(q.neighbors(0)[0].second, 7u);
}

TEST(WorkloadParseTest, RejectsMalformedLines) {
  const char* bad[] = {
      "",                        // no nodes
      "v=0,1",                   // missing pivot
      "v=0,1 p=2",               // pivot out of range
      "v=0,,1 p=0",              // empty label piece
      "v=0,1 e=0-5 p=0",         // edge endpoint out of range
      "v=0,1 e=0-0 p=0",         // self loop
      "v=0,1 e=0 p=0",           // malformed edge
      "v=0,1 p=0 m=psychic",     // unknown method
      "v=0,1 p=0 d=-5",          // negative deadline
      "v=0,1 p=0 z=1",           // unknown key
      "hello",                   // not key=value
  };
  for (const char* line : bad) {
    EXPECT_FALSE(ParseWorkloadLine(line).ok()) << "accepted: " << line;
  }
}

TEST(WorkloadParseTest, FormatParseRoundTrip) {
  QueryRequest request;
  request.id = 42;
  request.query = testing::MakeFigure2Query();
  request.deadline_seconds = 0.125;
  request.method = Method::kPessimistic;

  const std::string line = FormatWorkloadLine(request);
  const auto reparsed = ParseWorkloadLine(line);
  ASSERT_TRUE(reparsed.ok()) << line << " -> " << reparsed.status().ToString();
  const QueryRequest& back = reparsed.value();
  EXPECT_EQ(back.id, request.id);
  EXPECT_EQ(back.method, request.method);
  EXPECT_DOUBLE_EQ(back.deadline_seconds, request.deadline_seconds);
  EXPECT_EQ(back.query.num_nodes(), request.query.num_nodes());
  EXPECT_EQ(back.query.num_edges(), request.query.num_edges());
  EXPECT_EQ(back.query.pivot(), request.query.pivot());
  EXPECT_EQ(back.query.Fingerprint(), request.query.Fingerprint());
}

// Property test: FormatWorkloadLine and ParseWorkloadLine are exact
// inverses over randomized requests — every optional token (d=, m=, id=,
// g=), edge labels, and token order included. Deadlines are drawn on a
// quarter-millisecond grid so the float text round-trips exactly.
TEST(WorkloadPropertyTest, FormatParseRoundTripsRandomizedRequests) {
  const uint64_t seed = testing::TestSeed(0x9041d);
  PSI_LOG_TEST_SEED(seed);
  util::Rng rng(seed);
  const char* graph_names[] = {"", "default", "social", "snapshot-2"};

  for (int iter = 0; iter < 300; ++iter) {
    QueryRequest request;
    const size_t n = 1 + rng.NextBounded(6);
    for (size_t v = 0; v < n; ++v) {
      request.query.AddNode(static_cast<graph::Label>(rng.NextBounded(10)));
    }
    for (size_t u = 0; u < n; ++u) {
      for (size_t v = u + 1; v < n; ++v) {
        if (rng.NextDouble() < 0.4) {
          // Mix default (omitted in the text form) and explicit edge labels.
          const graph::Label label =
              rng.NextDouble() < 0.5
                  ? graph::kDefaultEdgeLabel
                  : static_cast<graph::Label>(1 + rng.NextBounded(5));
          request.query.AddEdge(static_cast<graph::NodeId>(u),
                                static_cast<graph::NodeId>(v), label);
        }
      }
    }
    request.query.set_pivot(static_cast<graph::NodeId>(rng.NextBounded(n)));
    if (rng.NextDouble() < 0.5) {
      request.deadline_seconds = (1 + rng.NextBounded(400)) * 0.25e-3;
    }
    const Method methods[] = {Method::kSmart, Method::kOptimistic,
                              Method::kPessimistic};
    request.method = methods[rng.NextBounded(3)];
    if (rng.NextDouble() < 0.5) request.id = 1 + rng.NextBounded(1 << 20);
    request.graph = graph_names[rng.NextBounded(4)];

    const std::string line = FormatWorkloadLine(request);
    const auto reparsed = ParseWorkloadLine(line);
    ASSERT_TRUE(reparsed.ok())
        << line << " -> " << reparsed.status().ToString();
    const QueryRequest& back = reparsed.value();
    EXPECT_EQ(back.id, request.id) << line;
    EXPECT_EQ(back.method, request.method) << line;
    EXPECT_EQ(back.graph, request.graph) << line;
    EXPECT_DOUBLE_EQ(back.deadline_seconds, request.deadline_seconds) << line;
    EXPECT_EQ(back.query.pivot(), request.query.pivot()) << line;
    EXPECT_EQ(back.query.num_edges(), request.query.num_edges()) << line;
    EXPECT_EQ(back.query.Fingerprint(), request.query.Fingerprint()) << line;

    // The format is order-insensitive: a token shuffle parses identically.
    std::vector<std::string> tokens;
    std::istringstream split(line);
    std::string token;
    while (split >> token) tokens.push_back(token);
    for (size_t i = tokens.size(); i > 1; --i) {
      std::swap(tokens[i - 1], tokens[rng.NextBounded(i)]);
    }
    std::string shuffled;
    for (const std::string& t : tokens) {
      if (!shuffled.empty()) shuffled += ' ';
      shuffled += t;
    }
    const auto from_shuffled = ParseWorkloadLine(shuffled);
    ASSERT_TRUE(from_shuffled.ok())
        << shuffled << " -> " << from_shuffled.status().ToString();
    EXPECT_EQ(from_shuffled.value().query.Fingerprint(),
              request.query.Fingerprint())
        << shuffled;
    EXPECT_EQ(from_shuffled.value().graph, request.graph) << shuffled;
  }
}

TEST(WorkloadParseTest, GraphTokenRoundTripsAndRejectsEmpty) {
  const auto parsed = ParseWorkloadLine("v=0,1 e=0-1 p=0 g=social");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().graph, "social");
  EXPECT_NE(FormatWorkloadLine(parsed.value()).find(" g=social"),
            std::string::npos);
  EXPECT_FALSE(ParseWorkloadLine("v=0,1 p=0 g=").ok());
}

// psi_serve reads a workload stream line by line: comments and blank lines
// are skipped, and a malformed line is reported with its 1-based number.
TEST(WorkloadIoTest, ReadSkipsCommentsAndBlankLines) {
  const std::string workload = "# a comment\n\n" + Figure1Line(4) +
                               "\n   # indented comment\n" + Figure1Line(5) +
                               "\n";
  const ServeRun run = RunServe(workload);
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_EQ(std::count(run.out.begin(), run.out.end(), '\n'), 2) << run.out;
  EXPECT_NE(run.out.find("id=4 status=ok valid=2"), std::string::npos)
      << run.out;
  EXPECT_NE(run.out.find("id=5 status=ok valid=2"), std::string::npos)
      << run.out;
}

TEST(WorkloadIoTest, ReadReportsOneBasedLineNumber) {
  const ServeRun run = RunServe(Figure1Line(1) + "\nnot a request\n");
  EXPECT_EQ(run.exit_code, 1) << run.err;
  EXPECT_NE(run.err.find("line 2: "), std::string::npos) << run.err;
  EXPECT_NE(run.out.find("id=1 status=ok valid=2"), std::string::npos)
      << run.out;
}

// Lines written by FormatWorkloadLine are read back by psi_serve with their
// ids, methods and deadlines.
TEST(WorkloadIoTest, WriteReadRoundTrip) {
  QueryRequest a;
  a.id = 1;
  a.query = testing::MakeFigure1Query();
  QueryRequest b = a;
  b.id = 2;
  b.deadline_seconds = 5.0;
  b.method = Method::kOptimistic;
  const ServeRun run = RunServe(FormatWorkloadLine(a) + "\n" +
                                FormatWorkloadLine(b) + "\n");
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("id=1 status=ok valid=2"), std::string::npos)
      << run.out;
  EXPECT_NE(run.out.find("id=2 status=ok valid=2"), std::string::npos)
      << run.out;
}

TEST(ExtractWorkloadTest, RespectsSpecAndAssignsIds) {
  const graph::Graph g = testing::MakeRandomGraph(200, 800, 3, /*seed=*/7);
  WorkloadSpec spec;
  spec.count = 10;
  spec.query_size = 4;
  spec.deadline_ms_min = 10.0;
  spec.deadline_ms_max = 20.0;
  spec.method = Method::kOptimistic;
  util::Rng rng(99);
  const auto requests = ExtractWorkload(g, spec, rng);
  ASSERT_FALSE(requests.empty());
  ASSERT_LE(requests.size(), spec.count);
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(requests[i].id, i + 1);
    EXPECT_EQ(requests[i].method, Method::kOptimistic);
    EXPECT_EQ(requests[i].query.num_nodes(), spec.query_size);
    EXPECT_TRUE(requests[i].query.has_pivot());
    EXPECT_GE(requests[i].deadline_seconds, 0.010);
    EXPECT_LE(requests[i].deadline_seconds, 0.020);
  }
}

TEST(ExtractWorkloadTest, NoDeadlineWhenSpecDisablesIt) {
  const graph::Graph g = testing::MakeRandomGraph(100, 300, 2, /*seed=*/8);
  WorkloadSpec spec;
  spec.count = 3;
  spec.query_size = 3;
  util::Rng rng(100);
  for (const auto& request : ExtractWorkload(g, spec, rng)) {
    EXPECT_EQ(request.deadline_seconds, 0.0);
  }
}

}  // namespace
}  // namespace psi::service
