// Fuzz-style robustness suite for every parser in the repository (DESIGN.md
// §11): malformed, truncated and oversized inputs must come back as error
// Statuses — never a crash, a hang, an unbounded allocation, or a silently
// wrong in-memory object. The CI chaos job runs this binary under
// AddressSanitizer, which turns any parser over-read into a hard failure.

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "graph/graph_io.h"
#include "service/workload.h"
#include "util/fault_injection.h"

namespace psi {
namespace {

// --- .lg graph files -------------------------------------------------------

constexpr char kValidLg[] =
    "# comment\n"
    "t 1\n"
    "v 0 1\n"
    "v 1 2\n"
    "v 2 1\n"
    "e 0 1\n"
    "e 1 2 3\n";

TEST(IoFuzzTest, ValidGraphParses) {
  std::istringstream in(kValidLg);
  const auto result = graph::ReadLg(in);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().num_nodes(), 3u);
  EXPECT_EQ(result.value().num_edges(), 2u);
}

TEST(IoFuzzTest, MalformedGraphInputsErrorCleanly) {
  const char* kBad[] = {
      "v 0\n",                        // vertex missing its label
      "v x y\n",                      // non-numeric fields
      "v 1 0\n",                      // ids must be dense from 0
      "v 0 1\nv 2 1\n",               // gap in the id sequence
      "v 99999999999999999999 1\n",   // id overflows uint64
      "e 0 1\n",                      // edge before any vertex
      "v 0 1\ne 0 5\n",               // endpoint out of range
      "v 0 1\ne 0\n",                 // edge missing an endpoint
      "z what is this\n",             // unknown record kind
  };
  for (const char* text : kBad) {
    std::istringstream in(text);
    const auto result = graph::ReadLg(in);
    EXPECT_FALSE(result.ok()) << "accepted: " << text;
  }
}

// Truncation at every byte offset: each prefix either parses (the cut fell
// on a record boundary of this edges-last format) or errors — never crashes,
// and never yields a graph larger than the full file's.
TEST(IoFuzzTest, GraphTruncationAtEveryByteIsHandled) {
  const std::string full(kValidLg);
  for (size_t cut = 0; cut < full.size(); ++cut) {
    std::istringstream in(full.substr(0, cut));
    const auto result = graph::ReadLg(in);
    if (result.ok()) {
      EXPECT_LE(result.value().num_nodes(), 3u) << "cut at " << cut;
      EXPECT_LE(result.value().num_edges(), 2u) << "cut at " << cut;
    }
  }
}

// --- Pivoted query files ---------------------------------------------------

constexpr char kValidQueries[] =
    "t 1\n"
    "v 0 1\n"
    "v 1 2\n"
    "e 0 1\n"
    "p 0\n"
    "t 2\n"
    "v 0 3\n"
    "p 0\n";

TEST(IoFuzzTest, ValidQueriesParse) {
  std::istringstream in(kValidQueries);
  const auto result = graph::ReadQueries(in);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().size(), 2u);
  EXPECT_EQ(result.value()[0].pivot(), 0u);
}

TEST(IoFuzzTest, MalformedQueryInputsErrorCleanly) {
  const char* kBad[] = {
      "t 1\nv 0 1\n",                 // block ends without a pivot
      "t 1\nv 0 1\nt 2\nv 0 1\np 0\n",// first block never got its pivot
      "v 0 1\np 0\n",                 // records before any 't' header
      "t 1\nv 1 1\np 0\n",            // non-dense vertex id
      "t 1\nv 0 1\ne 0 7\np 0\n",     // edge endpoint out of range
      "t 1\nv 0 1\np 4\n",            // pivot out of range
      "t 1\nv 0 1\nq 0\n",            // unknown record kind
      "t 1\nv 999999 1\np 0\n",       // id far beyond kMaxNodes
  };
  for (const char* text : kBad) {
    std::istringstream in(text);
    const auto result = graph::ReadQueries(in);
    EXPECT_FALSE(result.ok()) << "accepted: " << text;
  }
}

TEST(IoFuzzTest, EmptyStreamsAreValidAndEmpty) {
  std::istringstream empty_graph("");
  const auto g = graph::ReadLg(empty_graph);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().num_nodes(), 0u);

  std::istringstream empty_queries("");
  const auto qs = graph::ReadQueries(empty_queries);
  ASSERT_TRUE(qs.ok());
  EXPECT_TRUE(qs.value().empty());
}

// --- Workload lines --------------------------------------------------------

TEST(IoFuzzTest, ValidWorkloadLineParses) {
  const auto result =
      service::ParseWorkloadLine("v=0,1,2 e=0-1,1-2,0-2 p=0 d=50 m=smart");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().query.num_nodes(), 3u);
  EXPECT_EQ(result.value().deadline_seconds, 0.05);
}

TEST(IoFuzzTest, MalformedWorkloadLinesErrorCleanly) {
  const char* kBad[] = {
      "complete garbage",            // not key=value
      "e=0-1 p=0",                   // no nodes
      "v= p=0",                      // empty label list piece
      "v=0,,1 p=0",                  // empty piece mid-list
      "v=a,b p=0",                   // non-numeric labels
      "v=0,1 e=0 p=0",               // edge without endpoints
      "v=0,1 e=0-1-2-3 p=0",         // too many edge fields
      "v=0,1 e=0-5 p=0",             // endpoint out of range
      "v=0,1 e=0-0 p=0",             // self loop
      "v=0,1 e=0-1",                 // missing pivot
      "v=0,1 e=0-1 p=9",             // pivot out of range
      "v=0,1 e=0-1 p=0 d=abc",       // bad deadline
      "v=0,1 e=0-1 p=0 d=-5",        // negative deadline
      "v=0,1 e=0-1 p=0 m=warp",      // unknown method
      "v=0,1 e=0-1 p=0 id=xyz",      // bad id
      "v=0,1 e=0-1 p=0 zz=1",        // unknown key
  };
  for (const char* line : kBad) {
    EXPECT_FALSE(service::ParseWorkloadLine(line).ok()) << "accepted: "
                                                        << line;
  }
}

#if PSI_FAULT_INJECTION_ENABLED

// --- Injected short reads --------------------------------------------------

class IoFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { util::FaultInjector::Global().DisarmAll(); }
  void TearDown() override { util::FaultInjector::Global().DisarmAll(); }
};

TEST_F(IoFaultTest, InjectedShortReadsSurfaceAsErrorStatuses) {
  {
    util::ScopedFaultSpec chaos("io.graph.short_read=nth:2");
    std::istringstream in(kValidLg);
    const auto result = graph::ReadLg(in);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find("short read"), std::string::npos);
  }
  {
    util::ScopedFaultSpec chaos("io.query.short_read=nth:3");
    std::istringstream in(kValidQueries);
    EXPECT_FALSE(graph::ReadQueries(in).ok());
  }
}

// A short read injected on one call must not poison the next: the reader
// retries the identical stream and succeeds once the schedule is exhausted.
TEST_F(IoFaultTest, ShortReadIsTransientAcrossCalls) {
  util::ScopedFaultSpec chaos("io.graph.short_read=nth:1");
  {
    std::istringstream in(kValidLg);
    EXPECT_FALSE(graph::ReadLg(in).ok());
  }
  {
    std::istringstream in(kValidLg);  // nth:1 already fired; clean replay
    const auto result = graph::ReadLg(in);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().num_nodes(), 3u);
  }
}

#endif  // PSI_FAULT_INJECTION_ENABLED

}  // namespace
}  // namespace psi
