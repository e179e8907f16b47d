#include "fsm/support.h"

#include <vector>

#include <gtest/gtest.h>

#include "signature/builders.h"
#include "tests/test_fixtures.h"

namespace psi::fsm {
namespace {

class SupportTest : public ::testing::Test {
 protected:
  SupportTest()
      : g_(psi::testing::MakeFigure1Graph()),
        sigs_(signature::BuildMatrixSignatures(g_, 2, g_.num_labels())) {}

  SupportResult Eval(const graph::QueryGraph& pattern, uint64_t min_support,
                     SupportMethod method) {
    return EvaluateSupport(g_, &sigs_, pattern, min_support, method,
                           util::Deadline());
  }

  graph::Graph g_;
  signature::SignatureMatrix sigs_;
};

graph::QueryGraph EdgePattern(graph::Label a, graph::Label b) {
  graph::QueryGraph p;
  p.AddNode(a);
  p.AddNode(b);
  p.AddEdge(0, 1);
  return p;
}

TEST_F(SupportTest, SingleEdgeAbMni) {
  // A-B edges in Figure 1: u1-u2, u1-u5, u6-u5. Distinct A endpoints
  // {u1, u6}, distinct B endpoints {u2, u5} -> MNI = 2.
  const graph::QueryGraph p = EdgePattern(psi::testing::kA, psi::testing::kB);
  for (const SupportMethod method :
       {SupportMethod::kEnumeration, SupportMethod::kPsi}) {
    const SupportResult r = Eval(p, 2, method);
    EXPECT_TRUE(r.frequent) << SupportMethodName(method);
    EXPECT_GE(r.support, 2u);
    EXPECT_TRUE(r.complete);
  }
}

TEST_F(SupportTest, ThresholdAboveMniIsInfrequent) {
  const graph::QueryGraph p = EdgePattern(psi::testing::kA, psi::testing::kB);
  for (const SupportMethod method :
       {SupportMethod::kEnumeration, SupportMethod::kPsi}) {
    const SupportResult r = Eval(p, 3, method);
    EXPECT_FALSE(r.frequent) << SupportMethodName(method);
    EXPECT_EQ(r.support, 2u);
  }
}

TEST_F(SupportTest, MissingEdgeTypeHasZeroSupport) {
  // No A-A edge exists in Figure 1.
  const graph::QueryGraph p = EdgePattern(psi::testing::kA, psi::testing::kA);
  for (const SupportMethod method :
       {SupportMethod::kEnumeration, SupportMethod::kPsi}) {
    const SupportResult r = Eval(p, 1, method);
    EXPECT_FALSE(r.frequent);
    EXPECT_EQ(r.support, 0u);
  }
}

TEST_F(SupportTest, TrianglePatternSupport) {
  // The Figure 1 A-B-C triangle: A images {u1,u6}, B images {u2,u5},
  // C images {u3,u4} -> MNI = 2.
  const graph::QueryGraph p = psi::testing::MakeFigure1Query();
  for (const SupportMethod method :
       {SupportMethod::kEnumeration, SupportMethod::kPsi}) {
    const SupportResult r = Eval(p, 2, method);
    EXPECT_TRUE(r.frequent) << SupportMethodName(method);
    EXPECT_GE(r.support, 2u);
  }
}

TEST_F(SupportTest, MethodsAgreeOnRandomPatterns) {
  const graph::Graph big = psi::testing::MakeRandomGraph(300, 900, 3, 17);
  const auto sigs =
      signature::BuildMatrixSignatures(big, 2, big.num_labels());
  util::Rng rng(18);
  // Random 2- and 3-node patterns over the label alphabet.
  for (int trial = 0; trial < 20; ++trial) {
    graph::QueryGraph p;
    const size_t n = 2 + rng.NextBounded(2);
    for (size_t i = 0; i < n; ++i) {
      p.AddNode(static_cast<graph::Label>(rng.NextBounded(3)));
    }
    p.AddEdge(0, 1);
    if (n == 3) p.AddEdge(1, 2);
    for (const uint64_t threshold : {1u, 5u, 25u}) {
      const SupportResult enumeration =
          EvaluateSupport(big, &sigs, p, threshold,
                          SupportMethod::kEnumeration, util::Deadline());
      const SupportResult psi = EvaluateSupport(
          big, &sigs, p, threshold, SupportMethod::kPsi, util::Deadline());
      EXPECT_EQ(enumeration.frequent, psi.frequent)
          << p.ToString() << " threshold " << threshold;
    }
  }
}

// The one reduction both kPsi and served support go through: the minimum
// of the per-pivot counts up to the first one below the threshold.
TEST(ReduceSupportTest, FirstShortPivotDecides) {
  const std::vector<uint64_t> all_reach = {4, 4, 4};
  SupportResult r = ReduceSupport(all_reach, 4);
  EXPECT_TRUE(r.frequent);
  EXPECT_EQ(r.support, 4u);
  EXPECT_TRUE(r.complete);

  // Pattern-node order decides which short count is reported: the
  // in-process path stops probing at the first one.
  const std::vector<uint64_t> short_twice = {4, 3, 1};
  r = ReduceSupport(short_twice, 4);
  EXPECT_FALSE(r.frequent);
  EXPECT_EQ(r.support, 3u);
  r = ReduceSupport(std::vector<uint64_t>{4, 3}, 4);
  EXPECT_EQ(r.support, 3u);

  // One short of the threshold is infrequent; reaching it is frequent.
  EXPECT_FALSE(ReduceSupport(std::vector<uint64_t>{5, 4}, 5).frequent);
  EXPECT_TRUE(ReduceSupport(std::vector<uint64_t>{5, 5}, 5).frequent);

  r = ReduceSupport(std::vector<uint64_t>{0, 7}, 0);
  EXPECT_TRUE(r.frequent);
  EXPECT_EQ(r.support, 0u);

  // The reduction does not cap: counts from unlimited probes give the
  // exact MNI, so a probe that ignored its limit shows in the support.
  r = ReduceSupport(std::vector<uint64_t>{9, 7}, 5);
  EXPECT_TRUE(r.frequent);
  EXPECT_EQ(r.support, 7u);
}

// kPsi probes stop at min_support valid nodes, so a frequent pattern's
// support is exactly the threshold, whatever its MNI.
TEST_F(SupportTest, PsiSupportOfFrequentPatternIsTheThreshold) {
  const graph::QueryGraph p = EdgePattern(psi::testing::kA, psi::testing::kB);
  for (const uint64_t threshold : {uint64_t{1}, uint64_t{2}}) {
    const SupportResult r = Eval(p, threshold, SupportMethod::kPsi);
    EXPECT_TRUE(r.frequent);
    EXPECT_EQ(r.support, threshold);
  }
}

TEST_F(SupportTest, ZeroThresholdAlwaysFrequent) {
  const graph::QueryGraph p = EdgePattern(psi::testing::kA, psi::testing::kA);
  EXPECT_TRUE(Eval(p, 0, SupportMethod::kEnumeration).frequent);
  EXPECT_TRUE(Eval(p, 0, SupportMethod::kPsi).frequent);
}

}  // namespace
}  // namespace psi::fsm
