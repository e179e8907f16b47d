#include "signature/builders.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "signature/kernels.h"
#include "signature/signature_matrix.h"
#include "tests/test_fixtures.h"
#include "util/random.h"

namespace psi::signature {
namespace {

using psi::testing::kA;
using psi::testing::kB;
using psi::testing::kC;
using psi::testing::kD;

// ---------------------------------------------------------------------------
// Paper worked example 1 (§3.1): exploration signature of u1 in Figure 1(b)
// with depth 2 is {(A, 1.25), (B, 1), (C, 1)}.
// ---------------------------------------------------------------------------
TEST(ExplorationSignatureTest, PaperFigure1Example) {
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  const SignatureMatrix ns = BuildExplorationSignatures(g, 2, g.num_labels());
  const auto u1 = ns.row(0);
  EXPECT_FLOAT_EQ(u1[kA], 1.25f);
  EXPECT_FLOAT_EQ(u1[kB], 1.0f);
  EXPECT_FLOAT_EQ(u1[kC], 1.0f);
}

TEST(ExplorationSignatureTest, QueryPivotSignature) {
  // NS_v1 of the Figure 1(a) triangle query = {(A, 1), (B, 0.5), (C, 0.5)}.
  const graph::QueryGraph q = psi::testing::MakeFigure1Query();
  const SignatureMatrix ns = BuildExplorationSignatures(q, 2, 3);
  const auto v1 = ns.row(0);
  EXPECT_FLOAT_EQ(v1[kA], 1.0f);
  EXPECT_FLOAT_EQ(v1[kB], 0.5f);
  EXPECT_FLOAT_EQ(v1[kC], 0.5f);
}

TEST(ExplorationSignatureTest, DepthZeroIsOneHot) {
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  const SignatureMatrix ns = BuildExplorationSignatures(g, 0, g.num_labels());
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    for (size_t l = 0; l < ns.num_labels(); ++l) {
      EXPECT_FLOAT_EQ(ns.at(u, l), l == g.label(u) ? 1.0f : 0.0f);
    }
  }
}

/// Asserts that `a` and `b` hold the same float bits in every cell.
void ExpectBitIdentical(const SignatureMatrix& a, const SignatureMatrix& b,
                        const std::string& context) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << context;
  ASSERT_EQ(a.num_labels(), b.num_labels()) << context;
  for (size_t u = 0; u < a.num_rows(); ++u) {
    for (size_t l = 0; l < a.num_labels(); ++l) {
      ASSERT_EQ(std::bit_cast<uint32_t>(a.at(u, l)),
                std::bit_cast<uint32_t>(b.at(u, l)))
          << context << " u=" << u << " l=" << l << ": " << a.at(u, l)
          << " vs " << b.at(u, l) << " (avx2=" << KernelsUseAvx2() << ")";
    }
  }
}

// ---------------------------------------------------------------------------
// Paper worked example 2 (§3.1): matrix signatures NS^1 and NS^2 of the
// Figure 2(a) query. The paper prints both matrices; all rows of NS^1 and
// rows v0, v1, v2, v4 of NS^2 are asserted to the paper's exact rationals.
// (The paper's printed NS^2 row for v3 is inconsistent with its own
// recurrence — recomputing ½·(NS^1(v1)+NS^1(v2)+NS^1(v4)) + NS^1(v3) gives
// (1/4, 5/2, 7/4, 1); we assert the recomputed value.)
// ---------------------------------------------------------------------------
TEST(MatrixSignatureTest, PaperFigure2Ns1) {
  const graph::QueryGraph q = psi::testing::MakeFigure2Query();
  const SignatureMatrix ns1 = BuildMatrixSignatures(q, 1, 4);
  const float expected[5][4] = {
      {1.0f, 0.5f, 0.0f, 0.0f},   // v0
      {0.5f, 1.5f, 0.5f, 0.0f},   // v1
      {0.0f, 1.5f, 0.5f, 0.0f},   // v2
      {0.0f, 1.0f, 1.0f, 0.5f},   // v3
      {0.0f, 0.0f, 0.5f, 1.0f},   // v4
  };
  for (size_t v = 0; v < 5; ++v) {
    for (size_t l = 0; l < 4; ++l) {
      EXPECT_FLOAT_EQ(ns1.at(v, l), expected[v][l]) << "v" << v << " l" << l;
    }
  }
}

TEST(MatrixSignatureTest, PaperFigure2Ns2) {
  const graph::QueryGraph q = psi::testing::MakeFigure2Query();
  const SignatureMatrix ns2 = BuildMatrixSignatures(q, 2, 4);
  const float expected[5][4] = {
      {1.25f, 1.25f, 0.25f, 0.0f},  // v0 (paper: 5/4, 5/4, 1/4, 0)
      {1.0f, 3.0f, 1.25f, 0.25f},   // v1 (paper: 1, 3, 5/4, 1/4)
      {0.25f, 2.75f, 1.25f, 0.25f}, // v2 (paper: 1/4, 11/4, 5/4, 1/4)
      {0.25f, 2.5f, 1.75f, 1.0f},   // v3 (recomputed; see comment above)
      {0.0f, 0.5f, 1.0f, 1.25f},    // v4 (paper: 0, 1/2, 1, 5/4)
  };
  for (size_t v = 0; v < 5; ++v) {
    for (size_t l = 0; l < 4; ++l) {
      EXPECT_FLOAT_EQ(ns2.at(v, l), expected[v][l]) << "v" << v << " l" << l;
    }
  }
}

TEST(MatrixSignatureTest, GraphAndQueryBuildersAgree) {
  // Build the Figure 2 query as a data graph too; both matrix builders must
  // produce identical signatures.
  graph::GraphBuilder b;
  b.AddNode(kA);
  b.AddNode(kB);
  b.AddNode(kB);
  b.AddNode(kC);
  b.AddNode(kD);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(1, 3);
  b.AddEdge(2, 3);
  b.AddEdge(3, 4);
  const graph::Graph g = std::move(b).Build();
  const graph::QueryGraph q = psi::testing::MakeFigure2Query();

  for (uint32_t depth = 0; depth <= 3; ++depth) {
    ExpectBitIdentical(BuildMatrixSignatures(g, depth, 4),
                       BuildMatrixSignatures(q, depth, 4),
                       "depth " + std::to_string(depth));
  }
}

/// The matrix recurrence as the paper writes it: every round, every row,
/// dense over all labels, neighbour by neighbour in adjacency order. The
/// builder's one-hot first round and vector kernels must reproduce it bit
/// for bit.
SignatureMatrix DenseReferenceSignatures(const graph::Graph& g,
                                         uint32_t depth, size_t num_labels,
                                         float decay) {
  SignatureMatrix current(g.num_nodes(), num_labels, Method::kMatrix, depth,
                          decay);
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    current.at(u, g.label(u)) = 1.0f;
  }
  SignatureMatrix next = current;
  for (uint32_t iter = 0; iter < depth; ++iter) {
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      for (size_t l = 0; l < num_labels; ++l) {
        next.at(u, l) = current.at(u, l);
      }
      for (const graph::NodeId v : g.neighbors(u)) {
        for (size_t l = 0; l < num_labels; ++l) {
          next.at(u, l) += decay * current.at(v, l);
        }
      }
    }
    current.SwapData(next);
  }
  return current;
}

/// A random graph with one hub adjacent to most nodes (long neighbour
/// lists, repeated labels) and a few isolated nodes (rows that stay
/// one-hot), labelled uniformly from [0, num_labels).
graph::Graph MakeHubGraph(size_t num_labels, uint64_t seed) {
  util::Rng rng(seed);
  constexpr size_t kNodes = 48;
  constexpr size_t kIsolated = 3;
  graph::GraphBuilder b;
  for (size_t u = 0; u < kNodes; ++u) {
    b.AddNode(static_cast<graph::Label>(rng.NextBounded(num_labels)));
  }
  const size_t connected = kNodes - kIsolated;
  for (graph::NodeId u = 1; u < connected; ++u) {
    if (rng.NextBool(0.8)) b.AddEdge(0, u);
  }
  for (size_t e = 0; e < 3 * connected; ++e) {
    const auto u = static_cast<graph::NodeId>(rng.NextBounded(connected));
    const auto v = static_cast<graph::NodeId>(rng.NextBounded(connected));
    if (u != v) b.AddEdge(u, v);
  }
  return std::move(b).Build();
}

TEST(MatrixSignatureTest, BuildIsBitIdenticalToDenseReference) {
  // Label counts 1..70 run every tail width of the vector kernel (1-8
  // lanes) and both one and two 64-label register blocks.
  for (size_t num_labels = 1; num_labels <= 70; ++num_labels) {
    const graph::Graph g = MakeHubGraph(num_labels, 1000 + num_labels);
    for (uint32_t depth = 0; depth <= 3; ++depth) {
      for (const float decay : {0.5f, 0.3f, 0.7f, 1.0f}) {
        ExpectBitIdentical(
            BuildMatrixSignatures(g, depth, num_labels, nullptr, decay),
            DenseReferenceSignatures(g, depth, num_labels, decay),
            "labels=" + std::to_string(num_labels) +
                " depth=" + std::to_string(depth) +
                " decay=" + std::to_string(decay));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(ExplorationSignatureTest, GraphAndQueryBuildersAgree) {
  graph::GraphBuilder b;
  b.AddNode(kA);
  b.AddNode(kB);
  b.AddNode(kB);
  b.AddNode(kC);
  b.AddNode(kD);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(1, 3);
  b.AddEdge(2, 3);
  b.AddEdge(3, 4);
  const graph::Graph g = std::move(b).Build();
  const graph::QueryGraph q = psi::testing::MakeFigure2Query();

  const SignatureMatrix from_graph = BuildExplorationSignatures(g, 2, 4);
  const SignatureMatrix from_query = BuildExplorationSignatures(q, 2, 4);
  for (size_t v = 0; v < 5; ++v) {
    for (size_t l = 0; l < 4; ++l) {
      EXPECT_FLOAT_EQ(from_graph.at(v, l), from_query.at(v, l));
    }
  }
}

// ---------------------------------------------------------------------------
// Satisfaction and satisfiability score (§3.2 / §3.3).
// ---------------------------------------------------------------------------
TEST(SatisfiesTest, PaperU1SatisfiesV1) {
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  const graph::QueryGraph q = psi::testing::MakeFigure1Query();
  const SignatureMatrix gs = BuildExplorationSignatures(g, 2, g.num_labels());
  const SignatureMatrix qs = BuildExplorationSignatures(q, 2, g.num_labels());
  EXPECT_TRUE(Satisfies(gs.row(0), qs.row(0)));  // u1 vs v1
}

TEST(SatisfiesTest, LowerWeightFails) {
  std::vector<float> candidate{1.0f, 0.4f};
  std::vector<float> required{1.0f, 0.5f};
  EXPECT_FALSE(Satisfies(candidate, required));
}

TEST(SatisfiesTest, ZeroRequiredIgnored) {
  std::vector<float> candidate{0.0f, 2.0f};
  std::vector<float> required{0.0f, 1.0f};
  EXPECT_TRUE(Satisfies(candidate, required));
}

TEST(SatisfiesTest, EqualWeightsSatisfyDespiteRounding) {
  // A node must always satisfy its own signature.
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  const SignatureMatrix gs = BuildMatrixSignatures(g, 3, g.num_labels());
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_TRUE(Satisfies(gs.row(u), gs.row(u)));
  }
}

TEST(SatisfiabilityScoreTest, PaperExampleIs175) {
  // SS(u1, v1) = ((1.25/1) + (1/0.5) + (1/0.5)) / 3 = 1.75.
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  const graph::QueryGraph q = psi::testing::MakeFigure1Query();
  const SignatureMatrix gs = BuildExplorationSignatures(g, 2, g.num_labels());
  const SignatureMatrix qs = BuildExplorationSignatures(q, 2, g.num_labels());
  EXPECT_NEAR(SatisfiabilityScore(gs.row(0), qs.row(0)), 1.75, 1e-6);
}

TEST(SatisfiabilityScoreTest, ZeroRequiredRowScoresZero) {
  std::vector<float> candidate{1.0f, 1.0f};
  std::vector<float> required{0.0f, 0.0f};
  EXPECT_EQ(SatisfiabilityScore(candidate, required), 0.0);
}

// ---------------------------------------------------------------------------
// Hashing for the prediction cache.
// ---------------------------------------------------------------------------
TEST(HashSignatureTest, EqualRowsEqualHashes) {
  std::vector<float> a{1.25f, 1.0f, 0.5f};
  std::vector<float> b{1.25f, 1.0f, 0.5f};
  EXPECT_EQ(HashSignature(a), HashSignature(b));
}

TEST(HashSignatureTest, DifferentRowsDiffer) {
  std::vector<float> a{1.25f, 1.0f, 0.5f};
  std::vector<float> b{1.25f, 1.0f, 0.75f};
  EXPECT_NE(HashSignature(a), HashSignature(b));
}

TEST(HashSignatureTest, QuantizationMergesTinyDifferences) {
  std::vector<float> a{1.0f};
  std::vector<float> b{1.0f + 1e-5f};  // below the 1/1024 resolution
  EXPECT_EQ(HashSignature(a), HashSignature(b));
}

/// HashSignature's definition: FNV-1a over the 8 little-endian bytes of
/// llround(w * 1024) per weight, one byte at a time.
uint64_t BytewiseReferenceHash(const std::vector<float>& row) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const float w : row) {
    const auto bits = static_cast<uint64_t>(std::llround(w * 1024.0f));
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (byte * 8)) & 0xffULL;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

TEST(HashSignatureTest, FoldedHashMatchesBytewiseReference) {
  // Weights that stress the rounding (exact halves of 1/1024 either side
  // of zero, and their float neighbours), the zero-byte folding (zero
  // weights, long zero runs, zero bytes between nonzero ones) and the
  // magnitude (above 2^24 / 1024 every float is an integer count; negative
  // counts carry 0xff high bytes).
  const std::vector<float> special = {
      0.0f, -0.0f, 0.5f / 1024, -0.5f / 1024, 1.5f / 1024, -1.5f / 1024,
      2.5f / 1024, -2.5f / 1024, 1023.5f / 1024,
      std::nextafter(0.5f, 0.0f) / 1024, std::nextafter(0.5f, 1.0f) / 1024,
      0.25f, 1.0f, 1.25f, 3.75f, 65537.0f / 1024, 16777217.0f / 1024,
      16384.0f, 16384.5f, 20000.25f, 1e6f, 3e9f, -7.0f, -20000.25f};
  std::vector<std::vector<float>> rows = {{}, {0.0f}, special};
  rows.push_back(std::vector<float>(9, 0.0f));    // 72 zero bytes
  rows.push_back(std::vector<float>(100, 0.0f));  // 800 zero bytes
  std::vector<float> sparse(70, 0.0f);
  sparse[8] = 2.5f;
  sparse[69] = 1.0f;
  rows.push_back(sparse);
  util::Rng rng(77);
  for (int r = 0; r < 500; ++r) {
    std::vector<float> row(rng.NextBounded(80));
    for (float& w : row) {
      const uint64_t kind = rng.NextBounded(4);
      if (kind == 0) {
        w = 0.0f;
      } else if (kind == 1) {
        w = special[rng.NextBounded(special.size())];
      } else if (kind == 2) {  // a multiple of 1/4, as depth-2 rows hold
        w = static_cast<float>(rng.NextBounded(4096)) / 4.0f;
      } else {
        w = static_cast<float>(rng.NextDouble() * 2000.0 - 100.0);
      }
    }
    rows.push_back(std::move(row));
  }
  for (size_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ(HashSignature(rows[r]), BytewiseReferenceHash(rows[r]))
        << "row " << r << " of " << rows[r].size() << " weights";
  }
}

TEST(DecayTest, DecayOneCountsReachableNodes) {
  // With decay = 1 the exploration signature degenerates to "number of
  // nodes with each label within D hops (self included)".
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  const SignatureMatrix ns =
      BuildExplorationSignatures(g, 2, g.num_labels(), nullptr, 1.0f);
  // From u1: itself (A), u2/u5 (B), u3/u4 (C), u6 (A) within 2 hops.
  const auto u1 = ns.row(0);
  EXPECT_FLOAT_EQ(u1[psi::testing::kA], 2.0f);
  EXPECT_FLOAT_EQ(u1[psi::testing::kB], 2.0f);
  EXPECT_FLOAT_EQ(u1[psi::testing::kC], 2.0f);
}

TEST(DecayTest, SmallerDecayShrinksDistantContributions) {
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  const SignatureMatrix half =
      BuildExplorationSignatures(g, 2, g.num_labels(), nullptr, 0.5f);
  const SignatureMatrix quarter =
      BuildExplorationSignatures(g, 2, g.num_labels(), nullptr, 0.25f);
  // u6 contributes to u1's A-weight from distance 2: 0.25 vs 0.0625.
  EXPECT_FLOAT_EQ(half.at(0, psi::testing::kA), 1.25f);
  EXPECT_FLOAT_EQ(quarter.at(0, psi::testing::kA), 1.0625f);
}

TEST(MethodNameTest, Names) {
  EXPECT_STREQ(MethodName(Method::kExploration), "exploration");
  EXPECT_STREQ(MethodName(Method::kMatrix), "matrix");
}

TEST(BuildSignaturesTest, DispatchesOnMethod) {
  const graph::Graph g = psi::testing::MakeFigure1Graph();
  EXPECT_EQ(BuildSignatures(g, Method::kExploration, 2, 3).method(),
            Method::kExploration);
  EXPECT_EQ(BuildSignatures(g, Method::kMatrix, 2, 3).method(),
            Method::kMatrix);
}

TEST(BuildSignaturesTest, ParallelMatchesSerial) {
  const graph::Graph g = psi::testing::MakeRandomGraph(3000, 9000, 5, 21);
  util::ThreadPool pool(4);
  for (const Method method : {Method::kExploration, Method::kMatrix}) {
    ExpectBitIdentical(BuildSignatures(g, method, 2, g.num_labels()),
                       BuildSignatures(g, method, 2, g.num_labels(), &pool),
                       MethodName(method));
  }
}

}  // namespace
}  // namespace psi::signature
