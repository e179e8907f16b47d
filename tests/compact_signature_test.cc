// Conformance/property suite for the 8-bit quantized signature layer
// (DESIGN.md §16.1). The load-bearing contract: the quantized prescreen may
// only OVER-admit — a candidate row that passes the exact float
// satisfaction test must never be rejected by the compact comparison — and
// the bulk filter re-checks survivors with the exact float kernel, so every
// kept set stays byte-identical to the float-only path. This suite attacks
// the contract with randomized magnitude sweeps (denormals, zero, epsilon
// neighborhoods, saturation) and pins the dispatch (AVX2 when available)
// against the scalar reference bit-for-bit.

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "signature/builders.h"
#include "signature/compact_signature.h"
#include "signature/kernels.h"
#include "signature/signature_matrix.h"
#include "signature/sparse_requirement.h"
#include "tests/test_fixtures.h"
#include "util/random.h"

namespace psi {
namespace {

using signature::CompactSignatureMatrix;
using signature::QuantizeWeight;
using signature::SignatureMatrix;
using signature::SparseRequirement;
using signature::ThresholdCode;
using signature::kSatisfactionEpsilon;

/// A float with the given bit pattern (positive finite patterns cover
/// zero, every denormal, and every normal magnitude).
float FromBits(uint32_t bits) { return std::bit_cast<float>(bits); }

/// The exact float admission test the kernels perform for one label:
/// candidate c is admitted against requirement r iff !(c + eps < r).
bool FloatAdmits(float c, float r) {
  return !(c + kSatisfactionEpsilon < r);
}

// The boundary magnitudes of the quantization grid plus the usual float
// suspects; every pairwise (candidate, required) combination is checked.
const float kEdgeValues[] = {
    0.0f,
    FromBits(1),                     // smallest denormal
    FromBits(0x007fffff),            // largest denormal
    FLT_MIN,
    FromBits(signature::kQuantLoBits - 1),  // just under 2^-24
    FromBits(signature::kQuantLoBits),      // 2^-24 exactly
    kSatisfactionEpsilon,
    1e-5f, 1e-4f, 0.5f, 1.0f, 2.0f, 1000.0f,
    FromBits(signature::kQuantHiBits - 1),  // just under 2^24
    FromBits(signature::kQuantHiBits),      // 2^24 exactly
    1e30f,
    FLT_MAX,
};

TEST(CompactQuantizerTest, AnchorsAndSaturation) {
  EXPECT_EQ(QuantizeWeight(0.0f), 0);
  EXPECT_EQ(QuantizeWeight(-1.0f), 0);
  EXPECT_EQ(QuantizeWeight(FromBits(1)), 1);  // smallest denormal
  EXPECT_EQ(QuantizeWeight(FromBits(signature::kQuantLoBits - 1)), 1);
  EXPECT_EQ(QuantizeWeight(FromBits(signature::kQuantHiBits)), 255);
  EXPECT_EQ(QuantizeWeight(FLT_MAX), 255);
  // Thresholds never exceed the code a satisfying weight would get.
  EXPECT_EQ(ThresholdCode(0.0f), 0);
  EXPECT_EQ(ThresholdCode(-3.0f), 0);
  EXPECT_EQ(ThresholdCode(kSatisfactionEpsilon), 0);
}

TEST(CompactQuantizerTest, MonotoneOverRandomMagnitudes) {
  const uint64_t seed = psi::testing::TestSeed(0xc0de01);
  PSI_LOG_TEST_SEED(seed);
  util::Rng rng(seed);
  std::vector<float> values(20000);
  for (float& v : values) {
    // Uniform over all finite nonnegative bit patterns: zero, denormals,
    // every binade up to FLT_MAX.
    v = FromBits(static_cast<uint32_t>(rng.NextBounded(0x7f800000ULL)));
  }
  std::sort(values.begin(), values.end());
  for (size_t i = 1; i < values.size(); ++i) {
    ASSERT_LE(QuantizeWeight(values[i - 1]), QuantizeWeight(values[i]))
        << values[i - 1] << " vs " << values[i];
  }
}

/// The tentpole property: float-admitted implies compact-admitted.
void ExpectNeverRejectsAdmitted(float candidate, float required) {
  if (FloatAdmits(candidate, required)) {
    ASSERT_GE(QuantizeWeight(candidate), ThresholdCode(required))
        << "candidate " << candidate << " (bits "
        << std::bit_cast<uint32_t>(candidate) << ") required " << required
        << " (bits " << std::bit_cast<uint32_t>(required) << ")";
  }
}

TEST(CompactQuantizerTest, NeverRejectsFloatAdmittedOnEdgeGrid) {
  for (const float c : kEdgeValues) {
    for (const float r : kEdgeValues) {
      ExpectNeverRejectsAdmitted(c, r);
    }
  }
  // Every value admits itself (float add rounds upward-monotone), so the
  // prescreen must pass a row against its own requirement.
  for (const float x : kEdgeValues) {
    ASSERT_TRUE(FloatAdmits(x, x));
    ExpectNeverRejectsAdmitted(x, x);
  }
}

TEST(CompactQuantizerTest, NeverRejectsFloatAdmittedRandomSweep) {
  const uint64_t seed = psi::testing::TestSeed(0xc0de02);
  PSI_LOG_TEST_SEED(seed);
  util::Rng rng(seed);
  for (int trial = 0; trial < 200000; ++trial) {
    const auto cbits = static_cast<uint32_t>(rng.NextBounded(0x7f800000ULL));
    uint32_t rbits;
    switch (rng.NextBounded(3)) {
      case 0:  // independent magnitude
        rbits = static_cast<uint32_t>(rng.NextBounded(0x7f800000ULL));
        break;
      case 1: {  // a few ulps away: the rounding-slop regime of the proof
        const auto delta = static_cast<int64_t>(rng.NextBounded(9)) - 4;
        const int64_t moved = static_cast<int64_t>(cbits) + delta;
        rbits = static_cast<uint32_t>(
            std::clamp<int64_t>(moved, 0, 0x7f7fffff));
        break;
      }
      default:  // same binade, different mantissa
        rbits = (cbits & 0xff800000u) |
                static_cast<uint32_t>(rng.NextBounded(0x00800000ULL));
        break;
    }
    ExpectNeverRejectsAdmitted(FromBits(cbits), FromBits(rbits));
  }
}

// Whole-row version of the contract on real signatures, including a star
// graph whose center row concentrates maximal degree into one label.
TEST(CompactQuantizerTest, RowPrescreenNeverRejectsSatisfyingRealRows) {
  const uint64_t seed = psi::testing::TestSeed(0xc0de03);
  PSI_LOG_TEST_SEED(seed);

  graph::GraphBuilder b;
  const graph::NodeId center = b.AddNode(0);
  for (int i = 0; i < 2000; ++i) {
    b.AddEdge(center, b.AddNode(1));
  }
  const graph::Graph star = std::move(b).Build();

  for (const auto method :
       {signature::Method::kExploration, signature::Method::kMatrix}) {
    const SignatureMatrix sigs = signature::BuildSignatures(
        star, method, 2, star.num_labels());
    SparseRequirement req;
    for (const graph::NodeId u : {center, graph::NodeId{1}}) {
      req.Assign(sigs.row(u));
      CompactSignatureMatrix compact = CompactSignatureMatrix::Build(sigs);
      // Every row that passes the exact float test must pass the prescreen.
      for (size_t v = 0; v < sigs.num_rows(); ++v) {
        if (req.Satisfies(sigs.row(v))) {
          EXPECT_TRUE(
              signature::internal::CompactRowMaySatisfy(compact.row(v), req))
              << "method " << static_cast<int>(method) << " row " << v;
        }
      }
    }
  }
}

// The bulk filter with a compact attachment must keep exactly the same
// candidates in exactly the same order as the float-only matrix — the
// admit-with-recheck guarantee FilterCandidates documents.
TEST(CompactFilterTest, FilterCandidatesByteIdenticalWithCompactAttached) {
  const uint64_t seed = psi::testing::TestSeed(0xc0de04);
  PSI_LOG_TEST_SEED(seed);
  const graph::Graph g = psi::testing::MakeRandomGraph(300, 1000, 4, seed);

  for (const auto method :
       {signature::Method::kExploration, signature::Method::kMatrix}) {
    SignatureMatrix with_compact = signature::BuildSignatures(
        g, method, 2, g.num_labels());
    const SignatureMatrix float_only = with_compact;  // copies drop compact
    with_compact.BuildCompact();
    ASSERT_NE(with_compact.compact(), nullptr);
    ASSERT_EQ(float_only.compact(), nullptr);

    std::vector<graph::NodeId> all_nodes(g.num_nodes());
    for (size_t i = 0; i < all_nodes.size(); ++i) {
      all_nodes[i] = static_cast<graph::NodeId>(i);
    }

    util::Rng rng(seed ^ static_cast<uint64_t>(method));
    SparseRequirement req;
    for (int trial = 0; trial < 40; ++trial) {
      // Requirement rows drawn from the data matrix itself: selective
      // (high-degree rows reject most candidates) and permissive alike.
      const auto pivot =
          static_cast<graph::NodeId>(rng.NextBounded(g.num_nodes()));
      req.Assign(float_only.row(pivot));

      std::vector<graph::NodeId> kept_float = all_nodes;
      std::vector<graph::NodeId> kept_compact = all_nodes;
      const size_t pruned_float =
          signature::FilterCandidates(float_only, req, kept_float);
      const size_t pruned_compact =
          signature::FilterCandidates(with_compact, req, kept_compact);
      ASSERT_EQ(kept_float, kept_compact) << "pivot row " << pivot;
      ASSERT_EQ(pruned_float, pruned_compact);
    }
  }
}

// Dispatch parity: whatever path CompactRowMaySatisfy selects at runtime
// (AVX2 on supporting CPUs, scalar otherwise) must return the same verdict
// as the always-scalar reference on every input — including row lengths
// around the 32-byte vector boundary where the masked tail kicks in.
TEST(CompactFilterTest, DispatchMatchesScalarReference) {
  const uint64_t seed = psi::testing::TestSeed(0xc0de05);
  PSI_LOG_TEST_SEED(seed);
  util::Rng rng(seed);
  // Log which path this run actually exercised (the CI matrix includes
  // AVX2 hosts; on others this test degenerates to scalar-vs-scalar).
  SCOPED_TRACE(::testing::Message()
               << "KernelsUseAvx2=" << signature::KernelsUseAvx2());

  for (const size_t dim : {1u, 5u, 25u, 31u, 32u, 33u, 63u, 64u, 65u, 100u}) {
    SparseRequirement req;
    std::vector<float> required(dim);
    CompactSignatureMatrix rows(/*num_rows=*/64, dim);
    for (int trial = 0; trial < 50; ++trial) {
      for (float& r : required) {
        // Mix of unconstrained (<= 0) and constrained labels across
        // magnitudes, denormals included.
        r = rng.NextBounded(4) == 0
                ? 0.0f
                : FromBits(static_cast<uint32_t>(
                      rng.NextBounded(0x7f800000ULL)));
      }
      req.Assign(required);

      for (size_t i = 0; i < rows.num_rows(); ++i) {
        uint8_t* row = rows.mutable_row(i);
        const auto need = req.dense_threshold_codes();
        switch (rng.NextBounded(4)) {
          case 0:  // random codes
            for (size_t l = 0; l < dim; ++l) {
              row[l] = static_cast<uint8_t>(rng.NextBounded(256));
            }
            break;
          case 1:  // exactly the thresholds: must pass
            std::memcpy(row, need.data(), dim);
            break;
          case 2: {  // thresholds with one label nudged below: the only
                     // failing lane may sit anywhere, including the masked
                     // tail block
            std::memcpy(row, need.data(), dim);
            const size_t l = rng.NextBounded(dim);
            if (row[l] > 0) row[l] = static_cast<uint8_t>(row[l] - 1);
            break;
          }
          default:  // thresholds plus slack: must pass
            for (size_t l = 0; l < dim; ++l) {
              row[l] = static_cast<uint8_t>(
                  std::min<uint32_t>(255, need[l] + rng.NextBounded(3)));
            }
            break;
        }
      }
      for (size_t i = 0; i < rows.num_rows(); ++i) {
        const auto row = rows.row(i);
        ASSERT_EQ(signature::internal::CompactRowMaySatisfy(row, req),
                  signature::internal::CompactRowMaySatisfyScalar(row, req))
            << "dim " << dim << " row " << i << " trial " << trial;
      }
    }
  }
}

}  // namespace
}  // namespace psi
