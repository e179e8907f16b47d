// Explicit AVX2 row kernels, compiled with -mavx2 in this translation unit
// only (the rest of the library stays at the base ISA). kernels.cc calls
// these strictly behind a runtime __builtin_cpu_supports("avx2") check.
//
// Bit-identity with the scalar reference is a hard requirement (the search
// must visit candidates in exactly the same order): the satisfaction kernel
// performs the same float add + compare, and the score kernel performs the
// same exactly-rounded double divisions with the same left-to-right
// accumulation order — only the data movement is vectorized. The
// propagation kernel performs the scalar loop's rounded multiply, then its
// rounded add, lane by lane and neighbour by neighbour (never a fused
// multiply-add: this unit is built with -ffp-contract=off).

#include "signature/kernels.h"

#if defined(PSI_HAVE_AVX2_KERNELS)

#include <immintrin.h>

#include <algorithm>

namespace psi::signature::internal {

namespace {

/// Propagates labels [l0, l0 + 8 * (kVecs - 1) + last_lanes) of u's row
/// with kVecs accumulators that stay in registers across the whole
/// neighbour list; the last accumulator holds `last_lanes` (1-8) lanes.
template <int kVecs>
void PropagateBlockAvx2(const float* prev, size_t num_labels, size_t l0,
                        size_t last_lanes, graph::NodeId u,
                        std::span<const graph::NodeId> nbrs, float decay,
                        float* out) {
  const __m256i tail = _mm256_cmpgt_epi32(
      _mm256_set1_epi32(static_cast<int>(last_lanes)),
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  const __m256 d = _mm256_set1_ps(decay);
  constexpr int kLast = kVecs - 1;
  const float* self = prev + size_t{u} * num_labels + l0;
  __m256 acc[kVecs];
  for (int k = 0; k < kLast; ++k) acc[k] = _mm256_loadu_ps(self + 8 * k);
  acc[kLast] = _mm256_maskload_ps(self + 8 * kLast, tail);
  for (const graph::NodeId v : nbrs) {
    const float* in = prev + size_t{v} * num_labels + l0;
    for (int k = 0; k < kLast; ++k) {
      acc[k] = _mm256_add_ps(acc[k],
                             _mm256_mul_ps(d, _mm256_loadu_ps(in + 8 * k)));
    }
    acc[kLast] = _mm256_add_ps(
        acc[kLast], _mm256_mul_ps(d, _mm256_maskload_ps(in + 8 * kLast, tail)));
  }
  for (int k = 0; k < kLast; ++k) _mm256_storeu_ps(out + l0 + 8 * k, acc[k]);
  _mm256_maskstore_ps(out + l0 + 8 * kLast, tail, acc[kLast]);
}

}  // namespace

void PropagateRowAvx2(const float* prev, size_t num_labels, graph::NodeId u,
                      std::span<const graph::NodeId> nbrs, float decay,
                      float* out) {
  using BlockFn = void (*)(const float*, size_t, size_t, size_t,
                           graph::NodeId, std::span<const graph::NodeId>,
                           float, float*);
  static constexpr BlockFn kBlocks[8] = {
      PropagateBlockAvx2<1>, PropagateBlockAvx2<2>, PropagateBlockAvx2<3>,
      PropagateBlockAvx2<4>, PropagateBlockAvx2<5>, PropagateBlockAvx2<6>,
      PropagateBlockAvx2<7>, PropagateBlockAvx2<8>};
  // Blocks of up to 64 labels (8 accumulators, half the register file).
  for (size_t l0 = 0; l0 < num_labels; l0 += 64) {
    const size_t width = std::min<size_t>(64, num_labels - l0);
    const size_t vecs = (width + 7) / 8;
    kBlocks[vecs - 1](prev, num_labels, l0, width - 8 * (vecs - 1), u, nbrs,
                      decay, out);
  }
}

bool RowSatisfiesAvx2(const float* row, const uint32_t* idx, const float* val,
                      size_t nnz) {
  const __m256 eps = _mm256_set1_ps(kSatisfactionEpsilon);
  size_t j = 0;
  for (; j + 8 <= nnz; j += 8) {
    const __m256i vi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + j));
    const __m256 cand = _mm256_i32gather_ps(row, vi, 4);
    const __m256 need = _mm256_loadu_ps(val + j);
    const __m256 fail =
        _mm256_cmp_ps(_mm256_add_ps(cand, eps), need, _CMP_LT_OQ);
    if (_mm256_movemask_ps(fail) != 0) return false;
  }
  for (; j < nnz; ++j) {
    if (row[idx[j]] + kSatisfactionEpsilon < val[j]) return false;
  }
  return true;
}

bool CompactRowMaySatisfyAvx2(const uint8_t* row, const uint8_t* tcodes,
                              size_t dim) {
  // Dense prescreen: both rows are contiguous bytes, so each iteration
  // tests 32 labels with two plain loads and an unsigned byte compare —
  // no gathers. max_epu8(r, t) == r  <=>  r >= t lane-wise.
  size_t l = 0;
  for (; l + 32 <= dim; l += 32) {
    const __m256i r =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + l));
    const __m256i t =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tcodes + l));
    const __m256i ge = _mm256_cmpeq_epi8(_mm256_max_epu8(r, t), r);
    if (_mm256_movemask_epi8(ge) != -1) return false;
  }
  if (l < dim) {
    // Tail: one full 32-byte load with the excess lanes masked out of the
    // verdict. Reads up to 31 bytes past each row's last code, which
    // kTailPadBytes guarantees are mapped (never used).
    const __m256i r =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + l));
    const __m256i t =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tcodes + l));
    const __m256i ge = _mm256_cmpeq_epi8(_mm256_max_epu8(r, t), r);
    const uint32_t live = (1u << (dim - l)) - 1;  // dim - l is in [1, 31]
    if ((static_cast<uint32_t>(_mm256_movemask_epi8(ge)) & live) != live) {
      return false;
    }
  }
  return true;
}

double RowScoreAvx2(const float* row, const uint32_t* idx, const double* val,
                    size_t nnz) {
  if (nnz == 0) return 0.0;
  alignas(32) double quot[8];
  double sum = 0.0;
  size_t j = 0;
  for (; j + 8 <= nnz; j += 8) {
    const __m256i vi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + j));
    const __m256 cand = _mm256_i32gather_ps(row, vi, 4);
    const __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(cand));
    const __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(cand, 1));
    _mm256_store_pd(quot, _mm256_div_pd(lo, _mm256_loadu_pd(val + j)));
    _mm256_store_pd(quot + 4, _mm256_div_pd(hi, _mm256_loadu_pd(val + j + 4)));
    for (int t = 0; t < 8; ++t) sum += quot[t];
  }
  for (; j < nnz; ++j) {
    sum += static_cast<double>(row[idx[j]]) / val[j];
  }
  return sum / static_cast<double>(nnz);
}

}  // namespace psi::signature::internal

#endif  // PSI_HAVE_AVX2_KERNELS
