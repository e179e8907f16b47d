#ifndef SMARTPSI_SIGNATURE_KERNELS_H_
#define SMARTPSI_SIGNATURE_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.h"
#include "signature/compact_signature.h"
#include "signature/signature_matrix.h"
#include "signature/sparse_requirement.h"

namespace psi::signature {

/// Bulk satisfaction/score kernels over whole candidate lists (DESIGN.md
/// §9). Each candidate id is a row of the signature matrix; the kernels
/// sweep those rows in one pass instead of one scalar call per candidate,
/// touching only the O(nnz) labels of the sparse query requirement. The
/// scalar loops are structured for auto-vectorization; when the library is
/// built with the AVX2 toggle (see README) and the CPU supports it, an
/// explicit gather-based AVX2 path is dispatched at runtime. All paths make
/// byte-identical decisions, scores, and orderings (property-tested against
/// the dense scalar reference in signature_matrix.h).

/// True when the explicit AVX2 kernels were compiled in AND the running CPU
/// supports them (runtime dispatch; scalar fallback otherwise).
bool KernelsUseAvx2();

/// Removes the candidates whose signature rows do not satisfy `req`
/// (Proposition 3.2), in place and order-preserving. Returns the number of
/// candidates pruned. Decisions are bit-identical to calling the scalar
/// Satisfies(sigs.row(c), required) per candidate.
///
/// When `sigs` carries an attached CompactSignatureMatrix, each row is
/// prescreened against the requirement's quantized threshold codes — an
/// 8-bit sweep that rejects most non-satisfying rows without touching their
/// floats — and only prescreen survivors run the exact float test. The
/// prescreen can only over-admit (compact_signature.h), so the kept set is
/// still byte-identical to the float-only path.
size_t FilterCandidates(const SignatureMatrix& sigs,
                        const SparseRequirement& req,
                        std::vector<graph::NodeId>& candidates);

/// Fills scores[i] with the satisfiability score of candidates[i], as the
/// float the search actually sorts by: bit-identical to
/// static_cast<float>(SatisfiabilityScore(sigs.row(c), required)).
/// `scores` must have candidates.size() entries.
void ScoreCandidates(const SignatureMatrix& sigs, const SparseRequirement& req,
                     std::span<const graph::NodeId> candidates,
                     std::span<float> scores);

/// How ScoreAndRank treats its `k` argument.
enum class RankMode {
  /// Rank the whole list; `k` is ignored.
  kFull,
  /// Truncate to the *first* k candidates (the super-optimist's cap,
  /// Algorithm 1 line 4 — applied before sorting so sorting work is
  /// bounded too), then rank those.
  kCapFirst,
  /// Keep the k *best-scoring* candidates via a bounded partial-sort
  /// (ties broken by original position). Equivalent to the first k
  /// entries of a kFull ranking, computed in O(n log k).
  kTopKByScore,
};

/// Reusable buffers for ScoreAndRank; hold one per search scratch so
/// repeated rankings allocate nothing after warmup.
struct RankScratch {
  std::vector<float> scores;
  std::vector<uint32_t> order;
  std::vector<uint64_t> keys;
  std::vector<graph::NodeId> tmp;
};

/// Reorders `candidates` by satisfiability score, descending, stable (ties
/// keep their original relative order) — exactly the order the optimist
/// visits. The ranking is bit-identical to scoring every candidate with the
/// scalar reference and stable-sorting by the float score.
void ScoreAndRank(const SignatureMatrix& sigs, const SparseRequirement& req,
                  std::vector<graph::NodeId>& candidates, RankScratch& scratch,
                  size_t k = 0, RankMode mode = RankMode::kFull);

namespace internal {

/// One-row primitives backing the bulk kernels (scalar or AVX2, dispatched
/// once at load). Exposed for tests and benchmarks.
bool RowSatisfies(std::span<const float> row, const SparseRequirement& req);
double RowScore(std::span<const float> row, const SparseRequirement& req);

/// Conservative quantized prescreen of one compact row: false means the
/// exact float test is guaranteed to fail; true means "maybe" and the
/// caller must re-check the float row. Dispatched scalar/AVX2 like
/// RowSatisfies; both paths return identical booleans for every input.
bool CompactRowMaySatisfy(std::span<const uint8_t> row,
                          const SparseRequirement& req);

/// The always-available scalar reference for CompactRowMaySatisfy (the
/// parity anchor of the property tests).
bool CompactRowMaySatisfyScalar(std::span<const uint8_t> row,
                                const SparseRequirement& req);

/// One round of the matrix-signature recurrence (builders.h) for node u:
/// out = prev[u] + decay * prev[v] for each neighbour v, added neighbour by
/// neighbour in adjacency order, so every label's float sum rounds exactly
/// as the dense reference loop does. `prev` is the row-major NS^{i-1}
/// matrix (num_labels floats per row); `out` is u's row of NS^i and must
/// not overlap `prev`. Dispatched scalar/AVX2 like RowSatisfies; both paths
/// produce bit-identical rows (one rounded multiply and one rounded add per
/// label and neighbour, never a fused multiply-add).
void PropagateRow(const float* prev, size_t num_labels, graph::NodeId u,
                  std::span<const graph::NodeId> nbrs, float decay,
                  float* out);

#if defined(PSI_HAVE_AVX2_KERNELS)
/// Definitions live in kernels_avx2.cc, compiled with -mavx2; only called
/// after a runtime __builtin_cpu_supports("avx2") check.
bool RowSatisfiesAvx2(const float* row, const uint32_t* idx, const float* val,
                      size_t nnz);
double RowScoreAvx2(const float* row, const uint32_t* idx, const double* val,
                    size_t nnz);
/// Dense variant of the compact prescreen: 32 labels per compare with
/// contiguous byte loads (no gathers). The tail is loaded as one full
/// vector and masked, so the kernel may *read* (never use) up to
/// CompactSignatureMatrix::kTailPadBytes bytes past the last code of both
/// `row` and `tcodes`; every compact buffer and every
/// SparseRequirement::dense_threshold_codes() buffer guarantees that pad.
bool CompactRowMaySatisfyAvx2(const uint8_t* row, const uint8_t* tcodes,
                              size_t dim);
/// PropagateRow over blocks of up to 64 labels held in registers across
/// the whole neighbour list; a block's last 1-8 lanes are masked loads and
/// stores, so no row is read or written past its end.
void PropagateRowAvx2(const float* prev, size_t num_labels, graph::NodeId u,
                      std::span<const graph::NodeId> nbrs, float decay,
                      float* out);
#endif

}  // namespace internal

}  // namespace psi::signature

#endif  // SMARTPSI_SIGNATURE_KERNELS_H_
