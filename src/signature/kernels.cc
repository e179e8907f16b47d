#include "signature/kernels.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <numeric>

namespace psi::signature {

namespace {

bool UseAvx2() {
#if defined(PSI_HAVE_AVX2_KERNELS)
  static const bool use = __builtin_cpu_supports("avx2");
  return use;
#else
  return false;
#endif
}

/// out[l] += decay * in[l]: restrict-qualified so the loop vectorizes
/// without a runtime overlap check.
void AddScaledRow(const float* __restrict in, float decay, size_t n,
                  float* __restrict out) {
  for (size_t l = 0; l < n; ++l) out[l] += decay * in[l];
}

}  // namespace

bool KernelsUseAvx2() { return UseAvx2(); }

namespace internal {

bool RowSatisfies(std::span<const float> row, const SparseRequirement& req) {
  assert(row.size() == req.dim());
#if defined(PSI_HAVE_AVX2_KERNELS)
  if (UseAvx2()) {
    return RowSatisfiesAvx2(row.data(), req.indices().data(),
                            req.values().data(), req.nnz());
  }
#endif
  return req.Satisfies(row);
}

double RowScore(std::span<const float> row, const SparseRequirement& req) {
  assert(row.size() == req.dim());
#if defined(PSI_HAVE_AVX2_KERNELS)
  if (UseAvx2()) {
    return RowScoreAvx2(row.data(), req.indices().data(),
                        req.values_double().data(), req.nnz());
  }
#endif
  return req.Score(row);
}

bool CompactRowMaySatisfyScalar(std::span<const uint8_t> row,
                                const SparseRequirement& req) {
  assert(row.size() == req.dim());
  // Dense sweep: unconstrained labels carry threshold code 0, which can
  // never reject (codes are unsigned), so comparing every label is the
  // same decision as comparing only the constrained ones — and it reads
  // both rows as plain contiguous bytes.
  const uint8_t* need = req.dense_threshold_codes().data();
  const size_t dim = req.dim();
  for (size_t l = 0; l < dim; ++l) {
    if (row[l] < need[l]) return false;
  }
  return true;
}

bool CompactRowMaySatisfy(std::span<const uint8_t> row,
                          const SparseRequirement& req) {
  assert(row.size() == req.dim());
#if defined(PSI_HAVE_AVX2_KERNELS)
  if (UseAvx2()) {
    return CompactRowMaySatisfyAvx2(
        row.data(), req.dense_threshold_codes().data(), req.dim());
  }
#endif
  return CompactRowMaySatisfyScalar(row, req);
}

void PropagateRow(const float* prev, size_t num_labels, graph::NodeId u,
                  std::span<const graph::NodeId> nbrs, float decay,
                  float* out) {
#if defined(PSI_HAVE_AVX2_KERNELS)
  if (UseAvx2()) {
    PropagateRowAvx2(prev, num_labels, u, nbrs, decay, out);
    return;
  }
#endif
  std::copy_n(prev + size_t{u} * num_labels, num_labels, out);
  for (const graph::NodeId v : nbrs) {
    AddScaledRow(prev + size_t{v} * num_labels, decay, num_labels, out);
  }
}

}  // namespace internal

size_t FilterCandidates(const SignatureMatrix& sigs,
                        const SparseRequirement& req,
                        std::vector<graph::NodeId>& candidates) {
  assert(sigs.num_labels() == req.dim());
  // An all-zero requirement constrains nothing; skip the row sweep.
  if (req.nnz() == 0) return 0;
  const CompactSignatureMatrix* compact = sigs.compact();
  size_t kept = 0;
  if (compact != nullptr) {
    // Quantized prescreen first (8-bit row sweep), exact float re-check on
    // survivors only. The prescreen never rejects a float-satisfying row
    // (over-admit contract), so this branch keeps exactly the same
    // candidates in the same order as the float-only branch below.
    for (const graph::NodeId c : candidates) {
      if (internal::CompactRowMaySatisfy(compact->row(c), req) &&
          internal::RowSatisfies(sigs.row(c), req)) {
        candidates[kept++] = c;
      }
    }
  } else {
    for (const graph::NodeId c : candidates) {
      if (internal::RowSatisfies(sigs.row(c), req)) candidates[kept++] = c;
    }
  }
  const size_t pruned = candidates.size() - kept;
  candidates.resize(kept);
  return pruned;
}

void ScoreCandidates(const SignatureMatrix& sigs, const SparseRequirement& req,
                     std::span<const graph::NodeId> candidates,
                     std::span<float> scores) {
  assert(sigs.num_labels() == req.dim());
  assert(candidates.size() == scores.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    scores[i] =
        static_cast<float>(internal::RowScore(sigs.row(candidates[i]), req));
  }
}

namespace {

/// Bounded stable selection of the k best scores: maintains (score,
/// position) sorted by score descending with ties in position order, so the
/// result equals the first k entries of a full stable descending sort.
void SelectTopK(const SignatureMatrix& sigs, const SparseRequirement& req,
                std::vector<graph::NodeId>& candidates, RankScratch& scratch,
                size_t k) {
  auto& best_score = scratch.scores;
  auto& best_pos = scratch.order;
  best_score.clear();
  best_pos.clear();
  const size_t n = candidates.size();
  for (uint32_t i = 0; i < n; ++i) {
    const float s =
        static_cast<float>(internal::RowScore(sigs.row(candidates[i]), req));
    // A later candidate only displaces the current kth score if strictly
    // better — equal scores keep the earlier position (stability).
    if (best_score.size() == k && !(s > best_score.back())) continue;
    size_t pos = best_score.size();
    while (pos > 0 && best_score[pos - 1] < s) --pos;
    if (best_score.size() < k) {
      best_score.insert(best_score.begin() + pos, s);
      best_pos.insert(best_pos.begin() + pos, i);
    } else {
      for (size_t j = best_score.size() - 1; j > pos; --j) {
        best_score[j] = best_score[j - 1];
        best_pos[j] = best_pos[j - 1];
      }
      best_score[pos] = s;
      best_pos[pos] = i;
    }
  }
  scratch.tmp.resize(best_pos.size());
  for (size_t j = 0; j < best_pos.size(); ++j) {
    scratch.tmp[j] = candidates[best_pos[j]];
  }
  candidates.swap(scratch.tmp);
}

/// Maps a score to a 32-bit key whose *ascending* unsigned order equals the
/// score's descending `operator>` order, with +0.0f and -0.0f mapped to the
/// same key (they are `>`-ties, so the index tiebreak must decide them).
/// Scores are satisfiability averages and thus never NaN.
uint32_t DescendingScoreKey(float score) {
  uint32_t bits = std::bit_cast<uint32_t>(score);
  if (bits == 0x80000000u) bits = 0;  // -0.0f == +0.0f under operator>
  // Monotone total-order mapping: flip the sign bit for non-negatives,
  // flip everything for negatives; then invert for descending order.
  const uint32_t monotone =
      (bits & 0x80000000u) ? ~bits : (bits | 0x80000000u);
  return ~monotone;
}

}  // namespace

void ScoreAndRank(const SignatureMatrix& sigs, const SparseRequirement& req,
                  std::vector<graph::NodeId>& candidates, RankScratch& scratch,
                  size_t k, RankMode mode) {
  assert(sigs.num_labels() == req.dim());
  if (mode == RankMode::kCapFirst && k > 0 && candidates.size() > k) {
    candidates.resize(k);
  }
  const size_t n = candidates.size();
  if (n <= 1) return;
  if (mode == RankMode::kTopKByScore && k > 0 && k < n) {
    SelectTopK(sigs, req, candidates, scratch, k);
    return;
  }
  scratch.scores.resize(n);
  ScoreCandidates(sigs, req, candidates, scratch.scores);
  // Pack (descending score key, original index) into one 64-bit integer:
  // an unstable sort of the packed keys is equivalent to a stable
  // descending sort by score — the index in the low bits breaks every tie
  // deterministically — and sorts integers branchlessly instead of chasing
  // float loads through an index indirection.
  scratch.keys.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    scratch.keys[i] =
        (static_cast<uint64_t>(DescendingScoreKey(scratch.scores[i])) << 32) |
        i;
  }
  std::sort(scratch.keys.begin(), scratch.keys.end());
  scratch.tmp.resize(n);
  for (size_t i = 0; i < n; ++i) {
    scratch.tmp[i] = candidates[static_cast<uint32_t>(scratch.keys[i])];
  }
  candidates.swap(scratch.tmp);
}

}  // namespace psi::signature
