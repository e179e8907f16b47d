#ifndef SMARTPSI_SIGNATURE_SIGNATURE_MATRIX_H_
#define SMARTPSI_SIGNATURE_SIGNATURE_MATRIX_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace psi::signature {

/// Slack added to the candidate side of every satisfaction comparison so
/// float rounding cannot prune exact-equality matches (a node can always
/// match itself). Shared by the scalar reference tests and the batched
/// kernels so both make byte-identical decisions.
inline constexpr float kSatisfactionEpsilon = 1e-5f;

/// How a signature matrix was produced. Pruning and scoring are only sound
/// when the query-side and data-side signatures come from the same method
/// (enforced by the SmartPSI engine; see DESIGN.md §5).
enum class Method {
  /// Per-node BFS, label weight = sum over reached nodes of 2^-dist using
  /// shortest-path distances (paper §3.1, the "traditional" approach).
  kExploration,
  /// Iterative propagation NS^i = NS^{i-1} + ½·A·NS^{i-1} (paper's
  /// optimized matrix-based approach; weights count walks, not shortest
  /// paths, which the paper notes may differ from exploration weights).
  kMatrix,
};

const char* MethodName(Method method);

/// Hash of a signature row after quantization (weights are multiples of
/// 2^-depth for exploration signatures; matrix weights are quantized to
/// 1/1024): FNV-1a over the little-endian bytes of each weight rounded
/// half away from zero to an int64 count of 1/1024ths. Two nodes with equal
/// hashes almost surely have identical neighborhoods at the signature's
/// resolution — the key of SmartPSI's prediction cache (paper §4.2.3).
/// The values are persisted in the ROW_HASHES section of .psnap files, so
/// they must not change without a format version bump. Hot callers should
/// prefer the memoized SignatureMatrix::RowHash.
uint64_t HashSignature(std::span<const float> row);

class CompactSignatureMatrix;

/// Dense row-major (num_rows × num_labels) float matrix of neighborhood
/// signatures: row u, column l = weight of label l around node u
/// (Definition 3.1). Rows are the ML feature vectors of SmartPSI.
///
/// The matrix either owns its floats (the default; every builder produces
/// owned matrices) or is a zero-copy *view* over an external buffer — the
/// SIG_FLOAT section of a mapped .psnap snapshot (DESIGN.md §16). Views are
/// immutable: the mutating accessors assert ownership, and the external
/// buffer must outlive the matrix (the snapshot's backing handle guarantees
/// this; see service/snapshot_io.h). Copying a view materializes it into an
/// owned matrix.
///
/// A matrix may carry an attached CompactSignatureMatrix — the 8-bit
/// quantized companion the bulk filter kernels use as a conservative
/// prescreen (compact_signature.h). The attachment is an acceleration
/// cache, not state: copies drop it, like the memoized row hashes.
class SignatureMatrix {
 public:
  /// Per-hop weight decay the paper uses (2^-d distance weighting).
  static constexpr float kDefaultDecay = 0.5f;

  SignatureMatrix();
  SignatureMatrix(size_t num_rows, size_t num_labels, Method method,
                  uint32_t depth, float decay = kDefaultDecay);
  ~SignatureMatrix();

  /// Copies drop the memoized row hashes and any attached compact matrix
  /// (both recomputed on demand) and materialize views into owned data.
  SignatureMatrix(const SignatureMatrix& other);
  SignatureMatrix& operator=(const SignatureMatrix& other);
  SignatureMatrix(SignatureMatrix&& other) noexcept;
  SignatureMatrix& operator=(SignatureMatrix&& other) noexcept;

  /// Zero-copy view over `data` (row-major, num_rows × num_labels floats).
  /// The buffer must outlive the returned matrix and stay immutable.
  static SignatureMatrix FromExternal(const float* data, size_t num_rows,
                                      size_t num_labels, Method method,
                                      uint32_t depth, float decay);

  size_t num_rows() const { return num_rows_; }
  size_t num_labels() const { return num_labels_; }
  Method method() const { return method_; }
  uint32_t depth() const { return depth_; }

  /// Per-hop decay factor used at construction. Proposition 3.2 pruning is
  /// sound for any decay in (0, 1] as long as query- and data-side
  /// signatures use the same value (the evaluator asserts this).
  float decay() const { return decay_; }

  /// False for a zero-copy view over an external (mapped) buffer.
  bool owns_data() const { return external_ == nullptr; }

  std::span<float> row(size_t i) {
    assert(owns_data());
    return {data_.data() + i * num_labels_, num_labels_};
  }
  std::span<const float> row(size_t i) const {
    return {data_ptr() + i * num_labels_, num_labels_};
  }

  float at(size_t i, size_t l) const { return data_ptr()[i * num_labels_ + l]; }
  float& at(size_t i, size_t l) {
    assert(owns_data());
    return data_[i * num_labels_ + l];
  }

  /// Swaps the backing stores of two equally-shaped matrices (double
  /// buffering inside the matrix builder). Memoized row hashes and any
  /// compact attachment follow their data.
  void SwapData(SignatureMatrix& other);

  /// Lazily computed, memoized HashSignature(row(i)) — the prediction-cache
  /// key of hot candidates, so repeated lookups stop rehashing the full
  /// row. Thread-safe for concurrent readers (the service shares one
  /// matrix across workers): a duplicated first computation is benign since
  /// every thread derives the same value from the immutable row.
  ///
  /// Only call once the matrix contents are final — mutating a row through
  /// the non-const accessors does not invalidate an already-memoized hash.
  /// In the astronomically unlikely case a row hashes to the reserved
  /// "unset" sentinel 0, a fixed substitute is memoized instead; callers
  /// use the value as an opaque cache key, so this never affects results.
  uint64_t RowHash(size_t i) const {
    std::atomic<uint64_t>& slot = row_hashes_[i];
    uint64_t h = slot.load(std::memory_order_relaxed);
    if (h != 0) return h;
    h = MemoValue(HashSignature(row(i)));
    slot.store(h, std::memory_order_relaxed);
    return h;
  }

  /// Memoizes RowHash for rows [begin, end) in one pass — the publish-time
  /// prewarm, so a freshly swapped-in snapshot serves its first queries at
  /// steady-state latency. Stores exactly what RowHash would.
  void MemoizeRowHashes(size_t begin, size_t end) const;

  /// Seeds the RowHash memo from precomputed values (a .psnap ROW_HASHES
  /// section), so a mapped snapshot skips the first-touch rehash of every
  /// row. `hashes` must hold num_rows() values produced by RowHash /
  /// HashSignature over the same rows; a stored 0 is replaced by the same
  /// fixed substitute RowHash would memoize.
  void AdoptRowHashes(std::span<const uint64_t> hashes);

  /// Attaches / replaces the quantized companion matrix consulted by the
  /// bulk filter kernels. Pass nullptr to detach. The attachment must have
  /// been built from (or sliced bit-identically to) this matrix's rows —
  /// the kernels trust its over-admit contract.
  void AttachCompact(std::unique_ptr<CompactSignatureMatrix> compact);

  /// Quantizes this matrix and attaches the result (Build + AttachCompact).
  void BuildCompact();

  /// The attached quantized companion, or nullptr if none.
  const CompactSignatureMatrix* compact() const { return compact_.get(); }

 private:
  /// The memo slot value for hash `h`: 0 marks an unset slot, so a row
  /// hashing to 0 memoizes a fixed substitute instead.
  static uint64_t MemoValue(uint64_t h) {
    return h != 0 ? h : 0x9e3779b97f4a7c15ULL;
  }

  static std::unique_ptr<std::atomic<uint64_t>[]> MakeHashSlots(size_t n) {
    return n == 0 ? nullptr
                  : std::make_unique<std::atomic<uint64_t>[]>(n);
  }

  const float* data_ptr() const {
    return external_ != nullptr ? external_ : data_.data();
  }

  size_t num_rows_ = 0;
  size_t num_labels_ = 0;
  Method method_ = Method::kExploration;
  uint32_t depth_ = 0;
  float decay_ = kDefaultDecay;
  std::vector<float> data_;
  /// Non-null = zero-copy view (data_ stays empty); see owns_data().
  const float* external_ = nullptr;
  /// RowHash memoization; slot value 0 = not yet computed.
  mutable std::unique_ptr<std::atomic<uint64_t>[]> row_hashes_;
  /// Optional 8-bit quantized companion (see AttachCompact).
  std::unique_ptr<CompactSignatureMatrix> compact_;
};

/// Satisfaction test (paper §3.2): `candidate` satisfies `required` iff for
/// every label with required weight > 0 the candidate weight is >= it.
/// A small epsilon keeps float rounding from pruning exact-equality matches
/// (a node can always match itself). Spans must have equal length.
bool Satisfies(std::span<const float> candidate,
               std::span<const float> required);

/// Satisfiability score (paper §3.3):
///   SS(u, v) = avg over labels l with NS_v(l) > 0 of NS_u(l) / NS_v(l).
/// Higher scores mean the candidate's neighborhood over-covers the query
/// node's requirements; the optimist visits high scores first. Returns 0 for
/// an all-zero `required` row.
double SatisfiabilityScore(std::span<const float> candidate,
                           std::span<const float> required);

}  // namespace psi::signature

#endif  // SMARTPSI_SIGNATURE_SIGNATURE_MATRIX_H_
