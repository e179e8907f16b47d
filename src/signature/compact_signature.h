#ifndef SMARTPSI_SIGNATURE_COMPACT_SIGNATURE_H_
#define SMARTPSI_SIGNATURE_COMPACT_SIGNATURE_H_

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "signature/signature_matrix.h"

namespace psi::signature {

/// 8-bit log-quantization grid for signature weights (DESIGN.md §16.1).
///
/// The grid divides the IEEE-754 bit patterns of [2^-24, 2^24) into 254
/// equal bit-pattern buckets. Because positive float bit patterns are
/// monotone in the value, bucketing bit patterns is a monotone log-ish
/// quantizer with no float arithmetic at all — two builds of the same
/// matrix quantize identically on every compiler and architecture.
///
/// Code meaning:
///   0            weight <= 0 (signatures are nonnegative, so: exactly 0)
///   1            0 < weight < 2^-24 (denormals and tiny weights)
///   2 .. 254     the 254 grid buckets across [2^-24, 2^24)
///   255          weight >= 2^24 (saturated)
///
/// (Code 1 doubles as the lowest bucket: QuantizeWeight maps the first
/// bucket of [2^-24, ...) to 1 as well; only monotonicity matters.)
inline constexpr uint32_t kQuantLoBits = 0x33800000u;  // bits of 2^-24f
inline constexpr uint32_t kQuantHiBits = 0x4b800000u;  // bits of 2^24f

/// Monotone: w1 <= w2 implies QuantizeWeight(w1) <= QuantizeWeight(w2).
inline uint8_t QuantizeWeight(float w) {
  if (!(w > 0.0f)) return 0;
  const uint32_t bits = std::bit_cast<uint32_t>(w);
  if (bits < kQuantLoBits) return 1;
  if (bits >= kQuantHiBits) return 255;
  constexpr uint64_t kSpan = kQuantHiBits - kQuantLoBits;
  return static_cast<uint8_t>(
      1 + (static_cast<uint64_t>(bits - kQuantLoBits) * 254) / kSpan);
}

/// Conservative quantized threshold for a required weight `r`: the largest
/// code T such that every candidate weight c passing the float test
/// (fl(c + kSatisfactionEpsilon) >= r) is guaranteed QuantizeWeight(c) >= T.
///
/// Construction: y = fl(r - epsilon). Any float-admitted c satisfies
/// c >= y - (a few ulps of rounding slop), so QuantizeWeight(c) can sit at
/// most ONE bucket below QuantizeWeight(y) — a bucket spans ~1.59 million
/// bit-pattern steps, vastly more than the slop — hence T = Q(y) - 1.
/// The over-admit soundness proof sketch is in DESIGN.md §16.1.
inline uint8_t ThresholdCode(float required) {
  const float y = required - kSatisfactionEpsilon;
  if (!(y > 0.0f)) return 0;
  const uint8_t q = QuantizeWeight(y);  // >= 1 since y > 0
  return static_cast<uint8_t>(q - 1);
}

/// Row-major (num_rows × num_labels) matrix of QuantizeWeight codes — the
/// compact companion of a SignatureMatrix (8 bits/entry instead of 32).
/// The bulk filter kernels use it as a conservative prescreen: a row whose
/// codes fall below a requirement's ThresholdCodes cannot satisfy the float
/// test, so the exact float row is only touched for survivors. Decisions
/// stay byte-identical to the float-only path (over-admit + exact recheck).
///
/// The matrix either owns its codes (Build / the sizing constructor) or is
/// a zero-copy view over an external buffer (a mapped .psnap section). A
/// view's buffer must outlive the view and must keep kTailPadBytes extra
/// readable bytes past the last code — the AVX2 prescreen loads the tail
/// of a row as one full 32-byte vector and masks the excess lanes, so it
/// reads (never uses) up to 31 bytes past the final code. Owned buffers
/// over-allocate the pad; the .psnap writer's tail padding provides it
/// for views.
class CompactSignatureMatrix {
 public:
  static constexpr size_t kTailPadBytes = 31;

  CompactSignatureMatrix() = default;

  /// Owned, zero-initialized codes (all-zero rows = empty signatures).
  CompactSignatureMatrix(size_t num_rows, size_t num_labels)
      : num_rows_(num_rows),
        num_labels_(num_labels),
        owned_(num_rows * num_labels + kTailPadBytes, 0) {}

  /// Quantizes every entry of `sigs` into an owned compact matrix.
  static CompactSignatureMatrix Build(const SignatureMatrix& sigs);

  /// Zero-copy view over `codes` (row-major, num_rows × num_labels). See
  /// the class comment for the lifetime and tail-pad requirements.
  static CompactSignatureMatrix View(const uint8_t* codes, size_t num_rows,
                                     size_t num_labels) {
    CompactSignatureMatrix m;
    m.num_rows_ = num_rows;
    m.num_labels_ = num_labels;
    m.view_ = codes;
    return m;
  }

  CompactSignatureMatrix(const CompactSignatureMatrix&) = delete;
  CompactSignatureMatrix& operator=(const CompactSignatureMatrix&) = delete;
  CompactSignatureMatrix(CompactSignatureMatrix&& other) noexcept
      : num_rows_(std::exchange(other.num_rows_, 0)),
        num_labels_(std::exchange(other.num_labels_, 0)),
        owned_(std::move(other.owned_)),
        view_(std::exchange(other.view_, nullptr)) {}
  CompactSignatureMatrix& operator=(CompactSignatureMatrix&& other) noexcept {
    if (this != &other) {
      num_rows_ = std::exchange(other.num_rows_, 0);
      num_labels_ = std::exchange(other.num_labels_, 0);
      owned_ = std::move(other.owned_);
      view_ = std::exchange(other.view_, nullptr);
    }
    return *this;
  }

  size_t num_rows() const { return num_rows_; }
  size_t num_labels() const { return num_labels_; }

  const uint8_t* data() const {
    return view_ != nullptr ? view_ : owned_.data();
  }

  std::span<const uint8_t> row(size_t i) const {
    return {data() + i * num_labels_, num_labels_};
  }

  /// Writable row pointer; only valid on owned matrices.
  uint8_t* mutable_row(size_t i) {
    assert(view_ == nullptr);
    return owned_.data() + i * num_labels_;
  }

 private:
  size_t num_rows_ = 0;
  size_t num_labels_ = 0;
  std::vector<uint8_t> owned_;
  const uint8_t* view_ = nullptr;
};

}  // namespace psi::signature

#endif  // SMARTPSI_SIGNATURE_COMPACT_SIGNATURE_H_
