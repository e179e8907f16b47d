#include "signature/signature_matrix.h"

#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <utility>

#include "signature/compact_signature.h"

namespace psi::signature {

// Special members live out of line: compact_ is a unique_ptr to a type the
// header only forward-declares, so destruction/copy must see the complete
// CompactSignatureMatrix definition.

SignatureMatrix::SignatureMatrix() = default;

SignatureMatrix::SignatureMatrix(size_t num_rows, size_t num_labels,
                                 Method method, uint32_t depth, float decay)
    : num_rows_(num_rows),
      num_labels_(num_labels),
      method_(method),
      depth_(depth),
      decay_(decay),
      data_(num_rows * num_labels, 0.0f),
      row_hashes_(MakeHashSlots(num_rows)) {}

SignatureMatrix::~SignatureMatrix() = default;

SignatureMatrix::SignatureMatrix(const SignatureMatrix& other)
    : num_rows_(other.num_rows_),
      num_labels_(other.num_labels_),
      method_(other.method_),
      depth_(other.depth_),
      decay_(other.decay_),
      data_(other.data_ptr(),
            other.data_ptr() + other.num_rows_ * other.num_labels_),
      row_hashes_(MakeHashSlots(other.num_rows_)) {}

SignatureMatrix& SignatureMatrix::operator=(const SignatureMatrix& other) {
  if (this != &other) *this = SignatureMatrix(other);
  return *this;
}

SignatureMatrix::SignatureMatrix(SignatureMatrix&& other) noexcept
    : num_rows_(std::exchange(other.num_rows_, 0)),
      num_labels_(std::exchange(other.num_labels_, 0)),
      method_(other.method_),
      depth_(other.depth_),
      decay_(other.decay_),
      data_(std::move(other.data_)),
      external_(std::exchange(other.external_, nullptr)),
      row_hashes_(std::move(other.row_hashes_)),
      compact_(std::move(other.compact_)) {}

SignatureMatrix& SignatureMatrix::operator=(SignatureMatrix&& other) noexcept {
  if (this != &other) {
    num_rows_ = std::exchange(other.num_rows_, 0);
    num_labels_ = std::exchange(other.num_labels_, 0);
    method_ = other.method_;
    depth_ = other.depth_;
    decay_ = other.decay_;
    data_ = std::move(other.data_);
    external_ = std::exchange(other.external_, nullptr);
    row_hashes_ = std::move(other.row_hashes_);
    compact_ = std::move(other.compact_);
  }
  return *this;
}

SignatureMatrix SignatureMatrix::FromExternal(const float* data,
                                              size_t num_rows,
                                              size_t num_labels, Method method,
                                              uint32_t depth, float decay) {
  SignatureMatrix m;
  m.num_rows_ = num_rows;
  m.num_labels_ = num_labels;
  m.method_ = method;
  m.depth_ = depth;
  m.decay_ = decay;
  m.external_ = data;
  m.row_hashes_ = MakeHashSlots(num_rows);
  return m;
}

void SignatureMatrix::SwapData(SignatureMatrix& other) {
  data_.swap(other.data_);
  std::swap(external_, other.external_);
  row_hashes_.swap(other.row_hashes_);
  compact_.swap(other.compact_);
}

void SignatureMatrix::AdoptRowHashes(std::span<const uint64_t> hashes) {
  assert(hashes.size() == num_rows_);
  for (size_t i = 0; i < hashes.size(); ++i) {
    row_hashes_[i].store(MemoValue(hashes[i]), std::memory_order_relaxed);
  }
}

void SignatureMatrix::MemoizeRowHashes(size_t begin, size_t end) const {
  assert(begin <= end && end <= num_rows_);
  for (size_t i = begin; i < end; ++i) {
    row_hashes_[i].store(MemoValue(HashSignature(row(i))),
                         std::memory_order_relaxed);
  }
}

void SignatureMatrix::AttachCompact(
    std::unique_ptr<CompactSignatureMatrix> compact) {
  assert(compact == nullptr || (compact->num_rows() == num_rows_ &&
                                compact->num_labels() == num_labels_));
  compact_ = std::move(compact);
}

void SignatureMatrix::BuildCompact() {
  compact_ = std::make_unique<CompactSignatureMatrix>(
      CompactSignatureMatrix::Build(*this));
}

const char* MethodName(Method method) {
  switch (method) {
    case Method::kExploration:
      return "exploration";
    case Method::kMatrix:
      return "matrix";
  }
  return "unknown";
}

bool Satisfies(std::span<const float> candidate,
               std::span<const float> required) {
  assert(candidate.size() == required.size());
  for (size_t l = 0; l < required.size(); ++l) {
    if (required[l] > 0.0f &&
        candidate[l] + kSatisfactionEpsilon < required[l]) {
      return false;
    }
  }
  return true;
}

double SatisfiabilityScore(std::span<const float> candidate,
                           std::span<const float> required) {
  assert(candidate.size() == required.size());
  double sum = 0.0;
  size_t terms = 0;
  for (size_t l = 0; l < required.size(); ++l) {
    if (required[l] > 0.0f) {
      sum += static_cast<double>(candidate[l]) /
             static_cast<double>(required[l]);
      ++terms;
    }
  }
  return terms == 0 ? 0.0 : sum / static_cast<double>(terms);
}

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

/// kFnvPrime^k for k = 0..64. FNV-1a turns a zero byte into one multiply
/// (h ^= 0 changes nothing), so a run of k zero bytes is one multiply by
/// kFnvPrimePowers[k].
constexpr std::array<uint64_t, 65> kFnvPrimePowers = [] {
  std::array<uint64_t, 65> powers{};
  uint64_t p = 1;
  for (uint64_t& power : powers) {
    power = p;
    p *= kFnvPrime;
  }
  return powers;
}();

/// std::llround(x) without the libm call: nearest integer, halves away from
/// zero. Out of range (|x| >= 2^63, NaN) it returns INT64_MIN, the value
/// llround produces there on x86-64.
int64_t RoundHalfAwayFromZero(float x) {
  if (!(std::fabs(x) < 0x1p63f)) return INT64_MIN;
  const auto truncated = static_cast<int64_t>(x);
  // Exact: x and its truncation share the float's exponent range.
  const float fraction = x - static_cast<float>(truncated);
  return truncated + (fraction >= 0.5f) - (fraction <= -0.5f);
}

}  // namespace

uint64_t HashSignature(std::span<const float> row) {
  // FNV-1a over the 8 little-endian bytes of each 1/1024-quantized weight,
  // with each weight's high zero bytes (and whole zero weights) held back
  // as a pending run and applied as one multiply before the next nonzero
  // byte. Same value as the byte-at-a-time loop.
  uint64_t h = kFnvOffset;
  size_t zeros = 0;
  auto flush_zeros = [&] {
    for (; zeros > 64; zeros -= 64) h *= kFnvPrimePowers[64];
    h *= kFnvPrimePowers[zeros];
    zeros = 0;
  };
  for (const float w : row) {
    const auto bits =
        static_cast<uint64_t>(RoundHalfAwayFromZero(w * 1024.0f));
    if (bits == 0) {
      zeros += 8;
      continue;
    }
    flush_zeros();
    const int bytes = (71 - std::countl_zero(bits)) / 8;  // 1..8
    for (int byte = 0; byte < bytes; ++byte) {
      h ^= (bits >> (byte * 8)) & 0xffULL;
      h *= kFnvPrime;
    }
    zeros = 8 - bytes;
  }
  flush_zeros();
  return h;
}

}  // namespace psi::signature
