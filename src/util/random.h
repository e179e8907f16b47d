#ifndef SMARTPSI_UTIL_RANDOM_H_
#define SMARTPSI_UTIL_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace psi::util {

/// SplitMix64 generator. Primarily used to seed Xoshiro256++, but it is a
/// perfectly serviceable (and very fast) generator on its own.
class SplitMix64 {
 public:
  using result_type = uint64_t;

  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  static constexpr uint64_t min() { return 0; }
  static constexpr uint64_t max() {
    return std::numeric_limits<uint64_t>::max();
  }

  uint64_t operator()() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

/// Xoshiro256++: the project's default deterministic pseudo-random generator.
/// All randomized components (graph generators, query extraction, training
/// sampling, plan sampling, the ML learners) draw from instances of this
/// class so that every experiment is reproducible from a single seed.
class Rng {
 public:
  using result_type = uint64_t;

  /// Seeds the four 64-bit words of state from `seed` via SplitMix64.
  explicit Rng(uint64_t seed = 0x5eed5eed5eedULL);

  static constexpr uint64_t min() { return 0; }
  static constexpr uint64_t max() {
    return std::numeric_limits<uint64_t>::max();
  }

  uint64_t operator()() { return Next(); }

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses Lemire's
  /// multiply-shift rejection method (unbiased).
  uint64_t NextBounded(uint64_t bound);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// True with probability `p` (clamped to [0, 1]).
  bool NextBool(double p = 0.5);

  /// Standard normal variate (Box-Muller; one value per call, no caching).
  double NextGaussian();

  /// Forks an independent generator; the child stream does not overlap the
  /// parent's for any practical sequence length.
  Rng Fork();

 private:
  uint64_t s_[4];
};

/// Zipf(s, n) sampler over {0, 1, ..., n-1} using the inverse-CDF table.
/// Used to assign skewed node labels in the synthetic dataset stand-ins.
class ZipfSampler {
 public:
  /// `n` must be >= 1; `exponent` >= 0 (0 degenerates to uniform).
  ZipfSampler(size_t n, double exponent);

  /// Draws one value in [0, n).
  size_t Sample(Rng& rng) const;

  size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// In-place Fisher-Yates shuffle.
template <typename T>
void Shuffle(std::vector<T>& items, Rng& rng) {
  for (size_t i = items.size(); i > 1; --i) {
    size_t j = rng.NextBounded(i);
    std::swap(items[i - 1], items[j]);
  }
}

/// Reservoir-samples `k` items from [0, n). The result is unsorted.
std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k, Rng& rng);

}  // namespace psi::util

#endif  // SMARTPSI_UTIL_RANDOM_H_
