#include "util/random.h"

#include <cassert>
#include <cmath>

namespace psi::util {

namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm();
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  assert(bound > 0);
  // Lemire's nearly-divisionless unbiased bounded generation.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t low = static_cast<uint64_t>(m);
  if (low < bound) {
    uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

double Rng::NextDouble() {
  // 53 random mantissa bits.
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::NextBool(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::NextGaussian() {
  // Box-Muller; guard against log(0).
  double u1 = NextDouble();
  while (u1 <= 1e-300) u1 = NextDouble();
  const double u2 = NextDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

Rng Rng::Fork() { return Rng(Next() ^ 0x9e3779b97f4a7c15ULL); }

ZipfSampler::ZipfSampler(size_t n, double exponent) {
  assert(n >= 1);
  cdf_.resize(n);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
    cdf_[i] = total;
  }
  for (auto& value : cdf_) value /= total;
}

size_t ZipfSampler::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  // Binary search for the first CDF entry >= u.
  size_t lo = 0;
  size_t hi = cdf_.size() - 1;
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k, Rng& rng) {
  if (k >= n) {
    std::vector<size_t> all(n);
    for (size_t i = 0; i < n; ++i) all[i] = i;
    return all;
  }
  // Reservoir sampling.
  std::vector<size_t> reservoir(k);
  for (size_t i = 0; i < k; ++i) reservoir[i] = i;
  for (size_t i = k; i < n; ++i) {
    const size_t j = rng.NextBounded(i + 1);
    if (j < k) reservoir[j] = i;
  }
  return reservoir;
}

}  // namespace psi::util
