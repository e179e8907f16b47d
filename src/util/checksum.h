#ifndef SMARTPSI_UTIL_CHECKSUM_H_
#define SMARTPSI_UTIL_CHECKSUM_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace psi::util {

inline constexpr uint64_t kFnv1a64OffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kFnv1a64Prime = 0x100000001b3ULL;

/// FNV-1a with a 64-bit word as the mixing unit instead of a byte — the
/// integrity checksum of the binary snapshot format (DESIGN.md §16). Not
/// cryptographic: it detects truncation and corruption, not adversaries.
/// One xor+multiply per 8 bytes (a trailing partial word is zero-padded),
/// so the serial multiply dependency chain is 8x shorter than byte-wise
/// FNV-1a's: payloads are megabytes and verified on every load, where a
/// byte-serial hash would dominate the mmap-load path it exists to protect.
/// Words are read in host byte order, like every other scalar in the
/// snapshot format. The optional `seed` lets a caller chain ranges (pass
/// the previous range's digest) so a multi-part checksum covers all parts
/// in order; chaining is only sound when every chained range is a whole
/// multiple of 8 bytes.
inline uint64_t Fnv1a64Words(const void* data, size_t size,
                             uint64_t seed = kFnv1a64OffsetBasis) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  size_t i = 0;
  for (; i + sizeof(uint64_t) <= size; i += sizeof(uint64_t)) {
    uint64_t word;
    std::memcpy(&word, bytes + i, sizeof(word));
    h ^= word;
    h *= kFnv1a64Prime;
  }
  if (i < size) {
    uint64_t word = 0;
    std::memcpy(&word, bytes + i, size - i);
    h ^= word;
    h *= kFnv1a64Prime;
  }
  return h;
}

}  // namespace psi::util

#endif  // SMARTPSI_UTIL_CHECKSUM_H_
