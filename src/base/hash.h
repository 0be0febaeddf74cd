// Small non-cryptographic hashes used by kernel data structures
// (the graft-callable open hash table, thread-id validity table, the graft
// namespace's index and the Tier-1 artifact table).

#ifndef VINOLITE_SRC_BASE_HASH_H_
#define VINOLITE_SRC_BASE_HASH_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace vino {

// FNV-1a over bytes.
[[nodiscard]] constexpr uint64_t Fnv1a(const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

[[nodiscard]] inline uint64_t Fnv1a(std::string_view s) {
  return Fnv1a(s.data(), s.size());
}

// Finalizer for integer keys (splitmix64 mix); good avalanche, cheap.
[[nodiscard]] constexpr uint64_t MixU64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// One step of a word-at-a-time hash: folds a 64-bit word into `h` with one
// multiply. Finish a run of steps with MixU64 for avalanche.
[[nodiscard]] constexpr uint64_t HashStep(uint64_t h, uint64_t word) {
  return std::rotl((h ^ word) * 0x9e3779b97f4a7c15ull, 29);
}

// Word-at-a-time hash of a byte string: eight bytes per step, the tail
// zero-padded, the length folded into the seed. No division anywhere, so a
// table indexes with a mask.
[[nodiscard]] inline uint64_t HashBytes(std::string_view s) {
  const char* p = s.data();
  size_t n = s.size();
  uint64_t h = n;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    h = HashStep(h, word);
  }
  if (n > 0) {
    uint64_t word = 0;
    std::memcpy(&word, p, n);
    h = HashStep(h, word);
  }
  return MixU64(h);
}

}  // namespace vino

#endif  // VINOLITE_SRC_BASE_HASH_H_
