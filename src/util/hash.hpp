// Deterministic, seedable hashing primitives.
//
// Every probabilistic decision in the enforcement plane (next-middlebox
// selection in the load-balanced strategy, flow-table bucketing) is keyed by
// these hashes so that runs are reproducible across platforms. We do not use
// std::hash anywhere decisions matter because its output is implementation
// defined.
#pragma once

#include <cstdint>

namespace sdmbox::util {

/// splitmix64 finalizer — a strong 64-bit mixing function.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Combine two hashes (boost-style but 64-bit, order sensitive).
constexpr std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) noexcept {
  return mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

}  // namespace sdmbox::util
