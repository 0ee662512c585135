// Deterministic pseudo-random number generation.
//
// All stochastic components of the system (topology generation, middlebox
// placement, workload synthesis, the Rand enforcement strategy) draw from an
// explicitly seeded Rng. We implement xoshiro256** rather than rely on
// std::mt19937 + distribution objects because libstdc++/libc++ distribution
// implementations differ, which would make figures non-reproducible across
// toolchains.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/check.hpp"

namespace sdmbox::util {

/// xoshiro256** seeded via splitmix64. Deterministic across platforms.
class Rng {
public:
  explicit Rng(std::uint64_t seed) noexcept;

  /// Uniform 64-bit value.
  std::uint64_t next_u64() noexcept;

  /// Uniform in [0, bound). Requires bound > 0. Uses rejection to avoid
  /// modulo bias.
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t next_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  double next_double() noexcept;

  /// Bernoulli trial with success probability p in [0, 1].
  bool next_bool(double p) noexcept;

  /// Exponentially distributed value with the given mean (> 0).
  double next_exponential(double mean) noexcept;

  /// Bounded discrete power-law sample in [lo, hi]: P(X = s) proportional to
  /// s^-alpha. Sampled by inverting the continuous CDF and rounding down,
  /// which preserves the tail shape; alpha != 1.
  std::uint64_t next_power_law(std::uint64_t lo, std::uint64_t hi, double alpha) noexcept;

  /// Pick an index in [0, n) — convenience for container selection.
  std::size_t pick_index(std::size_t n) noexcept { return static_cast<std::size_t>(next_below(n)); }

  /// Sample k distinct indices from [0, n) (k <= n), in random order.
  std::vector<std::size_t> sample_without_replacement(std::size_t n, std::size_t k) noexcept;

  /// Derive an independent child generator (for decomposing one seed into
  /// per-subsystem streams without correlation).
  Rng fork() noexcept;

private:
  std::uint64_t s_[4];
};

}  // namespace sdmbox::util
