// Open-addressing hash index shared by the flat flow/label tables.
//
// Maps a precomputed 64-bit hash to a 32-bit slot id in the owner's slab.
// The index stores nothing about the keys themselves: on lookup the caller
// supplies an equality predicate over slot ids, so one implementation serves
// any slab layout. Linear probing over a power-of-two bucket array keeps
// probes sequential in memory; deletion uses backward-shift (no tombstones),
// so probe chains never degrade with churn and a table that stops growing
// stops allocating entirely.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace sdmbox::tables {

class FlatIndex {
public:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  FlatIndex() { buckets_.resize(kMinBuckets); }

  /// Slot id stored under `hash` for which `eq(slot)` holds, or kNil. `eq`
  /// is only consulted on full 64-bit hash equality, so it runs at most a
  /// handful of times per lookup even on long probe chains.
  template <typename Eq>
  std::uint32_t find(std::uint64_t hash, Eq&& eq) const noexcept {
    const std::size_t mask = buckets_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      const Bucket& b = buckets_[i];
      if (b.slot == kNil) return kNil;
      if (b.hash == hash && eq(b.slot)) return b.slot;
    }
  }

  /// Record `slot` under `hash`. The caller guarantees the (hash, slot) pair
  /// is not already present (slot ids are unique in the owner's slab).
  void insert(std::uint64_t hash, std::uint32_t slot) {
    if ((size_ + 1) * 4 > buckets_.size() * 3) grow();
    place(hash, slot);
    ++size_;
  }

  /// Remove the entry for (hash, slot), backward-shifting the probe chain.
  /// The pair must be present.
  void erase(std::uint64_t hash, std::uint32_t slot) noexcept {
    const std::size_t mask = buckets_.size() - 1;
    std::size_t i = hash & mask;
    while (buckets_[i].slot != slot) {
      SDM_DCHECK(buckets_[i].slot != kNil);
      i = (i + 1) & mask;
    }
    // Backward shift: each following bucket moves into the hole iff doing so
    // does not lift it above its ideal position (cyclic-distance test).
    for (std::size_t j = (i + 1) & mask; buckets_[j].slot != kNil; j = (j + 1) & mask) {
      const std::size_t ideal = buckets_[j].hash & mask;
      if (((j - ideal) & mask) >= ((j - i) & mask)) {
        buckets_[i] = buckets_[j];
        i = j;
      }
    }
    buckets_[i].slot = kNil;
    --size_;
  }

private:
  static constexpr std::size_t kMinBuckets = 16;  // power of two

  struct Bucket {
    std::uint64_t hash = 0;
    std::uint32_t slot = kNil;
  };

  void place(std::uint64_t hash, std::uint32_t slot) noexcept {
    const std::size_t mask = buckets_.size() - 1;
    std::size_t i = hash & mask;
    while (buckets_[i].slot != kNil) i = (i + 1) & mask;
    buckets_[i] = Bucket{hash, slot};
  }

  void grow() {
    std::vector<Bucket> old = std::move(buckets_);
    buckets_.assign(old.size() * 2, Bucket{});
    for (const Bucket& b : old) {
      if (b.slot != kNil) place(b.hash, b.slot);
    }
  }

  std::vector<Bucket> buckets_;
  std::size_t size_ = 0;
};

}  // namespace sdmbox::tables
