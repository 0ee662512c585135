// Chunked slot slab with stable addresses.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace sdmbox::tables {

/// Append-only slab of default-constructed slots addressed by dense
/// std::uint32_t indices. Storage is fixed-size chunks, so growing never
/// moves existing slots — callers may keep references across later push()
/// calls, the contract FlowTable::insert's returned FlowEntry& inherits from
/// the node-based tables it replaced. A chunk is allocated only when the
/// slab outgrows the last one; at steady state (the owner recycles indices
/// through its free list) a slab performs no heap operations.
///
/// A chunk holds 32 slots, so an index is one shift and one mask. Most
/// slabs are small (Waxman-400 spreads its 24,223 flows over 400 proxy flow
/// tables, about 60 each), and larger chunks mostly held slots nobody used.
template <typename T>
class StableSlab {
 public:
  std::uint32_t size() const noexcept { return size_; }

  T& operator[](std::uint32_t i) noexcept { return chunks_[i >> kChunkBits][i & kChunkMask]; }
  const T& operator[](std::uint32_t i) const noexcept {
    return chunks_[i >> kChunkBits][i & kChunkMask];
  }

  /// Append a default-constructed slot; returns its index.
  std::uint32_t push() {
    // size_ only grows, so a fresh chunk is needed exactly when the next
    // index points one past the last allocated chunk.
    if ((size_ >> kChunkBits) == chunks_.size()) {
      chunks_.push_back(std::make_unique<T[]>(kChunkSize));
    }
    return size_++;
  }

 private:
  static constexpr std::uint32_t kChunkBits = 5;  // 32 slots per chunk
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

  std::vector<std::unique_ptr<T[]>> chunks_;
  std::uint32_t size_ = 0;
};

}  // namespace sdmbox::tables
