// Bounds-checked binary wire format for control-plane messages.
//
// Little-endian fixed-width integers plus length-prefixed containers. The
// reader never throws on malformed input — it flips to an error state and
// returns zeros, so a corrupted config push is rejected as a whole rather
// than half-applied (the decoder checks ok() at the end).
#pragma once

#include <cstdint>
#include <vector>

namespace sdmbox::control {

class ByteWriter {
public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);

  const std::vector<std::uint8_t>& bytes() const noexcept { return bytes_; }
  std::vector<std::uint8_t> take() noexcept { return std::move(bytes_); }
  std::size_t size() const noexcept { return bytes_.size(); }

private:
  std::vector<std::uint8_t> bytes_;
};

class ByteReader {
public:
  explicit ByteReader(const std::vector<std::uint8_t>& bytes) : bytes_(bytes) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();

  /// True iff no read overran the buffer so far.
  bool ok() const noexcept { return ok_; }
  /// True iff everything was consumed and no error occurred.
  bool done() const noexcept { return ok_ && pos_ == bytes_.size(); }
  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }
  /// True iff what is left can hold `count` elements of `wire_bytes` each.
  /// Decoders check a claimed element count with this before reserving
  /// for it, so a short message cannot make them allocate for a long one.
  bool fits(std::uint64_t count, std::size_t wire_bytes) const noexcept {
    return count <= remaining() / wire_bytes;
  }

private:
  bool take(std::size_t n) noexcept {
    if (!ok_ || bytes_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const std::vector<std::uint8_t>& bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace sdmbox::control
