// Poly1305 one-time authenticator (RFC 8439 §2.5).
#pragma once

#include <array>
#include <cstdint>

#include "support/bytes.hpp"

namespace rex::crypto {

inline constexpr std::size_t kPolyTagSize = 16;
inline constexpr std::size_t kPolyKeySize = 32;

using PolyTag = std::array<std::uint8_t, kPolyTagSize>;
using PolyKey = std::array<std::uint8_t, kPolyKeySize>;

/// Streaming Poly1305: the 130-bit accumulator and the clamped r in three
/// 44/44/42-bit limbs (64x64->128-bit products). Whole 16-byte blocks are
/// read straight from the caller's buffer; only a short trailing block is
/// staged.
class Poly1305 {
 public:
  explicit Poly1305(const PolyKey& key);

  /// Absorbs `data` zero-padded to a multiple of 16 bytes — the AEAD's
  /// `x || pad16(x)` (RFC 8439 §2.8).
  void update_padded(BytesView data);

  /// Absorbs `data` as the message's last bytes (a short final block gets
  /// the RFC's 0x01 terminator, no padding) and returns the tag.
  [[nodiscard]] PolyTag finish(BytesView data);

 private:
  /// h = (h + block + hibit) * r for each whole 16-byte block of `m`.
  void blocks(const std::uint8_t* m, std::size_t n_blocks,
              std::uint64_t hibit);

  std::uint64_t r0_, r1_, r2_;  // clamped r
  std::uint64_t s1_, s2_;       // r1 * 20, r2 * 20 (the 2^130 = 5 fold)
  std::uint64_t h0_ = 0, h1_ = 0, h2_ = 0;
  std::uint64_t pad0_, pad1_;   // s, the key's second half
};

/// Computes the Poly1305 tag of `data` under the one-time `key`.
[[nodiscard]] PolyTag poly1305(const PolyKey& key, BytesView data);

}  // namespace rex::crypto
