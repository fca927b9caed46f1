#include "crypto/poly1305.hpp"

#include <cstring>

namespace rex::crypto {

// 44-bit limb layout (h = h0 + h1*2^44 + h2*2^88), following the
// public-domain 64-bit poly1305-donna.

namespace {

using u128 = unsigned __int128;

constexpr std::uint64_t kMask44 = 0xfffffffffff;
constexpr std::uint64_t kMask42 = 0x3ffffffffff;
constexpr std::uint64_t kHibit = std::uint64_t{1} << 40;  // 2^128 in h2

}  // namespace

Poly1305::Poly1305(const PolyKey& key) {
  // r is clamped per the RFC.
  const std::uint64_t t0 = load_le64(key.data() + 0);
  const std::uint64_t t1 = load_le64(key.data() + 8);
  r0_ = t0 & 0xffc0fffffff;
  r1_ = ((t0 >> 44) | (t1 << 20)) & 0xfffffc0ffff;
  r2_ = (t1 >> 24) & 0x00ffffffc0f;
  s1_ = r1_ * (5 << 2);
  s2_ = r2_ * (5 << 2);
  pad0_ = load_le64(key.data() + 16);
  pad1_ = load_le64(key.data() + 24);
}

void Poly1305::blocks(const std::uint8_t* m, std::size_t n_blocks,
                      std::uint64_t hibit) {
  std::uint64_t h0 = h0_, h1 = h1_, h2 = h2_;
  for (; n_blocks > 0; --n_blocks, m += 16) {
    const std::uint64_t t0 = load_le64(m);
    const std::uint64_t t1 = load_le64(m + 8);
    h0 += t0 & kMask44;
    h1 += ((t0 >> 44) | (t1 << 20)) & kMask44;
    h2 += ((t1 >> 24) & kMask42) | hibit;

    // h *= r (mod 2^130 - 5)
    const u128 d0 = u128{h0} * r0_ + u128{h1} * s2_ + u128{h2} * s1_;
    u128 d1 = u128{h0} * r1_ + u128{h1} * r0_ + u128{h2} * s2_;
    u128 d2 = u128{h0} * r2_ + u128{h1} * r1_ + u128{h2} * r0_;

    // Partial carry propagation.
    std::uint64_t c = static_cast<std::uint64_t>(d0 >> 44);
    h0 = static_cast<std::uint64_t>(d0) & kMask44;
    d1 += c;
    c = static_cast<std::uint64_t>(d1 >> 44);
    h1 = static_cast<std::uint64_t>(d1) & kMask44;
    d2 += c;
    c = static_cast<std::uint64_t>(d2 >> 42);
    h2 = static_cast<std::uint64_t>(d2) & kMask42;
    h0 += c * 5;
    c = h0 >> 44;
    h0 &= kMask44;
    h1 += c;
  }
  h0_ = h0;
  h1_ = h1;
  h2_ = h2;
}

void Poly1305::update_padded(BytesView data) {
  const std::size_t whole = data.size() / 16;
  blocks(data.data(), whole, kHibit);
  const std::size_t rest = data.size() % 16;
  if (rest > 0) {
    std::uint8_t block[16] = {};
    std::memcpy(block, data.data() + whole * 16, rest);
    blocks(block, 1, kHibit);
  }
}

PolyTag Poly1305::finish(BytesView data) {
  const std::size_t whole = data.size() / 16;
  blocks(data.data(), whole, kHibit);
  const std::size_t rest = data.size() % 16;
  if (rest > 0) {
    // The 2^(8*rest) bit is the 0x01 terminator byte, not the hibit.
    std::uint8_t block[16] = {};
    std::memcpy(block, data.data() + whole * 16, rest);
    block[rest] = 1;
    blocks(block, 1, 0);
  }

  // Full carry and reduction mod 2^130 - 5.
  std::uint64_t h0 = h0_, h1 = h1_, h2 = h2_;
  std::uint64_t c = h1 >> 44;
  h1 &= kMask44;
  h2 += c;
  c = h2 >> 42;
  h2 &= kMask42;
  h0 += c * 5;
  c = h0 >> 44;
  h0 &= kMask44;
  h1 += c;
  c = h1 >> 44;
  h1 &= kMask44;
  h2 += c;
  c = h2 >> 42;
  h2 &= kMask42;
  h0 += c * 5;
  c = h0 >> 44;
  h0 &= kMask44;
  h1 += c;

  // Compute h + -p and select.
  std::uint64_t g0 = h0 + 5;
  c = g0 >> 44;
  g0 &= kMask44;
  std::uint64_t g1 = h1 + c;
  c = g1 >> 44;
  g1 &= kMask44;
  const std::uint64_t g2 = h2 + c - (std::uint64_t{1} << 42);

  const std::uint64_t mask = (g2 >> 63) - 1;  // all-ones if h >= p
  h0 = (h0 & ~mask) | (g0 & mask);
  h1 = (h1 & ~mask) | (g1 & mask);
  h2 = (h2 & ~mask) | (g2 & mask);

  // Add s (the second key half) mod 2^128.
  h0 += pad0_ & kMask44;
  c = h0 >> 44;
  h0 &= kMask44;
  h1 += (((pad0_ >> 44) | (pad1_ << 20)) & kMask44) + c;
  c = h1 >> 44;
  h1 &= kMask44;
  h2 += ((pad1_ >> 24) & kMask42) + c;
  h2 &= kMask42;

  PolyTag tag;
  store_le64(tag.data() + 0, h0 | (h1 << 44));
  store_le64(tag.data() + 8, (h1 >> 20) | (h2 << 24));
  return tag;
}

PolyTag poly1305(const PolyKey& key, BytesView data) {
  return Poly1305(key).finish(data);
}

}  // namespace rex::crypto
