// Test-side reference for the AEAD: the one-block-at-a-time ChaCha20, the
// 26-bit-limb Poly1305 and the mac_data-building AEAD that the multi-block
// kernels replaced (DESIGN.md §1), frozen verbatim. Every backend of
// chacha20_xor_into / poly1305 / aead_seal_into must reproduce them byte
// for byte.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "crypto/aead.hpp"
#include "support/bytes.hpp"

namespace rex::crypto::reference {

inline std::uint32_t rotl(std::uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

inline void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                          std::uint32_t& d) {
  a += b; d ^= a; d = rotl(d, 16);
  c += d; b ^= c; b = rotl(b, 12);
  a += b; d ^= a; d = rotl(d, 8);
  c += d; b ^= c; b = rotl(b, 7);
}

inline void chacha20_block(const ChaChaKey& key, std::uint32_t counter,
                           const ChaChaNonce& nonce, std::uint8_t out[64]) {
  std::uint32_t state[16];
  // "expand 32-byte k"
  state[0] = 0x61707865;
  state[1] = 0x3320646e;
  state[2] = 0x79622d32;
  state[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) state[4 + i] = load_le32(key.data() + 4 * i);
  state[12] = counter;
  for (int i = 0; i < 3; ++i) state[13 + i] = load_le32(nonce.data() + 4 * i);

  std::uint32_t working[16];
  std::memcpy(working, state, sizeof working);
  for (int round = 0; round < 10; ++round) {
    quarter_round(working[0], working[4], working[8], working[12]);
    quarter_round(working[1], working[5], working[9], working[13]);
    quarter_round(working[2], working[6], working[10], working[14]);
    quarter_round(working[3], working[7], working[11], working[15]);
    quarter_round(working[0], working[5], working[10], working[15]);
    quarter_round(working[1], working[6], working[11], working[12]);
    quarter_round(working[2], working[7], working[8], working[13]);
    quarter_round(working[3], working[4], working[9], working[14]);
  }
  for (int i = 0; i < 16; ++i) {
    store_le32(out + 4 * i, working[i] + state[i]);
  }
}

inline Bytes chacha20_xor(const ChaChaKey& key, const ChaChaNonce& nonce,
                          std::uint32_t initial_counter, BytesView data) {
  Bytes out(data.size());
  std::uint8_t keystream[64];
  std::uint32_t counter = initial_counter;
  std::size_t offset = 0;
  while (offset < data.size()) {
    chacha20_block(key, counter++, nonce, keystream);
    const std::size_t take = std::min<std::size_t>(64, data.size() - offset);
    for (std::size_t i = 0; i < take; ++i) {
      out[offset + i] = data[offset + i] ^ keystream[i];
    }
    offset += take;
  }
  return out;
}

// 26-bit limb implementation (five limbs of r, h), following the widely-used
// public-domain layout (Floodyberry's poly1305-donna).
inline PolyTag poly1305(const PolyKey& key, BytesView data) {
  // r is clamped per the RFC.
  const std::uint32_t r0 = load_le32(key.data() + 0) & 0x3ffffff;
  const std::uint32_t r1 = (load_le32(key.data() + 3) >> 2) & 0x3ffff03;
  const std::uint32_t r2 = (load_le32(key.data() + 6) >> 4) & 0x3ffc0ff;
  const std::uint32_t r3 = (load_le32(key.data() + 9) >> 6) & 0x3f03fff;
  const std::uint32_t r4 = (load_le32(key.data() + 12) >> 8) & 0x00fffff;

  const std::uint32_t s1 = r1 * 5;
  const std::uint32_t s2 = r2 * 5;
  const std::uint32_t s3 = r3 * 5;
  const std::uint32_t s4 = r4 * 5;

  std::uint32_t h0 = 0, h1 = 0, h2 = 0, h3 = 0, h4 = 0;

  std::size_t offset = 0;
  std::size_t remaining = data.size();
  while (remaining > 0) {
    std::uint8_t block[17] = {};
    const std::size_t take = std::min<std::size_t>(16, remaining);
    std::memcpy(block, data.data() + offset, take);
    block[take] = 1;  // append the 2^(8*take) bit

    const std::uint32_t t0 = load_le32(block + 0);
    const std::uint32_t t1 = load_le32(block + 4);
    const std::uint32_t t2 = load_le32(block + 8);
    const std::uint32_t t3 = load_le32(block + 12);
    const std::uint32_t t4 = block[16];

    h0 += t0 & 0x3ffffff;
    h1 += static_cast<std::uint32_t>(
              ((std::uint64_t{t1} << 32 | t0) >> 26)) & 0x3ffffff;
    h2 += static_cast<std::uint32_t>(
              ((std::uint64_t{t2} << 32 | t1) >> 20)) & 0x3ffffff;
    h3 += static_cast<std::uint32_t>(
              ((std::uint64_t{t3} << 32 | t2) >> 14)) & 0x3ffffff;
    h4 += static_cast<std::uint32_t>(
              ((std::uint64_t{t4} << 32 | t3) >> 8));

    // h *= r (mod 2^130 - 5)
    const std::uint64_t d0 = static_cast<std::uint64_t>(h0) * r0 +
                             static_cast<std::uint64_t>(h1) * s4 +
                             static_cast<std::uint64_t>(h2) * s3 +
                             static_cast<std::uint64_t>(h3) * s2 +
                             static_cast<std::uint64_t>(h4) * s1;
    std::uint64_t d1 = static_cast<std::uint64_t>(h0) * r1 +
                       static_cast<std::uint64_t>(h1) * r0 +
                       static_cast<std::uint64_t>(h2) * s4 +
                       static_cast<std::uint64_t>(h3) * s3 +
                       static_cast<std::uint64_t>(h4) * s2;
    std::uint64_t d2 = static_cast<std::uint64_t>(h0) * r2 +
                       static_cast<std::uint64_t>(h1) * r1 +
                       static_cast<std::uint64_t>(h2) * r0 +
                       static_cast<std::uint64_t>(h3) * s4 +
                       static_cast<std::uint64_t>(h4) * s3;
    std::uint64_t d3 = static_cast<std::uint64_t>(h0) * r3 +
                       static_cast<std::uint64_t>(h1) * r2 +
                       static_cast<std::uint64_t>(h2) * r1 +
                       static_cast<std::uint64_t>(h3) * r0 +
                       static_cast<std::uint64_t>(h4) * s4;
    std::uint64_t d4 = static_cast<std::uint64_t>(h0) * r4 +
                       static_cast<std::uint64_t>(h1) * r3 +
                       static_cast<std::uint64_t>(h2) * r2 +
                       static_cast<std::uint64_t>(h3) * r1 +
                       static_cast<std::uint64_t>(h4) * r0;

    // Carry propagation.
    std::uint32_t carry = static_cast<std::uint32_t>(d0 >> 26);
    h0 = static_cast<std::uint32_t>(d0) & 0x3ffffff;
    d1 += carry;
    carry = static_cast<std::uint32_t>(d1 >> 26);
    h1 = static_cast<std::uint32_t>(d1) & 0x3ffffff;
    d2 += carry;
    carry = static_cast<std::uint32_t>(d2 >> 26);
    h2 = static_cast<std::uint32_t>(d2) & 0x3ffffff;
    d3 += carry;
    carry = static_cast<std::uint32_t>(d3 >> 26);
    h3 = static_cast<std::uint32_t>(d3) & 0x3ffffff;
    d4 += carry;
    carry = static_cast<std::uint32_t>(d4 >> 26);
    h4 = static_cast<std::uint32_t>(d4) & 0x3ffffff;
    h0 += carry * 5;
    carry = h0 >> 26;
    h0 &= 0x3ffffff;
    h1 += carry;

    offset += take;
    remaining -= take;
  }

  // Full carry and reduction mod 2^130 - 5.
  std::uint32_t carry = h1 >> 26;
  h1 &= 0x3ffffff;
  h2 += carry;
  carry = h2 >> 26;
  h2 &= 0x3ffffff;
  h3 += carry;
  carry = h3 >> 26;
  h3 &= 0x3ffffff;
  h4 += carry;
  carry = h4 >> 26;
  h4 &= 0x3ffffff;
  h0 += carry * 5;
  carry = h0 >> 26;
  h0 &= 0x3ffffff;
  h1 += carry;

  // Compute h + -p and select.
  std::uint32_t g0 = h0 + 5;
  carry = g0 >> 26;
  g0 &= 0x3ffffff;
  std::uint32_t g1 = h1 + carry;
  carry = g1 >> 26;
  g1 &= 0x3ffffff;
  std::uint32_t g2 = h2 + carry;
  carry = g2 >> 26;
  g2 &= 0x3ffffff;
  std::uint32_t g3 = h3 + carry;
  carry = g3 >> 26;
  g3 &= 0x3ffffff;
  std::uint32_t g4 = h4 + carry - (1u << 26);

  const std::uint32_t mask = (g4 >> 31) - 1;  // all-ones if h >= p
  h0 = (h0 & ~mask) | (g0 & mask);
  h1 = (h1 & ~mask) | (g1 & mask);
  h2 = (h2 & ~mask) | (g2 & mask);
  h3 = (h3 & ~mask) | (g3 & mask);
  h4 = (h4 & ~mask) | (g4 & mask);

  // Serialize h and add s (the second key half) mod 2^128.
  const std::uint64_t f0 =
      (std::uint64_t{h0} | (std::uint64_t{h1} << 26)) & 0xffffffffULL;
  const std::uint64_t f1 =
      ((std::uint64_t{h1} >> 6) | (std::uint64_t{h2} << 20)) & 0xffffffffULL;
  const std::uint64_t f2 =
      ((std::uint64_t{h2} >> 12) | (std::uint64_t{h3} << 14)) & 0xffffffffULL;
  const std::uint64_t f3 =
      ((std::uint64_t{h3} >> 18) | (std::uint64_t{h4} << 8)) & 0xffffffffULL;

  std::uint64_t acc = f0 + load_le32(key.data() + 16);
  PolyTag tag;
  store_le32(tag.data() + 0, static_cast<std::uint32_t>(acc));
  acc = f1 + load_le32(key.data() + 20) + (acc >> 32);
  store_le32(tag.data() + 4, static_cast<std::uint32_t>(acc));
  acc = f2 + load_le32(key.data() + 24) + (acc >> 32);
  store_le32(tag.data() + 8, static_cast<std::uint32_t>(acc));
  acc = f3 + load_le32(key.data() + 28) + (acc >> 32);
  store_le32(tag.data() + 12, static_cast<std::uint32_t>(acc));
  return tag;
}

inline PolyKey poly_key_for(const ChaChaKey& key, const ChaChaNonce& nonce) {
  std::uint8_t block[64];
  chacha20_block(key, 0, nonce, block);
  PolyKey pk;
  std::memcpy(pk.data(), block, pk.size());
  return pk;
}

inline PolyTag compute_tag(const PolyKey& pk, BytesView aad,
                           BytesView ciphertext) {
  // mac_data = aad || pad16 || ct || pad16 || len(aad) || len(ct)
  Bytes mac_data;
  mac_data.reserve(aad.size() + ciphertext.size() + 32);
  append(mac_data, aad);
  mac_data.resize((mac_data.size() + 15) / 16 * 16, 0);
  append(mac_data, ciphertext);
  mac_data.resize((mac_data.size() + 15) / 16 * 16, 0);
  std::uint8_t lengths[16];
  store_le64(lengths, aad.size());
  store_le64(lengths + 8, ciphertext.size());
  append(mac_data, BytesView(lengths, 16));
  return poly1305(pk, mac_data);
}

inline Bytes aead_seal(const ChaChaKey& key, const ChaChaNonce& nonce,
                       BytesView aad, BytesView plaintext) {
  Bytes out = chacha20_xor(key, nonce, 1, plaintext);
  const PolyTag tag = compute_tag(poly_key_for(key, nonce), aad, out);
  append(out, BytesView(tag.data(), tag.size()));
  return out;
}

}  // namespace rex::crypto::reference
