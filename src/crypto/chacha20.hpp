// ChaCha20 stream cipher (RFC 8439 §2.3-2.4).
//
// The enclave substrate uses it (via the AEAD in aead.hpp) to encrypt
// node-to-node payloads, and drbg.hpp uses the raw keystream as a
// deterministic random generator for key material.
//
// chacha20_xor_into runs through the linalg::simd dispatcher (DESIGN.md §7):
// the AVX2 backend computes eight blocks at once, the scalar backend (and
// REX_SCALAR_KERNELS=1) one at a time. Both emit the RFC keystream, so the
// output is byte-identical on every backend.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "support/bytes.hpp"

namespace rex::crypto {

inline constexpr std::size_t kChaChaKeySize = 32;
inline constexpr std::size_t kChaChaNonceSize = 12;

using ChaChaKey = std::array<std::uint8_t, kChaChaKeySize>;
using ChaChaNonce = std::array<std::uint8_t, kChaChaNonceSize>;

/// Computes one 64-byte ChaCha20 block for (key, counter, nonce).
void chacha20_block(const ChaChaKey& key, std::uint32_t counter,
                    const ChaChaNonce& nonce, std::uint8_t out[64]);

/// XORs `data` with the ChaCha20 keystream starting at block
/// `initial_counter` into `out` (same size as `data`; `out` may be `data`
/// itself, but must not partially overlap it). The block counter wraps
/// mod 2^32. Encryption and decryption are the same operation.
void chacha20_xor_into(const ChaChaKey& key, const ChaChaNonce& nonce,
                       std::uint32_t initial_counter, BytesView data,
                       std::span<std::uint8_t> out);

/// chacha20_xor_into returning a fresh buffer.
[[nodiscard]] Bytes chacha20_xor(const ChaChaKey& key, const ChaChaNonce& nonce,
                                 std::uint32_t initial_counter, BytesView data);

}  // namespace rex::crypto
