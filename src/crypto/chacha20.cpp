#include "crypto/chacha20.hpp"

#include <algorithm>
#include <cstring>

#include "linalg/simd_kernels.hpp"
#include "support/error.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#define REX_CHACHA_X86 1
#include <immintrin.h>
#endif

namespace rex::crypto {

namespace {

/// The 16-word input state; word 12 (the block counter) is set per block.
struct State {
  std::uint32_t words[16];

  State(const ChaChaKey& key, const ChaChaNonce& nonce) {
    // "expand 32-byte k"
    words[0] = 0x61707865;
    words[1] = 0x3320646e;
    words[2] = 0x79622d32;
    words[3] = 0x6b206574;
    for (int i = 0; i < 8; ++i) words[4 + i] = load_le32(key.data() + 4 * i);
    words[12] = 0;
    for (int i = 0; i < 3; ++i) {
      words[13 + i] = load_le32(nonce.data() + 4 * i);
    }
  }
};

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

void block_scalar(const State& state, std::uint32_t counter,
                  std::uint8_t out[64]) {
  std::uint32_t input[16];
  std::memcpy(input, state.words, sizeof input);
  input[12] = counter;
  std::uint32_t working[16];
  std::memcpy(working, input, sizeof working);
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
    store_le32(out + 4 * i, working[i] + input[i]);
  }
}

/// out = in ^ keystream over n bytes, eight bytes at a time.
void xor_keystream(const std::uint8_t* in, std::uint8_t* out,
                   const std::uint8_t* keystream, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    store_le64(out + i, load_le64(in + i) ^ load_le64(keystream + i));
  }
  for (; i < n; ++i) out[i] = in[i] ^ keystream[i];
}

/// Portable path: one block at a time. Covers a one-block AVX2 tail and
/// every non-AVX2 CPU.
void xor_scalar(const State& state, std::uint32_t counter,
                const std::uint8_t* in, std::uint8_t* out, std::size_t n) {
  std::uint8_t keystream[64];
  for (std::size_t offset = 0; offset < n; offset += 64) {
    block_scalar(state, counter++, keystream);
    xor_keystream(in + offset, out + offset, keystream,
                  std::min<std::size_t>(64, n - offset));
  }
}

#if REX_CHACHA_X86

// ===== AVX2 kernel: eight blocks per iteration =====
//
// Vector i holds state word i of eight consecutive blocks (lane j = block
// counter + j, mod 2^32), so each quarter round is four vector ops per
// step across all eight blocks. An 8x8 transpose turns the word-major
// result back into eight contiguous 64-byte keystream blocks.

__attribute__((target("avx2"))) inline __m256i rotl_avx2(__m256i x, int n) {
  return _mm256_or_si256(_mm256_slli_epi32(x, n), _mm256_srli_epi32(x, 32 - n));
}

__attribute__((target("avx2"))) inline void quarter_round_avx2(
    __m256i& a, __m256i& b, __m256i& c, __m256i& d, __m256i rot16,
    __m256i rot8) {
  a = _mm256_add_epi32(a, b);
  d = _mm256_shuffle_epi8(_mm256_xor_si256(d, a), rot16);
  c = _mm256_add_epi32(c, d);
  b = rotl_avx2(_mm256_xor_si256(b, c), 12);
  a = _mm256_add_epi32(a, b);
  d = _mm256_shuffle_epi8(_mm256_xor_si256(d, a), rot8);
  c = _mm256_add_epi32(c, d);
  b = rotl_avx2(_mm256_xor_si256(b, c), 7);
}

/// Transposes rows r[0..7] (row i = word i of blocks 0..7) so that r[j]
/// holds words 0..7 of block j.
__attribute__((target("avx2"))) inline void transpose8x8(__m256i r[8]) {
  const __m256i t0 = _mm256_unpacklo_epi32(r[0], r[1]);
  const __m256i t1 = _mm256_unpackhi_epi32(r[0], r[1]);
  const __m256i t2 = _mm256_unpacklo_epi32(r[2], r[3]);
  const __m256i t3 = _mm256_unpackhi_epi32(r[2], r[3]);
  const __m256i t4 = _mm256_unpacklo_epi32(r[4], r[5]);
  const __m256i t5 = _mm256_unpackhi_epi32(r[4], r[5]);
  const __m256i t6 = _mm256_unpacklo_epi32(r[6], r[7]);
  const __m256i t7 = _mm256_unpackhi_epi32(r[6], r[7]);
  const __m256i u0 = _mm256_unpacklo_epi64(t0, t2);
  const __m256i u1 = _mm256_unpackhi_epi64(t0, t2);
  const __m256i u2 = _mm256_unpacklo_epi64(t1, t3);
  const __m256i u3 = _mm256_unpackhi_epi64(t1, t3);
  const __m256i u4 = _mm256_unpacklo_epi64(t4, t6);
  const __m256i u5 = _mm256_unpackhi_epi64(t4, t6);
  const __m256i u6 = _mm256_unpacklo_epi64(t5, t7);
  const __m256i u7 = _mm256_unpackhi_epi64(t5, t7);
  r[0] = _mm256_permute2x128_si256(u0, u4, 0x20);
  r[1] = _mm256_permute2x128_si256(u1, u5, 0x20);
  r[2] = _mm256_permute2x128_si256(u2, u6, 0x20);
  r[3] = _mm256_permute2x128_si256(u3, u7, 0x20);
  r[4] = _mm256_permute2x128_si256(u0, u4, 0x31);
  r[5] = _mm256_permute2x128_si256(u1, u5, 0x31);
  r[6] = _mm256_permute2x128_si256(u2, u6, 0x31);
  r[7] = _mm256_permute2x128_si256(u3, u7, 0x31);
}

/// XORs 32 bytes of keystream `k` into `out` from `in`.
__attribute__((target("avx2"))) inline void xor32(const std::uint8_t* in,
                                                  std::uint8_t* out,
                                                  __m256i k) {
  const __m256i m =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                      _mm256_xor_si256(m, k));
}

/// Eight keystream blocks from `counter`: on return x[j] holds bytes
/// 0..31 and x[8 + j] bytes 32..63 of block counter + j.
__attribute__((target("avx2"))) void blocks8_avx2(const __m256i init[16],
                                                  std::uint32_t counter,
                                                  __m256i x[16]) {
  const __m256i rot16 = _mm256_setr_epi8(
      2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
      2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13);
  const __m256i rot8 = _mm256_setr_epi8(
      3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
      3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14);
  const __m256i counters =
      _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(counter)),
                       _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  for (int i = 0; i < 16; ++i) x[i] = init[i];
  x[12] = counters;
  for (int round = 0; round < 10; ++round) {
    quarter_round_avx2(x[0], x[4], x[8], x[12], rot16, rot8);
    quarter_round_avx2(x[1], x[5], x[9], x[13], rot16, rot8);
    quarter_round_avx2(x[2], x[6], x[10], x[14], rot16, rot8);
    quarter_round_avx2(x[3], x[7], x[11], x[15], rot16, rot8);
    quarter_round_avx2(x[0], x[5], x[10], x[15], rot16, rot8);
    quarter_round_avx2(x[1], x[6], x[11], x[12], rot16, rot8);
    quarter_round_avx2(x[2], x[7], x[8], x[13], rot16, rot8);
    quarter_round_avx2(x[3], x[4], x[9], x[14], rot16, rot8);
  }
  for (int i = 0; i < 16; ++i) {
    x[i] = _mm256_add_epi32(x[i], i == 12 ? counters : init[i]);
  }
  transpose8x8(x);      // x[j]     = words 0..7  of block j
  transpose8x8(x + 8);  // x[8 + j] = words 8..15 of block j
}

__attribute__((target("avx2"))) void xor_avx2(const State& state,
                                              std::uint32_t counter,
                                              const std::uint8_t* in,
                                              std::uint8_t* out,
                                              std::size_t n) {
  __m256i init[16];
  for (int i = 0; i < 16; ++i) {
    init[i] = _mm256_set1_epi32(static_cast<int>(state.words[i]));
  }
  __m256i x[16];
  for (; n >= 512; n -= 512, counter += 8, in += 512, out += 512) {
    blocks8_avx2(init, counter, x);
    for (int j = 0; j < 8; ++j) {
      xor32(in + 64 * j, out + 64 * j, x[j]);
      xor32(in + 64 * j + 32, out + 64 * j + 32, x[8 + j]);
    }
  }
  // A single leftover block is cheaper on the portable path; a longer
  // tail takes one more eight-block pass (about 1.5 scalar blocks of
  // work) through a stack buffer. Every exit to non-AVX code clears the
  // upper register halves explicitly: GCC does not always emit the
  // vzeroupper itself, and a dirty upper state slows every later SSE
  // instruction on the thread (Box-Muller draws measured 9x slower).
  if (n <= 64) {
    _mm256_zeroupper();
    xor_scalar(state, counter, in, out, n);
    return;
  }
  alignas(32) std::uint8_t keystream[512];
  blocks8_avx2(init, counter, x);
  for (int j = 0; j < 8; ++j) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(keystream + 64 * j), x[j]);
    _mm256_store_si256(reinterpret_cast<__m256i*>(keystream + 64 * j + 32),
                       x[8 + j]);
  }
  _mm256_zeroupper();
  xor_keystream(in, out, keystream, n);
}

#endif  // REX_CHACHA_X86

}  // namespace

void chacha20_block(const ChaChaKey& key, std::uint32_t counter,
                    const ChaChaNonce& nonce, std::uint8_t out[64]) {
  block_scalar(State(key, nonce), counter, out);
}

void chacha20_xor_into(const ChaChaKey& key, const ChaChaNonce& nonce,
                       std::uint32_t initial_counter, BytesView data,
                       std::span<std::uint8_t> out) {
  REX_REQUIRE(out.size() == data.size(), "chacha20 output size mismatch");
  const State state(key, nonce);
  switch (linalg::simd::active_backend()) {
#if REX_CHACHA_X86
    case linalg::simd::Backend::kAvx2:
      xor_avx2(state, initial_counter, data.data(), out.data(), data.size());
      return;
#endif
    default:
      xor_scalar(state, initial_counter, data.data(), out.data(), data.size());
      return;
  }
}

Bytes chacha20_xor(const ChaChaKey& key, const ChaChaNonce& nonce,
                   std::uint32_t initial_counter, BytesView data) {
  Bytes out(data.size());
  chacha20_xor_into(key, nonce, initial_counter, data, out);
  return out;
}

}  // namespace rex::crypto
