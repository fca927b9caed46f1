#include "crypto/aead.hpp"

#include <cstring>

#include "crypto/hmac.hpp"
#include "support/error.hpp"

namespace rex::crypto {

namespace {

PolyKey poly_key_for(const ChaChaKey& key, const ChaChaNonce& nonce) {
  std::uint8_t block[64];
  chacha20_block(key, 0, nonce, block);
  PolyKey pk;
  std::memcpy(pk.data(), block, pk.size());
  return pk;
}

/// MACs aad || pad16 || ct || pad16 || len(aad) || len(ct), streamed
/// straight from the caller's buffers.
PolyTag compute_tag(const ChaChaKey& key, const ChaChaNonce& nonce,
                    BytesView aad, BytesView ciphertext) {
  Poly1305 mac(poly_key_for(key, nonce));
  mac.update_padded(aad);
  mac.update_padded(ciphertext);
  std::uint8_t lengths[16];
  store_le64(lengths, aad.size());
  store_le64(lengths + 8, ciphertext.size());
  return mac.finish(BytesView(lengths, 16));
}

}  // namespace

void aead_seal_into(const ChaChaKey& key, const ChaChaNonce& nonce,
                    BytesView aad, BytesView plaintext,
                    std::span<std::uint8_t> out) {
  REX_REQUIRE(out.size() == plaintext.size() + kAeadTagSize,
              "AEAD seal output size mismatch");
  const std::span<std::uint8_t> ciphertext = out.first(plaintext.size());
  chacha20_xor_into(key, nonce, 1, plaintext, ciphertext);
  const PolyTag tag = compute_tag(key, nonce, aad, ciphertext);
  std::memcpy(out.data() + plaintext.size(), tag.data(), tag.size());
}

bool aead_open_into(const ChaChaKey& key, const ChaChaNonce& nonce,
                    BytesView aad, BytesView sealed,
                    std::span<std::uint8_t> out) {
  if (sealed.size() < kAeadTagSize) return false;
  REX_REQUIRE(out.size() == sealed.size() - kAeadTagSize,
              "AEAD open output size mismatch");
  const BytesView ciphertext = sealed.first(out.size());
  const PolyTag expected = compute_tag(key, nonce, aad, ciphertext);
  if (!constant_time_equal(BytesView(expected.data(), expected.size()),
                           sealed.last(kAeadTagSize))) {
    return false;
  }
  chacha20_xor_into(key, nonce, 1, ciphertext, out);
  return true;
}

Bytes aead_seal(const ChaChaKey& key, const ChaChaNonce& nonce, BytesView aad,
                BytesView plaintext) {
  Bytes out(plaintext.size() + kAeadTagSize);
  aead_seal_into(key, nonce, aad, plaintext, out);
  return out;
}

std::optional<Bytes> aead_open(const ChaChaKey& key, const ChaChaNonce& nonce,
                               BytesView aad, BytesView sealed) {
  if (sealed.size() < kAeadTagSize) return std::nullopt;
  Bytes out(sealed.size() - kAeadTagSize);
  if (!aead_open_into(key, nonce, aad, sealed, out)) return std::nullopt;
  return out;
}

ChaChaNonce nonce_from_sequence(std::uint64_t sequence,
                                std::uint32_t direction) {
  ChaChaNonce nonce{};
  store_le32(nonce.data(), direction);
  store_le64(nonce.data() + 4, sequence);
  return nonce;
}

}  // namespace rex::crypto
