#include "enclave/sealed.hpp"

#include <cstring>

#include "crypto/hmac.hpp"

namespace rex::enclave {

SealingKey::SealingKey(const crypto::ChaChaKey& platform_secret,
                       const Measurement& measurement) {
  // HKDF(platform secret, measurement) — binds the key to both identities
  // like SGX's EGETKEY with the MRENCLAVE policy.
  const Bytes okm = crypto::hkdf(
      BytesView(measurement.data(), measurement.size()),
      BytesView(platform_secret.data(), platform_secret.size()),
      to_bytes("rex-sealing-v1"), key_.size());
  std::memcpy(key_.data(), okm.data(), key_.size());
}

Bytes SealingKey::seal(BytesView plaintext, std::uint64_t nonce_counter) const {
  // Direction tag 0x5EA1 keeps sealing nonces disjoint from channel nonces.
  const crypto::ChaChaNonce nonce =
      crypto::nonce_from_sequence(nonce_counter, /*direction=*/0x5EA1);
  Bytes out(nonce.size() + plaintext.size() + crypto::kAeadTagSize);
  std::memcpy(out.data(), nonce.data(), nonce.size());
  crypto::aead_seal_into(key_, nonce, to_bytes("rex-sealed"), plaintext,
                         std::span<std::uint8_t>(out).subspan(nonce.size()));
  return out;
}

std::optional<Bytes> SealingKey::unseal(BytesView sealed) const {
  if (sealed.size() < crypto::kChaChaNonceSize + crypto::kAeadTagSize) {
    return std::nullopt;
  }
  crypto::ChaChaNonce nonce;
  std::copy(sealed.begin(),
            sealed.begin() + static_cast<long>(nonce.size()), nonce.begin());
  Bytes out(sealed.size() - nonce.size() - crypto::kAeadTagSize);
  if (!crypto::aead_open_into(key_, nonce, to_bytes("rex-sealed"),
                              sealed.subspan(nonce.size()), out)) {
    return std::nullopt;
  }
  return out;
}

}  // namespace rex::enclave
