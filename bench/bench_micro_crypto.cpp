// Micro benchmarks — cryptography substrate (google-benchmark).
//
// The AEAD is on REX's hot path (every protocol payload between enclaves),
// the hash/HKDF/X25519 are per-attestation costs. These are host
// throughputs; the simulator's CostModel::crypto_byte_ns is a fixed
// cost-model constant, not calibrated from them (DESIGN.md §7).
#include <benchmark/benchmark.h>

#include "crypto/aead.hpp"
#include "crypto/drbg.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/x25519.hpp"
#include "support/rng.hpp"

namespace {

using namespace rex;

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform(256));
  return bytes;
}

void BM_Sha256(benchmark::State& state) {
  const Bytes data = random_bytes(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(65536);

void BM_HmacSha256(benchmark::State& state) {
  const Bytes key = random_bytes(32, 2);
  const Bytes data = random_bytes(static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_sha256(key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(4096);

// The AEAD and its two kernels, named by layer so the numbers line up with
// rexbench's crypto.seal_mib_s / crypto.open_mib_s. 3422 bytes is the mean
// rex_sgx_dpsgd_er message.

crypto::ChaChaKey bench_key(std::uint8_t stride) {
  crypto::ChaChaKey key{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i * stride + 1);
  }
  return key;
}

void BM_AeadSeal(benchmark::State& state) {
  const crypto::ChaChaKey key = bench_key(7);
  const Bytes plaintext =
      random_bytes(static_cast<std::size_t>(state.range(0)), 4);
  const Bytes aad = random_bytes(8, 5);
  Bytes sealed(plaintext.size() + crypto::kAeadTagSize);
  std::uint64_t sequence = 0;
  for (auto _ : state) {
    const crypto::ChaChaNonce nonce =
        crypto::nonce_from_sequence(sequence++, 0);
    crypto::aead_seal_into(key, nonce, aad, plaintext, sealed);
    benchmark::DoNotOptimize(sealed.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AeadSeal)
    ->Name("crypto.seal")
    ->Arg(64)
    ->Arg(3422)
    ->Arg(65536)
    ->Arg(1 << 20);

void BM_AeadOpen(benchmark::State& state) {
  const crypto::ChaChaKey key = bench_key(3);
  const Bytes plaintext =
      random_bytes(static_cast<std::size_t>(state.range(0)), 6);
  const Bytes aad = random_bytes(8, 7);
  const crypto::ChaChaNonce nonce = crypto::nonce_from_sequence(1, 1);
  const Bytes sealed = crypto::aead_seal(key, nonce, aad, plaintext);
  Bytes opened(plaintext.size());
  for (auto _ : state) {
    if (!crypto::aead_open_into(key, nonce, aad, sealed, opened)) {
      state.SkipWithError("AEAD open failed");
      break;
    }
    benchmark::DoNotOptimize(opened.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AeadOpen)->Name("crypto.open")->Arg(3422)->Arg(65536);

void BM_ChaCha20Xor(benchmark::State& state) {
  const crypto::ChaChaKey key = bench_key(5);
  const crypto::ChaChaNonce nonce = crypto::nonce_from_sequence(2, 0);
  const Bytes data = random_bytes(static_cast<std::size_t>(state.range(0)), 8);
  Bytes out(data.size());
  for (auto _ : state) {
    crypto::chacha20_xor_into(key, nonce, 1, data, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ChaCha20Xor)->Name("chacha20.xor")->Arg(3422)->Arg(65536);

void BM_Poly1305(benchmark::State& state) {
  crypto::PolyKey key{};
  const Bytes key_bytes = random_bytes(key.size(), 9);
  std::copy(key_bytes.begin(), key_bytes.end(), key.begin());
  const Bytes data =
      random_bytes(static_cast<std::size_t>(state.range(0)), 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::poly1305(key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Poly1305)->Name("poly1305")->Arg(3422)->Arg(65536);

void BM_X25519SharedSecret(benchmark::State& state) {
  crypto::X25519Key alice{}, bob_public{};
  alice.fill(0x42);
  bob_public = crypto::x25519_public_key([] {
    crypto::X25519Key k{};
    k.fill(0x66);
    return k;
  }());
  crypto::X25519Key out{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::x25519_shared_secret(alice, bob_public, out));
  }
}
BENCHMARK(BM_X25519SharedSecret);

void BM_DrbgGenerate(benchmark::State& state) {
  crypto::Drbg drbg(99);
  Bytes buffer(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    drbg.generate(buffer.data(), buffer.size());
    benchmark::DoNotOptimize(buffer.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_DrbgGenerate)->Arg(32)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
