#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/cluster.hpp"
#include "crypto/aead.hpp"
#include "crypto/drbg.hpp"
#include "enclave/attestation.hpp"
#include "ml/topk.hpp"
#include "net/frame.hpp"
#include "support/calendar_queue.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace rexbench {

namespace {

/// Minimum wall time of one probe loop: long enough that timer resolution
/// and one-off cache misses vanish, short enough to keep the traced run
/// cheap.
constexpr double kProbeSeconds = 0.05;

/// Keeps probe results observable so the loops cannot be folded away.
volatile std::uint64_t g_sink = 0;

/// Seconds per call of `op`, over at least kProbeSeconds and `min_calls`.
template <class Op>
double time_per_call(Op&& op, std::size_t min_calls = 8) {
  op();  // warm-up: lazy buffers and caches
  std::size_t calls = 0;
  const Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  do {
    op();
    ++calls;
    elapsed = seconds_since(start);
  } while (calls < min_calls || elapsed < kProbeSeconds);
  return elapsed / static_cast<double>(calls);
}

struct QueueItem {
  double time = 0.0;
  std::uint64_t seq = 0;
};

struct QueueKey {
  rex::CalendarKey operator()(const QueueItem& item) const {
    return {item.time, item.seq};
  }
};

/// Calendar-queue hold model at the run's queue depth: pop the earliest
/// item, push a successor a random gap later. Returns ns per push+pop.
double probe_queue(std::size_t depth, std::uint64_t seed) {
  depth = std::max<std::size_t>(depth, 16);
  rex::CalendarQueue<QueueItem, QueueKey> queue;
  rex::Rng rng(seed ^ 0x9E7E);
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < depth; ++i) {
    queue.push({rng.uniform01(), seq++});
  }
  std::vector<QueueItem> batch;
  const double per_call = time_per_call(
      [&] {
        for (int i = 0; i < 256; ++i) {
          batch.clear();
          queue.pop_time_batch(batch);
          for (const QueueItem& item : batch) {
            queue.push({item.time + rng.uniform01(), seq++});
          }
        }
      });
  g_sink = g_sink + queue.size();
  return per_call / 256.0 * 1e9;
}

/// ThreadPool::parallel_shards handoff over `groups` trivial shards (the
/// event engine's per-batch cost), in microseconds per call.
double probe_pool(std::size_t groups) {
  rex::ThreadPool pool;  // the simulator default: hardware concurrency
  std::vector<std::uint64_t> slots(groups, 0);
  const double per_call = time_per_call(
      [&] { pool.parallel_shards(groups, [&](std::size_t i) { ++slots[i]; }); },
      64);
  for (const std::uint64_t v : slots) g_sink = g_sink + v;
  return per_call * 1e6;
}

rex::core::ProtocolPayload make_payload(const ProbeInputs& in) {
  rex::core::ProtocolPayload payload;
  payload.kind = in.payload_kind;
  payload.epoch = 1;
  payload.sender_degree = static_cast<std::uint32_t>(in.neighbor_models.size());
  if (in.payload_kind == rex::core::PayloadKind::kModel) {
    payload.model_blob = in.model->serialize();
  } else {
    const std::size_t n = std::min(in.raw_points, in.shard->train.size());
    payload.ratings.assign(in.shard->train.begin(),
                           in.shard->train.begin() +
                               static_cast<std::ptrdiff_t>(n));
  }
  return payload;
}

void probe_codecs(const ProbeInputs& in, Outcome& out) {
  const rex::core::ProtocolPayload payload = make_payload(in);
  rex::Bytes encoded;
  out.set("core.payload_encode_us",
          time_per_call([&] { encoded = payload.encode(std::move(encoded)); }) *
              1e6);
  rex::core::ProtocolPayload decoded;
  out.set("core.payload_decode_us",
          time_per_call([&] {
            rex::core::ProtocolPayload::decode_into(encoded, decoded);
          }) * 1e6);
  g_sink = g_sink + decoded.ratings.size() + decoded.model_blob.size();
}

void probe_ml(const ProbeInputs& in, Outcome& out) {
  std::unique_ptr<rex::ml::RecModel> model = in.model->clone();
  rex::Rng rng(in.seed ^ 0x7A1);
  out.set("ml.train_epoch_us",
          time_per_call([&] { model->train_epoch(in.shard->train, rng); }) *
              1e6);

  std::vector<rex::ml::MergeSource> sources;
  const double weight =
      1.0 / static_cast<double>(in.neighbor_models.size() + 1);
  for (const rex::ml::RecModel* neighbor : in.neighbor_models) {
    sources.push_back({neighbor, weight});
  }
  out.set("ml.merge_us",
          sources.empty()
              ? 0.0
              : time_per_call([&] { model->merge(sources, weight); }) * 1e6);

  double rmse = 0.0;
  out.set("ml.rmse_us",
          time_per_call([&] { rmse += model->rmse(in.shard->test); }) * 1e6);

  rex::ml::TopKIndex index;
  const rex::data::UserId user =
      in.shard->train.empty() ? 0 : in.shard->train.front().user;
  out.set("ml.topk_us", time_per_call([&] {
            g_sink = g_sink + index.query(*model, user, 10, {}).size();
          }) * 1e6);
  g_sink = g_sink + static_cast<std::uint64_t>(std::isfinite(rmse));
}

void probe_crypto(const ProbeInputs& in, Outcome& out) {
  const rex::core::ClusterContext cluster(
      in.seed, std::max<std::size_t>(in.platforms, 2));
  std::uint64_t handshake = 0;
  out.set("crypto.attest_pair_ms",
          time_per_call(
              [&] {
                rex::crypto::Drbg drbg_a(in.seed ^ (2 * handshake + 1));
                rex::crypto::Drbg drbg_b(in.seed ^ (2 * handshake + 2));
                ++handshake;
                rex::enclave::AttestationSession a(
                    0, 1, cluster.identity(), cluster.quoting_enclave(0),
                    cluster.verifier(), &drbg_a);
                rex::enclave::AttestationSession b(
                    1, 0, cluster.identity(), cluster.quoting_enclave(1),
                    cluster.verifier(), &drbg_b);
                const auto quote_b = b.handle(a.initiate());
                REX_REQUIRE(quote_b.has_value(), "probe handshake stalled");
                const auto quote_a = a.handle(*quote_b);
                REX_REQUIRE(quote_a.has_value(), "probe handshake stalled");
                (void)b.handle(*quote_a);
                REX_REQUIRE(a.attested() && b.attested(),
                            "probe handshake failed");
              },
              4) *
              1e3);

  // Seal/open throughput at the run's mean message size.
  const std::size_t size = std::max<std::size_t>(
      64, static_cast<std::size_t>(in.message_bytes));
  rex::crypto::Drbg drbg(in.seed ^ 0xAEAD);
  rex::crypto::ChaChaKey key{};
  drbg.generate(key.data(), key.size());
  const rex::Bytes plaintext = drbg.generate(size);
  const rex::Bytes aad(8, 0x5A);
  std::uint64_t sequence = 0;
  rex::Bytes sealed;
  const double seal_s = time_per_call([&] {
    sealed = rex::crypto::aead_seal(
        key, rex::crypto::nonce_from_sequence(sequence++, 0), aad, plaintext);
  });
  const rex::crypto::ChaChaNonce nonce =
      rex::crypto::nonce_from_sequence(sequence - 1, 0);
  const double open_s = time_per_call([&] {
    const auto opened = rex::crypto::aead_open(key, nonce, aad, sealed);
    REX_REQUIRE(opened.has_value(), "probe AEAD open failed");
    g_sink = g_sink + opened->size();
  });
  const double mib = static_cast<double>(size) / (1024.0 * 1024.0);
  out.set("crypto.seal_mib_s", mib / seal_s);
  out.set("crypto.open_mib_s", mib / open_s);
}

void probe_frames(const ProbeInputs& in, Outcome& out) {
  const std::size_t payload_size =
      in.message_bytes > rex::net::Envelope::kHeaderSize
          ? static_cast<std::size_t>(in.message_bytes) -
                rex::net::Envelope::kHeaderSize
          : 16;
  rex::net::Envelope envelope;
  envelope.src = 0;
  envelope.dst = 1;
  envelope.kind = rex::net::MessageKind::kProtocol;
  envelope.payload = rex::SharedBytes(rex::Bytes(payload_size, 0xA5));
  rex::Bytes wire;
  out.set("net.frame_encode_us", time_per_call([&] {
            wire.clear();
            rex::net::append_data(wire, envelope);
          }) * 1e6);
  out.set("net.frame_parse_us", time_per_call([&] {
            rex::net::FrameParser parser;
            parser.feed(wire);
            const auto frame = parser.next();
            rex::net::DataFrame data;
            REX_REQUIRE(frame && rex::net::parse_data(frame->body, data),
                        "probe frame did not parse");
            g_sink = g_sink + data.payload.size();
          }) * 1e6);
}

}  // namespace

void run_layer_probes(const ProbeInputs& inputs, Outcome& out) {
  out.set("support.queue_op_ns", probe_queue(inputs.queue_size, inputs.seed));
  out.set("support.pool_shards_us", probe_pool(3));
  probe_codecs(inputs, out);
  probe_ml(inputs, out);
  probe_crypto(inputs, out);
  probe_frames(inputs, out);
}

}  // namespace rexbench
