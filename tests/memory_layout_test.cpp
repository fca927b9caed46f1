// Memory layout primitives of the mega-scale profile (DESIGN.md §10):
// ObjectArena index/address stability, EnvelopeFifo storage recycling, the
// BufferPool freelists, and the lazy MF user-row store — including
// the wire contract that lazy and eager models speak byte-identical
// encodings.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <thread>
#include <vector>

#include "ml/mf.hpp"
#include "net/transport.hpp"
#include "support/arena.hpp"
#include "support/pool.hpp"
#include "support/rng.hpp"

namespace rex {
namespace {

// ===== ObjectArena =====

struct Tracked {
  static inline std::vector<int>* destroyed = nullptr;
  int id;
  // Padding so several objects share a chunk but not a cache line — the
  // layout the arena actually holds hosts in.
  std::array<std::uint64_t, 9> payload{};

  explicit Tracked(int id_in) : id(id_in) { payload.fill(id_in); }
  ~Tracked() {
    if (destroyed != nullptr) destroyed->push_back(id);
  }
};

TEST(ObjectArena, AddressesAndIndicesStableAcrossChunkGrowth) {
  ObjectArena<Tracked> arena;
  std::vector<const Tracked*> addresses;
  // Cross several chunk boundaries (kChunkObjects = 1024).
  const int n = static_cast<int>(ObjectArena<Tracked>::kChunkObjects * 3 + 7);
  for (int i = 0; i < n; ++i) {
    addresses.push_back(&arena.emplace_back(i));
  }
  ASSERT_EQ(arena.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    // Same object at the same address, reachable by index.
    EXPECT_EQ(&arena[static_cast<std::size_t>(i)], addresses[i]);
    EXPECT_EQ(arena[static_cast<std::size_t>(i)].id, i);
    EXPECT_EQ(arena.at(static_cast<std::size_t>(i)).payload[3],
              static_cast<std::uint64_t>(i));
  }
  EXPECT_THROW((void)arena.at(arena.size()), Error);
}

TEST(ObjectArena, DestroysInReverseConstructionOrder) {
  std::vector<int> destroyed;
  Tracked::destroyed = &destroyed;
  {
    ObjectArena<Tracked> arena;
    for (int i = 0; i < 5; ++i) arena.emplace_back(i);
  }
  Tracked::destroyed = nullptr;
  ASSERT_EQ(destroyed.size(), 5u);
  EXPECT_EQ(destroyed, (std::vector<int>{4, 3, 2, 1, 0}));
}

// ===== EnvelopeFifo =====

net::Envelope make_envelope(net::NodeId src, net::NodeId dst,
                            std::uint8_t byte) {
  net::Envelope env;
  env.src = src;
  env.dst = dst;
  env.payload = Bytes{byte};
  return env;
}

TEST(EnvelopeFifo, FifoOrderAndStorageRecycling) {
  net::EnvelopeFifo fifo;
  EXPECT_TRUE(fifo.empty());
  for (std::uint8_t b = 0; b < 8; ++b) fifo.push_back(make_envelope(1, 2, b));
  EXPECT_EQ(fifo.size(), 8u);
  for (std::uint8_t b = 0; b < 8; ++b) {
    EXPECT_EQ(fifo.front().payload[0], b);
    EXPECT_EQ(fifo.pop_front().payload[0], b);
  }
  EXPECT_TRUE(fifo.empty());
  // Fully drained: the cursor reset, so refills reuse the same storage
  // from index 0 instead of growing the vector forever.
  const std::size_t capacity = fifo.items.capacity();
  EXPECT_GT(capacity, 0u);
  for (std::uint8_t b = 0; b < 8; ++b) fifo.push_back(make_envelope(1, 2, b));
  EXPECT_EQ(fifo.items.capacity(), capacity);
  EXPECT_EQ(fifo.head, 0u);
}

TEST(EnvelopeFifo, ReleaseStorageRequiresEmpty) {
  net::EnvelopeFifo fifo;
  fifo.push_back(make_envelope(1, 2, 9));
  EXPECT_THROW(fifo.release_storage(), Error);
  (void)fifo.pop_front();
  fifo.release_storage();
  EXPECT_TRUE(fifo.empty());
  EXPECT_EQ(fifo.items.capacity(), 0u);
}

// ===== BufferPool =====

TEST(BufferPool, SingleThreadRecyclesCapacity) {
  // Single-threaded acquire/release: capacity cycles, stats count the reuse.
  BufferPool pool;
  Bytes first = pool.acquire();
  EXPECT_EQ(pool.stats().fresh, 1u);
  first.resize(256);
  pool.release(std::move(first));
  EXPECT_EQ(pool.free_buffers(), 1u);
  const Bytes second = pool.acquire();
  EXPECT_EQ(pool.stats().reused, 1u);
  EXPECT_TRUE(second.empty());         // cleared...
  EXPECT_GE(second.capacity(), 256u);  // ...but the capacity survived
  EXPECT_EQ(pool.free_buffers(), 0u);
}

TEST(BufferPool, BufferReleasedOnOneThreadServesAcquireOnAnother) {
  // Producers acquire on one worker and consumers release on another: the
  // next acquire, on any thread, must reuse the released capacity instead
  // of allocating.
  BufferPool pool;
  Bytes buffer(512, std::uint8_t{7});
  std::thread([&pool, &buffer] { pool.release(std::move(buffer)); }).join();
  Bytes reused;
  std::thread([&pool, &reused] { reused = pool.acquire(); }).join();
  EXPECT_GE(reused.capacity(), 512u);
  EXPECT_EQ(pool.stats().reused, 1u);
  EXPECT_EQ(pool.stats().fresh, 0u);
}

TEST(BufferPool, PooledSharedBytesRoundTripsContentsUnderThreads) {
  // Recycling must never change the bytes a consumer reads: hammer pooled
  // payloads from several threads and check every payload's contents.
  BufferPool pool;
  std::vector<std::thread> workers;
  std::atomic<int> mismatches{0};
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([w, &pool, &mismatches] {
      for (int round = 0; round < 500; ++round) {
        Bytes bytes = pool.acquire();
        bytes.assign(64, static_cast<std::uint8_t>(w * 50 + round % 50));
        SharedBytes payload = SharedBytes::pooled(pool, std::move(bytes));
        const SharedBytes copy = payload;  // second holder, same storage
        for (std::size_t i = 0; i < copy.size(); ++i) {
          if (copy[i] != static_cast<std::uint8_t>(w * 50 + round % 50)) {
            mismatches.fetch_add(1);
          }
        }
        payload = SharedBytes{};  // copy still holds the block
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(mismatches.load(), 0);
  const BufferPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.fresh + stats.reused, 4u * 500u);
  EXPECT_GT(stats.reused, 0u);  // the loops got warm
}

TEST(BufferPool, PooledBlockStorageReturnsAfterLastReleaseOnAnyThread) {
  // The last reference to a fanned-out share drops on whichever thread
  // merges it last. Its storage must still come back to the producer, or a
  // producer that keeps sharing allocates afresh.
  BufferPool pool;
  std::vector<SharedBytes> shares;
  for (int i = 0; i < 2; ++i) {
    Bytes bytes = pool.acquire();
    bytes.assign(64, static_cast<std::uint8_t>(i));
    shares.push_back(SharedBytes::pooled(pool, std::move(bytes)));
  }
  EXPECT_EQ(pool.stats().fresh, 2u);
  for (SharedBytes& share : shares) {
    std::thread([&share] { share = SharedBytes{}; }).join();
  }
  for (int i = 0; i < 2; ++i) {
    const Bytes buffer = pool.acquire();
    EXPECT_GE(buffer.capacity(), 64u);
  }
  EXPECT_EQ(pool.stats().reused, 2u);
  EXPECT_EQ(pool.stats().fresh, 2u);
}

// ===== Lazy MF user rows =====

ml::MfConfig lazy_config() {
  ml::MfConfig config;
  config.n_users = 200;
  config.n_items = 20;
  config.embedding_dim = 4;
  config.sgd_steps_per_epoch = 8;
  config.lazy_user_rows = true;
  config.lazy_init_seed = 77;
  return config;
}

TEST(MfLazyRows, MaterializationAccountingIsPerTouchedUser) {
  ml::MfConfig config = lazy_config();
  Rng rng(5);
  ml::MfModel model(config, rng);
  EXPECT_EQ(model.materialized_user_rows(), 0u);
  model.sgd_step({3, 1, 4.0f});
  model.sgd_step({3, 2, 2.0f});  // same user: no new row
  model.sgd_step({117, 0, 5.0f});
  EXPECT_EQ(model.materialized_user_rows(), 2u);
  EXPECT_TRUE(model.has_seen_user(3));
  EXPECT_TRUE(model.has_seen_user(117));
  EXPECT_FALSE(model.has_seen_user(4));

  // The footprint claim behind the diet: a lazy model storing 2 of 200
  // rows undercuts the eager layout, while the logical parameter count
  // (the counters the paper's tables report) is unchanged.
  ml::MfConfig eager = config;
  eager.lazy_user_rows = false;
  Rng eager_rng(5);
  const ml::MfModel dense(eager, eager_rng);
  EXPECT_LT(model.memory_footprint(), dense.memory_footprint());
  EXPECT_EQ(model.parameter_count(), dense.parameter_count());
}

TEST(MfLazyRows, UnmaterializedReadsMatchMaterializedValues) {
  // predict() on a never-written row computes the seeded init values into
  // scratch; the dense wire image materializes the same values. An eager
  // model fed that image must therefore predict bit-identically.
  ml::MfConfig config = lazy_config();
  Rng rng(5);
  const ml::MfModel lazy(config, rng);
  ml::MfConfig eager_config = config;
  eager_config.lazy_user_rows = false;
  Rng eager_rng(99);  // init overwritten by deserialize below
  ml::MfModel eager(eager_config, eager_rng);
  eager.deserialize(lazy.serialize());
  for (const data::UserId u : {0u, 7u, 117u, 199u}) {
    for (const data::ItemId i : {0u, 9u, 19u}) {
      EXPECT_EQ(lazy.predict(u, i), eager.predict(u, i)) << u << "," << i;
    }
  }
}

TEST(MfLazyRows, WireFormatsByteIdenticalAcrossTheKnob) {
  // One lazy model with a few trained rows; its dense, quantized and
  // sliced encodings must round-trip byte-identically through both a lazy
  // and an eager peer — the property that lets lean-memory nodes exchange
  // shares with anyone.
  ml::MfConfig config = lazy_config();
  Rng rng(5);
  ml::MfModel model(config, rng);
  model.sgd_step({3, 1, 4.0f});
  model.sgd_step({117, 0, 5.0f});
  model.sgd_step({42, 7, 1.5f});

  ml::MfConfig eager_config = config;
  eager_config.lazy_user_rows = false;

  const Bytes dense = model.serialize();
  {
    Rng peer_rng(11);
    ml::MfModel lazy_peer(config, peer_rng);
    lazy_peer.deserialize(dense);
    EXPECT_EQ(lazy_peer.serialize(), dense);
    Rng eager_peer_rng(12);
    ml::MfModel eager_peer(eager_config, eager_peer_rng);
    eager_peer.deserialize(dense);
    EXPECT_EQ(eager_peer.serialize(), dense);
  }

  const Bytes quantized = model.serialize_quantized();
  {
    Rng peer_rng(13);
    ml::MfModel lazy_peer(config, peer_rng);
    lazy_peer.deserialize(quantized);
    Rng eager_peer_rng(14);
    ml::MfModel eager_peer(eager_config, eager_peer_rng);
    eager_peer.deserialize(quantized);
    // Quantization is lossy once, then stable: both peers decoded the same
    // codes, so their re-encodings agree with each other.
    EXPECT_EQ(lazy_peer.serialize_quantized(),
              eager_peer.serialize_quantized());
    EXPECT_EQ(lazy_peer.serialize(), eager_peer.serialize());
  }

  const Bytes sliced = model.serialize_sliced(2, 0);
  {
    Rng peer_rng(15);
    ml::MfModel lazy_peer(config, peer_rng);
    lazy_peer.deserialize(sliced);
    EXPECT_EQ(lazy_peer.serialize_sliced(2, 0), sliced);
  }
}

}  // namespace
}  // namespace rex
