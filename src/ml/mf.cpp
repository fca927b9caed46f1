#include "ml/mf.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "linalg/simd_kernels.hpp"
#include "linalg/vector_ops.hpp"
#include "serialize/binary.hpp"
#include "support/error.hpp"

namespace rex::ml {

MfModel::MfModel(const MfConfig& config, Rng& init_rng)
    : config_(config),
      user_embeddings_(config.lazy_user_rows ? 0 : config.n_users,
                       config.embedding_dim),
      item_embeddings_(config.n_items, config.embedding_dim),
      user_bias_(config.lazy_user_rows ? 0 : config.n_users, 0.0f),
      item_bias_(config.n_items, 0.0f),
      seen_user_(config.lazy_user_rows ? 0 : config.n_users, 0),
      seen_item_(config.n_items, 0) {
  REX_REQUIRE(config.n_users > 0 && config.n_items > 0,
              "MF model dimensions must be positive");
  REX_REQUIRE(config.embedding_dim > 0, "embedding dim must be positive");
  if (!lazy()) user_embeddings_.randomize_normal(init_rng, config.init_stddev);
  item_embeddings_.randomize_normal(init_rng, config.init_stddev);
}

std::unique_ptr<RecModel> MfModel::clone() const {
  return std::make_unique<MfModel>(*this);
}

// ===== Lazy user-row store (DESIGN.md §10) =====

std::size_t MfModel::find_user_slot(data::UserId u) const {
  const auto it = std::lower_bound(
      user_slots_.begin(), user_slots_.end(), u,
      [](const auto& entry, data::UserId user) { return entry.first < user; });
  if (it == user_slots_.end() || it->first != u) return kNoSlot;
  return it->second;
}

void MfModel::seeded_user_row(data::UserId u, std::span<float> out) const {
  Rng rng = Rng(config_.lazy_init_seed).derive(u);
  for (float& v : out) {
    v = static_cast<float>(rng.normal(0.0, config_.init_stddev));
  }
}

std::size_t MfModel::ensure_user_slot(data::UserId u) {
  const auto it = std::lower_bound(
      user_slots_.begin(), user_slots_.end(), u,
      [](const auto& entry, data::UserId user) { return entry.first < user; });
  if (it != user_slots_.end() && it->first == u) return it->second;
  const std::size_t slot = lazy_user_bias_.size();
  user_slots_.insert(it, {u, static_cast<std::uint32_t>(slot)});
  lazy_user_rows_.resize(lazy_user_rows_.size() + config_.embedding_dim);
  seeded_user_row(u, std::span<float>(lazy_user_rows_)
                         .subspan(slot * config_.embedding_dim,
                                  config_.embedding_dim));
  lazy_user_bias_.push_back(0.0f);
  lazy_seen_user_.push_back(0);
  return slot;
}

std::span<const float> MfModel::user_row(data::UserId u) const {
  if (!lazy()) return user_embeddings_.row(u);
  const std::size_t slot = find_user_slot(u);
  if (slot != kNoSlot) {
    return std::span<const float>(lazy_user_rows_)
        .subspan(slot * config_.embedding_dim, config_.embedding_dim);
  }
  // Unmaterialized read: the row a future write would materialize, computed
  // into per-thread scratch so pure reads never allocate per-node storage.
  static thread_local std::vector<float> scratch;
  scratch.resize(config_.embedding_dim);
  seeded_user_row(u, scratch);
  return scratch;
}

std::span<float> MfModel::user_row_mut(data::UserId u) {
  if (!lazy()) return user_embeddings_.row(u);
  const std::size_t slot = ensure_user_slot(u);
  return std::span<float>(lazy_user_rows_)
      .subspan(slot * config_.embedding_dim, config_.embedding_dim);
}

float MfModel::user_bias_at(data::UserId u) const {
  if (!lazy()) return user_bias_[u];
  const std::size_t slot = find_user_slot(u);
  return slot == kNoSlot ? 0.0f : lazy_user_bias_[slot];
}

float& MfModel::user_bias_ref(data::UserId u) {
  if (!lazy()) return user_bias_[u];
  return lazy_user_bias_[ensure_user_slot(u)];
}

void MfModel::mark_user_seen(data::UserId u) {
  if (!lazy()) {
    seen_user_[u] = 1;
    return;
  }
  lazy_seen_user_[ensure_user_slot(u)] = 1;
}

float MfModel::predict(data::UserId user, data::ItemId item) const {
  REX_REQUIRE(user < config_.n_users && item < config_.n_items,
              "prediction index out of range");
  return config_.global_mean + user_bias_at(user) + item_bias_[item] +
         linalg::dot(user_row(user), item_embeddings_.row(item));
}

double MfModel::rmse(std::span<const data::Rating> ratings) const {
  if (ratings.empty()) return 0.0;
  double acc = 0.0;
  for (const data::Rating& r : ratings) {
    const float prediction = std::clamp(predict(r.user, r.item),
                                        data::kMinRating, data::kMaxRating);
    const double error = static_cast<double>(prediction) -
                         static_cast<double>(r.value);
    acc += error * error;
  }
  return std::sqrt(acc / static_cast<double>(ratings.size()));
}

void MfModel::score_items(data::UserId user, std::span<float> out) const {
  REX_REQUIRE(user < config_.n_users && out.size() == config_.n_items,
              "score buffer/catalog mismatch");
  const auto row = user_row(user);
  const float base = config_.global_mean + user_bias_at(user);
  for (data::ItemId i = 0; i < config_.n_items; ++i) {
    out[i] = base + item_bias_[i] + linalg::dot(row, item_embeddings_.row(i));
  }
}

void MfModel::sgd_step(const data::Rating& rating) {
  const auto u = rating.user;
  const auto i = rating.item;
  REX_REQUIRE(u < config_.n_users && i < config_.n_items,
              "rating index out of range");
  const float error = rating.value - predict(u, i);
  const float lr = config_.learning_rate;
  const float lambda = config_.regularization;

  float& bu = user_bias_ref(u);
  bu += lr * (error - lambda * bu);
  item_bias_[i] += lr * (error - lambda * item_bias_[i]);

  auto x = user_row_mut(u);
  auto y = item_embeddings_.row(i);
  if (config_.embedding_dim < linalg::kSimdThreshold) {
    // Paper-scale dims (k = 2..10) stay inline; same ops as the kernel.
    for (std::size_t l = 0; l < config_.embedding_dim; ++l) {
      const float x_old = x[l];
      x[l] += lr * (error * y[l] - lambda * x[l]);
      y[l] += lr * (error * x_old - lambda * y[l]);
    }
  } else {
    linalg::simd::mf_sgd_rows(x.data(), y.data(), config_.embedding_dim,
                              error, lr, lambda);
  }
  mark_user_seen(u);
  seen_item_[i] = 1;
}

void MfModel::train_epoch(std::span<const data::Rating> store, Rng& rng) {
  if (store.empty()) return;
  // Fixed number of SGD steps regardless of store size (§III-E): samples are
  // drawn uniformly with replacement so epoch cost never grows with the
  // accumulating raw-data store.
  for (std::size_t step = 0; step < config_.sgd_steps_per_epoch; ++step) {
    sgd_step(store[rng.uniform(store.size())]);
  }
}

void MfModel::train_full_pass(std::span<const data::Rating> dataset,
                              Rng& rng) {
  std::vector<std::size_t> order(dataset.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);
  for (std::size_t idx : order) sgd_step(dataset[idx]);
}

void MfModel::dense_user_image(std::vector<float>& rows,
                               std::vector<float>& bias,
                               std::vector<std::uint8_t>& seen) const {
  rows.resize(config_.n_users * config_.embedding_dim);
  bias.resize(config_.n_users);
  seen.resize(config_.n_users);
  for (data::UserId u = 0; u < config_.n_users; ++u) {
    const auto src = user_row(u);
    std::copy(src.begin(), src.end(),
              rows.begin() +
                  static_cast<std::ptrdiff_t>(u * config_.embedding_dim));
    bias[u] = user_bias_at(u);
    seen[u] = has_seen_user(u) ? 1 : 0;
  }
}

Bytes MfModel::serialize() const {
  serialize::BinaryWriter w;
  w.reserve(wire_size());
  serialize_into(w);
  return w.take();
}

void MfModel::serialize_into(serialize::BinaryWriter& w) const {
  w.str(kind());
  w.u32(static_cast<std::uint32_t>(config_.n_users));
  w.u32(static_cast<std::uint32_t>(config_.n_items));
  w.u32(static_cast<std::uint32_t>(config_.embedding_dim));
  std::vector<float> dense_rows, dense_bias;
  std::vector<std::uint8_t> dense_seen;
  if (lazy()) dense_user_image(dense_rows, dense_bias, dense_seen);
  const std::span<const float> urows =
      lazy() ? std::span<const float>(dense_rows) : user_embeddings_.flat();
  const std::vector<float>& ubias = lazy() ? dense_bias : user_bias_;
  const std::vector<std::uint8_t>& useen = lazy() ? dense_seen : seen_user_;
  w.f32_array(urows);
  w.f32_array(item_embeddings_.flat());
  w.f32_array(ubias);
  w.f32_array(item_bias_);
  // Seen masks, bit-packed.
  const auto write_mask = [&w](const std::vector<std::uint8_t>& mask) {
    std::uint8_t byte = 0;
    for (std::size_t i = 0; i < mask.size(); ++i) {
      byte |= static_cast<std::uint8_t>((mask[i] & 1) << (i % 8));
      if (i % 8 == 7 || i + 1 == mask.size()) {
        w.u8(byte);
        byte = 0;
      }
    }
  };
  write_mask(useen);
  write_mask(seen_item_);
}

void MfModel::deserialize(BytesView payload) {
  serialize::BinaryReader r(payload);
  const std::string magic = r.str();
  if (magic == "mfq") {
    deserialize_quantized(r);
    return;
  }
  if (magic == "mfs") {
    deserialize_sliced(r);
    return;
  }
  REX_REQUIRE(magic == kind(), "payload is not an MF model");
  REX_REQUIRE(r.u32() == config_.n_users && r.u32() == config_.n_items &&
                  r.u32() == config_.embedding_dim,
              "MF model shape mismatch");
  const auto read_mask = [&r](std::vector<std::uint8_t>& mask) {
    std::uint8_t byte = 0;
    for (std::size_t i = 0; i < mask.size(); ++i) {
      if (i % 8 == 0) byte = r.u8();
      mask[i] = (byte >> (i % 8)) & 1;
    }
  };
  if (!lazy()) {
    r.f32_array(user_embeddings_.flat());
    r.f32_array(item_embeddings_.flat());
    r.f32_array(user_bias_);
    r.f32_array(item_bias_);
    read_mask(seen_user_);
    read_mask(seen_item_);
    r.expect_end();
    return;
  }
  // A full dense image materializes every row (the values must persist);
  // rows arrive in user order, so slots append without index shuffling.
  for (data::UserId u = 0; u < config_.n_users; ++u) {
    r.f32_array(user_row_mut(u));
  }
  r.f32_array(item_embeddings_.flat());
  for (data::UserId u = 0; u < config_.n_users; ++u) {
    user_bias_ref(u) = r.f32();
  }
  r.f32_array(item_bias_);
  std::vector<std::uint8_t> mask(config_.n_users);
  read_mask(mask);
  for (data::UserId u = 0; u < config_.n_users; ++u) {
    lazy_seen_user_[find_user_slot(u)] = mask[u];
  }
  read_mask(seen_item_);
  r.expect_end();
}

namespace {

/// q8 affine tensor codec: (min, scale, one byte per value). scale is
/// chosen so code 255 hits max exactly; a constant tensor degenerates to
/// scale 0 and all-zero codes.
void write_q8_tensor(serialize::BinaryWriter& w, std::span<const float> t) {
  float lo = t.empty() ? 0.0f : t[0], hi = lo;
  for (float v : t) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const float scale = (hi - lo) / 255.0f;
  const float inv = scale > 0.0f ? 1.0f / scale : 0.0f;
  w.f32(lo);
  w.f32(scale);
  for (float v : t) {
    const float q = std::round((v - lo) * inv);
    w.u8(static_cast<std::uint8_t>(std::clamp(q, 0.0f, 255.0f)));
  }
}

void read_q8_tensor(serialize::BinaryReader& r, std::span<float> t) {
  const float lo = r.f32();
  const float scale = r.f32();
  const BytesView codes = r.raw(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = lo + scale * static_cast<float>(codes[i]);
  }
}

/// Rows r in [0, n) with r % count == index.
std::size_t slice_rows(std::size_t n, std::uint32_t count,
                       std::uint32_t index) {
  return n > index ? (n - index + count - 1) / count : 0;
}

}  // namespace

Bytes MfModel::serialize_quantized() const {
  serialize::BinaryWriter w;
  w.str("mfq");
  w.u32(static_cast<std::uint32_t>(config_.n_users));
  w.u32(static_cast<std::uint32_t>(config_.n_items));
  w.u32(static_cast<std::uint32_t>(config_.embedding_dim));
  std::vector<float> dense_rows, dense_bias;
  std::vector<std::uint8_t> dense_seen;
  if (lazy()) dense_user_image(dense_rows, dense_bias, dense_seen);
  const std::span<const float> urows =
      lazy() ? std::span<const float>(dense_rows) : user_embeddings_.flat();
  const std::vector<float>& ubias = lazy() ? dense_bias : user_bias_;
  const std::vector<std::uint8_t>& useen = lazy() ? dense_seen : seen_user_;
  write_q8_tensor(w, urows);
  write_q8_tensor(w, item_embeddings_.flat());
  write_q8_tensor(w, ubias);
  write_q8_tensor(w, item_bias_);
  const auto write_mask = [&w](const std::vector<std::uint8_t>& mask) {
    std::uint8_t byte = 0;
    for (std::size_t i = 0; i < mask.size(); ++i) {
      byte |= static_cast<std::uint8_t>((mask[i] & 1) << (i % 8));
      if (i % 8 == 7 || i + 1 == mask.size()) {
        w.u8(byte);
        byte = 0;
      }
    }
  };
  write_mask(useen);
  write_mask(seen_item_);
  return w.take();
}

void MfModel::deserialize_quantized(serialize::BinaryReader& r) {
  REX_REQUIRE(r.u32() == config_.n_users && r.u32() == config_.n_items &&
                  r.u32() == config_.embedding_dim,
              "MF model shape mismatch");
  const auto read_mask = [&r](std::vector<std::uint8_t>& mask) {
    std::uint8_t byte = 0;
    for (std::size_t i = 0; i < mask.size(); ++i) {
      if (i % 8 == 0) byte = r.u8();
      mask[i] = (byte >> (i % 8)) & 1;
    }
  };
  if (!lazy()) {
    read_q8_tensor(r, user_embeddings_.flat());
    read_q8_tensor(r, item_embeddings_.flat());
    read_q8_tensor(r, user_bias_);
    read_q8_tensor(r, item_bias_);
    read_mask(seen_user_);
    read_mask(seen_item_);
    r.expect_end();
    return;
  }
  // Quantized tensors decode as one block; scatter through the lazy store
  // (materializes every row, same as the dense codec).
  std::vector<float> dense_rows(config_.n_users * config_.embedding_dim);
  std::vector<float> dense_bias(config_.n_users);
  read_q8_tensor(r, dense_rows);
  read_q8_tensor(r, item_embeddings_.flat());
  read_q8_tensor(r, dense_bias);
  read_q8_tensor(r, item_bias_);
  for (data::UserId u = 0; u < config_.n_users; ++u) {
    const auto dst = user_row_mut(u);
    std::copy_n(dense_rows.begin() +
                    static_cast<std::ptrdiff_t>(u * config_.embedding_dim),
                config_.embedding_dim, dst.begin());
    user_bias_ref(u) = dense_bias[u];
  }
  std::vector<std::uint8_t> mask(config_.n_users);
  read_mask(mask);
  for (data::UserId u = 0; u < config_.n_users; ++u) {
    lazy_seen_user_[find_user_slot(u)] = mask[u];
  }
  read_mask(seen_item_);
  r.expect_end();
}

Bytes MfModel::serialize_sliced(std::uint32_t slice_count,
                                std::uint32_t slice_index) const {
  REX_REQUIRE(slice_count > 0 && slice_index < slice_count,
              "invalid MF slice spec");
  if (slice_count == 1) return serialize();  // slice 0 of 1 == full model
  serialize::BinaryWriter w;
  w.str("mfs");
  w.u32(static_cast<std::uint32_t>(config_.n_users));
  w.u32(static_cast<std::uint32_t>(config_.n_items));
  w.u32(static_cast<std::uint32_t>(config_.embedding_dim));
  w.u32(slice_count);
  w.u32(slice_index);
  // Slice rows are fully determined by (count, index): no ids on the wire.
  // Row/bias/seen reads go through the user accessors so lazy models emit
  // the same bytes as eager ones.
  const auto write_user_rows = [&] {
    std::uint8_t packed = 0;
    std::size_t bit = 0;
    for (std::size_t row = slice_index; row < config_.n_users;
         row += slice_count) {
      w.f32_array(user_row(static_cast<data::UserId>(row)));
      w.f32(user_bias_at(static_cast<data::UserId>(row)));
    }
    for (std::size_t row = slice_index; row < config_.n_users;
         row += slice_count) {
      const std::uint8_t bitval =
          has_seen_user(static_cast<data::UserId>(row)) ? 1 : 0;
      packed |= static_cast<std::uint8_t>(bitval << (bit % 8));
      if (bit % 8 == 7) {
        w.u8(packed);
        packed = 0;
      }
      ++bit;
    }
    if (bit % 8 != 0) w.u8(packed);
  };
  const auto write_rows = [&](const linalg::Matrix& emb,
                              const std::vector<float>& bias,
                              const std::vector<std::uint8_t>& mask,
                              std::size_t n) {
    std::uint8_t packed = 0;
    std::size_t bit = 0;
    for (std::size_t row = slice_index; row < n; row += slice_count) {
      w.f32_array(emb.row(row));
      w.f32(bias[row]);
    }
    for (std::size_t row = slice_index; row < n; row += slice_count) {
      packed |= static_cast<std::uint8_t>((mask[row] & 1) << (bit % 8));
      if (bit % 8 == 7) {
        w.u8(packed);
        packed = 0;
      }
      ++bit;
    }
    if (bit % 8 != 0) w.u8(packed);
  };
  write_user_rows();
  write_rows(item_embeddings_, item_bias_, seen_item_, config_.n_items);
  return w.take();
}

void MfModel::deserialize_sliced(serialize::BinaryReader& r) {
  REX_REQUIRE(r.u32() == config_.n_users && r.u32() == config_.n_items &&
                  r.u32() == config_.embedding_dim,
              "MF model shape mismatch");
  const std::uint32_t count = r.u32();
  const std::uint32_t index = r.u32();
  REX_REQUIRE(count > 1 && index < count, "invalid MF slice spec");
  const auto read_user_rows = [&] {
    // Same policy as the eager path: only slice rows keep their seen bits.
    // Unmaterialized non-slice rows are already unseen; materialized ones
    // clear per slot.
    std::fill(lazy_seen_user_.begin(), lazy_seen_user_.end(),
              std::uint8_t{0});
    for (std::size_t row = index; row < config_.n_users; row += count) {
      r.f32_array(user_row_mut(static_cast<data::UserId>(row)));
      user_bias_ref(static_cast<data::UserId>(row)) = r.f32();
    }
    const std::size_t rows = slice_rows(config_.n_users, count, index);
    std::uint8_t packed = 0;
    std::size_t bit = 0;
    for (std::size_t row = index; row < config_.n_users; row += count) {
      if (bit % 8 == 0) packed = r.u8();
      lazy_seen_user_[find_user_slot(static_cast<data::UserId>(row))] =
          (packed >> (bit % 8)) & 1;
      ++bit;
    }
    REX_CHECK(bit == rows, "MF slice row count mismatch");
  };
  const auto read_rows = [&](linalg::Matrix& emb, std::vector<float>& bias,
                             std::vector<std::uint8_t>& mask, std::size_t n) {
    // Non-slice rows must not participate in merges: clear every seen bit,
    // then restore the slice rows' bits from the wire.
    std::fill(mask.begin(), mask.end(), std::uint8_t{0});
    for (std::size_t row = index; row < n; row += count) {
      r.f32_array(emb.row(row));
      bias[row] = r.f32();
    }
    const std::size_t rows = slice_rows(n, count, index);
    std::uint8_t packed = 0;
    std::size_t bit = 0;
    for (std::size_t row = index; row < n; row += count) {
      if (bit % 8 == 0) packed = r.u8();
      mask[row] = (packed >> (bit % 8)) & 1;
      ++bit;
    }
    REX_CHECK(bit == rows, "MF slice row count mismatch");
  };
  if (lazy()) {
    read_user_rows();
  } else {
    read_rows(user_embeddings_, user_bias_, seen_user_, config_.n_users);
  }
  read_rows(item_embeddings_, item_bias_, seen_item_, config_.n_items);
  r.expect_end();
}

// ===== Merge (DESIGN.md §7 "Merge from the wire") =====
//
// Every merge — of models or of wire blobs — runs one peer-major kernel.
// Its results must equal the row-major definition (for each row: sum the
// participating weights, self first; fold the self term in with the first
// participant, linalg::weighted_sum_inplace; axpy the later ones) bit for
// bit — tests/mf_merge_reference.hpp is that definition. Pass 1 walks
// each source's seen mask once and records, per row, the participating
// weight in that summation order and the first participating source.
// Pass 2 applies the sources in order, each over its contiguous tensors,
// so every element sees the same IEEE multiplies and adds in the same
// order while each neighbor's model streams through cache once.

namespace {

constexpr std::uint32_t kNoSource = static_cast<std::uint32_t>(-1);

/// Working memory of one merge, reused by every merge on its thread
/// (merges do not nest). A warm thread merges without allocating, so a
/// merge's cost does not depend on the allocator's state.
struct MergeScratch {
  std::vector<double> user_total, item_total;
  std::vector<std::uint32_t> user_first, item_first, user_slot;
  std::vector<float> image, dense_user_bias;
  std::vector<std::uint8_t> dense_user_seen;
};

MergeScratch& merge_scratch() {
  static thread_local MergeScratch scratch;
  return scratch;
}

float load_f32(const std::uint8_t* p) {
  float v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

bool mask_bit(const std::uint8_t* bits, std::size_t i) {
  return ((bits[i / 8] >> (i % 8)) & 1) != 0;
}

/// Calls fn(i) for every set bit i < n of a packed mask, 64 bits at a
/// time: the loops branch per set bit and per word, not per row, so an
/// unpredictable seen pattern costs no mispredicted branch per row.
template <class Fn>
void for_each_set_bit(const std::uint8_t* bits, std::size_t n, const Fn& fn) {
  const std::size_t bytes = (n + 7) / 8;
  for (std::size_t base = 0; base < n; base += 64) {
    std::uint64_t word = 0;
    std::memcpy(&word, bits + base / 8,
                std::min<std::size_t>(8, bytes - base / 8));
    if (n - base < 64) word &= (std::uint64_t{1} << (n - base)) - 1;
    for (; word != 0; word &= word - 1) {
      fn(base + static_cast<std::size_t>(std::countr_zero(word)));
    }
  }
}

/// Packs `n` flags (seen(i) for row i) into the blob mask format: LSB-first
/// bits, ceil(n/8) bytes.
template <class Seen>
void pack_mask(std::size_t n, const Seen& seen, std::uint8_t* out) {
  std::fill(out, out + (n + 7) / 8, std::uint8_t{0});
  for (std::size_t i = 0; i < n; ++i) {
    if (seen(i)) out[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
  }
}

/// One source tensor (embedding rows + biases) as raw little-endian f32
/// bytes: wire images are read where they landed, at any alignment.
struct RawTensor {
  const std::uint8_t* rows = nullptr;
  const std::uint8_t* bias = nullptr;
};

/// The merging model's side of one tensor; `slots` maps a row to its
/// storage slot (null = identity, i.e. dense storage).
struct TargetTensor {
  float* rows = nullptr;
  float* bias = nullptr;
  std::uint8_t* seen = nullptr;
  const std::uint32_t* slots = nullptr;
  std::size_t n = 0;
};

/// y += w * x over one row, x loaded from raw bytes. (__restrict: a row
/// of this model never overlaps a source image, which lets the loop
/// vectorize.)
void axpy_row(float* __restrict y, const std::uint8_t* __restrict x, float w,
              std::size_t k) {
  for (std::size_t l = 0; l < k; ++l) {
    y[l] += w * load_f32(x + l * sizeof(float));
  }
}

/// dst = w_dst * dst + w * x over one row, x loaded from raw bytes.
void fold_row(float* __restrict dst, float w_dst,
              const std::uint8_t* __restrict x, float w, std::size_t k) {
  for (std::size_t l = 0; l < k; ++l) {
    dst[l] = w_dst * dst[l] + w * load_f32(x + l * sizeof(float));
  }
}

/// Pass 2 for one source over one tensor: every row the source saw, in
/// row order. Each element sees exactly the multiply and add of the
/// row-major loop's linalg calls — y += w*x for later participants, dst =
/// w_self*dst + w*x for the first — with the source loaded through memcpy,
/// so wire images are read in place at any alignment. Elementwise kernels
/// are bit-identical on every backend and at every length
/// (simd_kernels.hpp), so inlining them here changes no result.
void apply_source(const TargetTensor& dst, const RawTensor& src,
                  const std::uint8_t* src_seen, const double* totals,
                  const std::uint32_t* first, std::uint32_t source,
                  double weight, double self_weight, std::size_t k) {
  // The weight division repeats for every row with the same participant
  // total; the same double always rounds to the same float.
  double w_total = 0.0, self_total = 0.0;
  float w = 0.0f, self_w = 0.0f;
  bool w_valid = false, self_valid = false;
  for_each_set_bit(src_seen, dst.n, [&](std::size_t r) {
    const double total = totals[r];
    if (total <= 0.0) return;
    if (!w_valid || total != w_total) {
      w = static_cast<float>(weight / total);
      w_total = total;
      w_valid = true;
    }
    const std::size_t slot = dst.slots != nullptr ? dst.slots[r] : r;
    float* row = dst.rows + slot * k;
    const std::uint8_t* peer_row = src.rows + r * k * sizeof(float);
    const float peer_bias = load_f32(src.bias + r * sizeof(float));
    if (first[r] != source) {  // a later participant
      axpy_row(row, peer_row, w, k);
      dst.bias[slot] += w * peer_bias;
      return;
    }
    // The first participant folds the self term in: dst = w_self*dst + w*x
    // with w_self = 0 when this node never saw the row, and the bias then
    // starting from +0.0f, exactly as the row-major loop did.
    const bool self_seen = dst.seen[slot] != 0;
    float w_self = 0.0f;
    if (self_seen) {
      if (!self_valid || total != self_total) {
        self_w = static_cast<float>(self_weight / total);
        self_total = total;
        self_valid = true;
      }
      w_self = self_w;
    }
    fold_row(row, w_self, peer_row, w, k);
    const float bias = self_seen ? w_self * dst.bias[slot] : 0.0f;
    dst.bias[slot] = bias + w * peer_bias;
    dst.seen[slot] = 1;  // row knowledge propagates with the merge
  });
}

}  // namespace

struct MfModel::PeerView {
  enum class Codec { kExact, kQuantized, kSliced, kModel };
  Codec codec = Codec::kExact;
  double weight = 0.0;
  /// kExact: raw f32 tensors. kQuantized: q8 tensors (min, scale, codes).
  /// kSliced: the user and item slice sections (rows+biases, then mask)
  /// in user_rows / item_rows.
  BytesView user_rows, item_rows, user_bias, item_bias;
  std::uint32_t slice_count = 1, slice_index = 0;
  const MfModel* model = nullptr;  // kModel
  /// Seen masks as packed bits: into the blob, or into mask_storage where
  /// the source has no full-row mask of that form (kSliced, kModel).
  const std::uint8_t* user_seen = nullptr;
  const std::uint8_t* item_seen = nullptr;
  std::vector<std::uint8_t> mask_storage;
};

MfModel::PeerView MfModel::parse_blob(BytesView blob, double weight) const {
  const std::size_t n_users = config_.n_users;
  const std::size_t n_items = config_.n_items;
  const std::size_t k = config_.embedding_dim;
  PeerView peer;
  peer.weight = weight;
  serialize::BinaryReader r(blob);
  const std::string magic = r.str();
  if (magic == "mfq") {
    peer.codec = PeerView::Codec::kQuantized;
  } else if (magic == "mfs") {
    peer.codec = PeerView::Codec::kSliced;
  } else {
    REX_REQUIRE(magic == kind(), "payload is not an MF model");
  }
  REX_REQUIRE(r.u32() == n_users && r.u32() == n_items && r.u32() == k,
              "MF model shape mismatch");
  switch (peer.codec) {
    case PeerView::Codec::kExact:
      peer.user_rows = r.raw(n_users * k * sizeof(float));
      peer.item_rows = r.raw(n_items * k * sizeof(float));
      peer.user_bias = r.raw(n_users * sizeof(float));
      peer.item_bias = r.raw(n_items * sizeof(float));
      peer.user_seen = r.raw((n_users + 7) / 8).data();
      peer.item_seen = r.raw((n_items + 7) / 8).data();
      break;
    case PeerView::Codec::kQuantized:
      peer.user_rows = r.raw(8 + n_users * k);
      peer.item_rows = r.raw(8 + n_items * k);
      peer.user_bias = r.raw(8 + n_users);
      peer.item_bias = r.raw(8 + n_items);
      peer.user_seen = r.raw((n_users + 7) / 8).data();
      peer.item_seen = r.raw((n_items + 7) / 8).data();
      break;
    case PeerView::Codec::kSliced: {
      peer.slice_count = r.u32();
      peer.slice_index = r.u32();
      REX_REQUIRE(peer.slice_count > 1 && peer.slice_index < peer.slice_count,
                  "invalid MF slice spec");
      // Only slice rows keep a seen bit: spread the slice mask over full
      // row masks so non-slice rows never participate.
      peer.mask_storage.assign((n_users + 7) / 8 + (n_items + 7) / 8, 0);
      const auto section = [&](std::size_t n, std::uint8_t* full_mask) {
        const std::size_t rows =
            slice_rows(n, peer.slice_count, peer.slice_index);
        const BytesView values = r.raw(rows * (k + 1) * sizeof(float));
        const BytesView mask = r.raw((rows + 7) / 8);
        for (std::size_t j = 0; j < rows; ++j) {
          if (!mask_bit(mask.data(), j)) continue;
          const std::size_t row = peer.slice_index + j * peer.slice_count;
          full_mask[row / 8] |= static_cast<std::uint8_t>(1u << (row % 8));
        }
        return values;
      };
      std::uint8_t* user_mask = peer.mask_storage.data();
      std::uint8_t* item_mask = user_mask + (n_users + 7) / 8;
      peer.user_rows = section(n_users, user_mask);
      peer.item_rows = section(n_items, item_mask);
      peer.user_seen = user_mask;
      peer.item_seen = item_mask;
      break;
    }
    case PeerView::Codec::kModel:
      break;
  }
  r.expect_end();
  return peer;
}

void MfModel::merge(std::span<const MergeSource> sources, double self_weight) {
  if (sources.empty()) return;
  std::vector<PeerView> peers(sources.size());
  for (std::size_t s = 0; s < sources.size(); ++s) {
    const auto* model = dynamic_cast<const MfModel*>(sources[s].model);
    REX_REQUIRE(model != nullptr, "merge: model kind mismatch");
    REX_REQUIRE(model != this, "merge: a model cannot be its own source");
    REX_REQUIRE(model->config_.n_users == config_.n_users &&
                    model->config_.n_items == config_.n_items &&
                    model->config_.embedding_dim == config_.embedding_dim,
                "merge: MF shape mismatch");
    PeerView& peer = peers[s];
    peer.codec = PeerView::Codec::kModel;
    peer.weight = sources[s].weight;
    peer.model = model;
    peer.mask_storage.resize((config_.n_users + 7) / 8 +
                             (config_.n_items + 7) / 8);
    std::uint8_t* user_mask = peer.mask_storage.data();
    std::uint8_t* item_mask = user_mask + (config_.n_users + 7) / 8;
    pack_mask(config_.n_users,
              [model](std::size_t u) {
                return model->has_seen_user(static_cast<data::UserId>(u));
              },
              user_mask);
    pack_mask(config_.n_items,
              [model](std::size_t i) { return model->seen_item_[i] != 0; },
              item_mask);
    peer.user_seen = user_mask;
    peer.item_seen = item_mask;
  }
  merge_peers(peers, self_weight);
}

void MfModel::merge_serialized(std::span<const SerializedSource> sources,
                               double self_weight) {
  if (sources.empty()) return;
  // Validate every source before the first write: a bad blob in source k
  // must leave the model untouched.
  std::vector<PeerView> peers;
  peers.reserve(sources.size());
  for (const SerializedSource& source : sources) {
    peers.push_back(parse_blob(source.blob, source.weight));
  }
  merge_peers(peers, self_weight);
}

void MfModel::merge_peers(std::span<const PeerView> peers,
                          double self_weight) {
  const std::size_t n_users = config_.n_users;
  const std::size_t n_items = config_.n_items;
  const std::size_t k = config_.embedding_dim;

  MergeScratch& scratch = merge_scratch();

  // Pass 1: participating weight and first participant per row.
  std::vector<double>& user_total = scratch.user_total;
  std::vector<double>& item_total = scratch.item_total;
  user_total.assign(n_users, 0.0);
  item_total.assign(n_items, 0.0);
  if (lazy()) {
    for (const auto& [user, slot] : user_slots_) {
      if (lazy_seen_user_[slot] != 0) user_total[user] = self_weight;
    }
  } else {
    for (std::size_t u = 0; u < n_users; ++u) {
      if (seen_user_[u] != 0) user_total[u] = self_weight;
    }
  }
  for (std::size_t i = 0; i < n_items; ++i) {
    if (seen_item_[i] != 0) item_total[i] = self_weight;
  }
  std::vector<std::uint32_t>& user_first = scratch.user_first;
  std::vector<std::uint32_t>& item_first = scratch.item_first;
  user_first.assign(n_users, kNoSource);
  item_first.assign(n_items, kNoSource);
  const auto tally = [&](const std::uint8_t* seen, std::size_t n,
                         std::uint32_t source, double weight, double* totals,
                         std::uint32_t* first) {
    for_each_set_bit(seen, n, [&](std::size_t r) {
      totals[r] += weight;
      if (first[r] == kNoSource) first[r] = source;
    });
  };
  for (std::size_t s = 0; s < peers.size(); ++s) {
    const auto source = static_cast<std::uint32_t>(s);
    tally(peers[s].user_seen, n_users, source, peers[s].weight,
          user_total.data(), user_first.data());
    tally(peers[s].item_seen, n_items, source, peers[s].weight,
          item_total.data(), item_first.data());
  }

  // Lazy stores materialize every row a peer merges into, in user order
  // (the order the row-major loop created slots in); a row nobody
  // participates in gets no slot.
  std::vector<std::uint32_t>& user_slot = scratch.user_slot;
  TargetTensor users;
  users.n = n_users;
  if (lazy()) {
    user_slot.assign(n_users, 0);
    for (std::size_t u = 0; u < n_users; ++u) {
      if (user_first[u] == kNoSource || user_total[u] <= 0.0) continue;
      user_slot[u] = static_cast<std::uint32_t>(
          ensure_user_slot(static_cast<data::UserId>(u)));
    }
    users.rows = lazy_user_rows_.data();
    users.bias = lazy_user_bias_.data();
    users.seen = lazy_seen_user_.data();
    users.slots = user_slot.data();
  } else {
    users.rows = user_embeddings_.flat().data();
    users.bias = user_bias_.data();
    users.seen = seen_user_.data();
  }
  TargetTensor items;
  items.n = n_items;
  items.rows = item_embeddings_.flat().data();
  items.bias = item_bias_.data();
  items.seen = seen_item_.data();

  // Pass 2: sources in order. Quantized/sliced blobs and lazy models decode
  // into one reused scratch image, laid out like the exact tensors.
  std::vector<float>& image = scratch.image;
  std::vector<float>& dense_user_bias = scratch.dense_user_bias;
  std::vector<std::uint8_t>& dense_user_seen = scratch.dense_user_seen;
  const auto as_bytes = [](const float* p) {
    return reinterpret_cast<const std::uint8_t*>(p);
  };
  for (std::size_t s = 0; s < peers.size(); ++s) {
    const PeerView& peer = peers[s];
    RawTensor user_src, item_src;
    switch (peer.codec) {
      case PeerView::Codec::kExact:
        user_src = {peer.user_rows.data(), peer.user_bias.data()};
        item_src = {peer.item_rows.data(), peer.item_bias.data()};
        break;
      case PeerView::Codec::kQuantized:
      case PeerView::Codec::kSliced: {
        image.resize((n_users + n_items) * (k + 1));
        float* user_rows = image.data();
        float* item_rows = user_rows + n_users * k;
        float* user_bias = item_rows + n_items * k;
        float* item_bias = user_bias + n_users;
        if (peer.codec == PeerView::Codec::kQuantized) {
          // The deserialize() decoder itself: bit-identical values.
          const auto decode = [](BytesView q8, float* out, std::size_t n) {
            serialize::BinaryReader r(q8);
            read_q8_tensor(r, std::span<float>(out, n));
          };
          decode(peer.user_rows, user_rows, n_users * k);
          decode(peer.item_rows, item_rows, n_items * k);
          decode(peer.user_bias, user_bias, n_users);
          decode(peer.item_bias, item_bias, n_items);
        } else {
          // Slice rows only; the rest of the image is never read (unseen).
          const auto scatter = [&](BytesView values, std::size_t n,
                                   float* rows, float* bias) {
            const std::uint8_t* p = values.data();
            for (std::size_t row = peer.slice_index; row < n;
                 row += peer.slice_count) {
              std::memcpy(rows + row * k, p, k * sizeof(float));
              p += k * sizeof(float);
              bias[row] = load_f32(p);
              p += sizeof(float);
            }
          };
          scatter(peer.user_rows, n_users, user_rows, user_bias);
          scatter(peer.item_rows, n_items, item_rows, item_bias);
        }
        user_src = {as_bytes(user_rows), as_bytes(user_bias)};
        item_src = {as_bytes(item_rows), as_bytes(item_bias)};
        break;
      }
      case PeerView::Codec::kModel: {
        const MfModel& model = *peer.model;
        if (model.lazy()) {
          model.dense_user_image(image, dense_user_bias, dense_user_seen);
          user_src = {as_bytes(image.data()), as_bytes(dense_user_bias.data())};
        } else {
          user_src = {as_bytes(model.user_embeddings_.flat().data()),
                      as_bytes(model.user_bias_.data())};
        }
        item_src = {as_bytes(model.item_embeddings_.flat().data()),
                    as_bytes(model.item_bias_.data())};
        break;
      }
    }
    const auto source = static_cast<std::uint32_t>(s);
    apply_source(users, user_src, peer.user_seen, user_total.data(),
                 user_first.data(), source, peer.weight, self_weight, k);
    apply_source(items, item_src, peer.item_seen, item_total.data(),
                 item_first.data(), source, peer.weight, self_weight, k);
  }
}

void MfModel::charge_merge_buffer(BytesView blob,
                                  MergeBufferLedger& buffer) const {
  if (!lazy()) {
    RecModel::charge_merge_buffer(blob, buffer);
    return;
  }
  const std::size_t n_users = config_.n_users;
  if (buffer.bytes == 0) {  // a fresh clone holds this model's rows
    buffer.partial_rows.assign(n_users, 0);
    for (const auto& entry : user_slots_) buffer.partial_rows[entry.first] = 1;
  }
  serialize::BinaryReader r(blob);
  if (r.str() == "mfs") {
    // deserialize() materializes the slice rows only.
    (void)r.u32();
    (void)r.u32();
    (void)r.u32();
    const std::uint32_t count = r.u32();
    const std::uint32_t index = r.u32();
    if (!buffer.partial_rows.empty() && count > 1) {
      for (std::size_t row = index; row < n_users; row += count) {
        buffer.partial_rows[row] = 1;
      }
    }
  } else {
    buffer.partial_rows.clear();  // a full image materializes every row
  }
  const auto rows = static_cast<std::size_t>(std::count(
      buffer.partial_rows.begin(), buffer.partial_rows.end(), 1));
  if (rows == n_users) buffer.partial_rows.clear();
  buffer.bytes = footprint_with_user_slots(
      buffer.partial_rows.empty() ? n_users : rows);
}

std::size_t MfModel::parameter_count() const {
  // Logical (dense) parameter count, independent of the lazy layout: the
  // wire codecs always carry the full tensors, and merge counters must stay
  // comparable across the knob.
  return (config_.n_users + config_.n_items) * config_.embedding_dim +
         config_.n_users + config_.n_items;
}

std::size_t MfModel::wire_size() const {
  // kind string (1 length byte + 2 chars) + 3 u32 dims + parameters + masks.
  return 3 + 3 * sizeof(std::uint32_t) + parameter_count() * sizeof(float) +
         (config_.n_users + 7) / 8 + (config_.n_items + 7) / 8;
}

std::size_t MfModel::memory_footprint() const {
  return footprint_with_user_slots(user_slots_.size());
}

std::size_t MfModel::footprint_with_user_slots(std::size_t user_slots) const {
  // Actual allocation, not the logical dense size: with lazy user rows this
  // is what the per-node memory ledger (and the mega-scale bytes/node gate)
  // must see. Every lazy slot holds k floats, a bias, a seen byte and its
  // user_slots_ entry.
  std::size_t bytes =
      (item_embeddings_.size() + item_bias_.size()) * sizeof(float) +
      seen_item_.size();
  if (lazy()) {
    bytes += user_slots *
             ((config_.embedding_dim + 1) * sizeof(float) + 1 +
              sizeof(user_slots_[0]));
  } else {
    bytes += (user_embeddings_.size() + user_bias_.size()) * sizeof(float) +
             seen_user_.size();
  }
  return bytes;
}

}  // namespace rex::ml
