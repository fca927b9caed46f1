// Biased matrix factorization trained with SGD (paper §II-A-b, §IV-A3a).
//
// Model: p(u,i) = mu + b_u + c_i + x_u · y_i with k-dimensional embeddings,
// L2 regularization λ on the embeddings, learning rate η. Paper settings:
// k=10, η=0.005, λ=0.1. Each node additionally tracks which user/item rows
// it has ever trained on ("seen" masks) so decentralized merging can skip
// rows a peer knows nothing about (§III-C2).
#pragma once

#include "linalg/matrix.hpp"
#include "ml/model.hpp"

namespace rex::serialize {
class BinaryReader;
class BinaryWriter;
}

namespace rex::ml {

struct MfConfig {
  std::size_t n_users = 0;
  std::size_t n_items = 0;
  std::size_t embedding_dim = 10;        // k
  float learning_rate = 0.005f;          // eta
  float regularization = 0.1f;           // lambda
  float init_stddev = 0.1f;              // embedding init scale
  float global_mean = 3.5f;              // mu (dataset mean; fixed, not learned)
  std::size_t sgd_steps_per_epoch = 500; // fixed-batches rule (§III-E)
  /// Lazy user rows (DESIGN.md §10): skip the dense n_users × k user matrix
  /// and materialize a row on first write, with init values derived
  /// order-independently from `lazy_init_seed` and the user id — so any
  /// materialization order (and any worker-thread count) yields identical
  /// values. At one-user-per-node scale the dense user matrix dominates
  /// per-node memory while each node ever touches a handful of rows. This
  /// changes which draws the shared init stream produces, so results are
  /// only comparable within one setting of the knob.
  bool lazy_user_rows = false;
  std::uint64_t lazy_init_seed = 0;
};

class MfModel final : public RecModel {
 public:
  /// Initializes embeddings from `init_rng`; biases start at zero.
  MfModel(const MfConfig& config, Rng& init_rng);

  [[nodiscard]] std::unique_ptr<RecModel> clone() const override;
  void train_epoch(std::span<const data::Rating> store, Rng& rng) override;
  void train_full_pass(std::span<const data::Rating> dataset,
                       Rng& rng) override;
  [[nodiscard]] float predict(data::UserId user,
                              data::ItemId item) const override;
  /// Same accumulation as RecModel::rmse (bit-identical results) with the
  /// per-rating predict() statically bound: the test step calls this for
  /// every node every epoch.
  [[nodiscard]] double rmse(std::span<const data::Rating> ratings)
      const override;
  [[nodiscard]] std::size_t item_count() const override {
    return config_.n_items;
  }
  /// Statically-bound scoring loop for the serving path: one SIMD dot per
  /// item over contiguous embedding rows, bit-identical to predict() per
  /// item (same expression, same order).
  void score_items(data::UserId user, std::span<float> out) const override;
  void merge(std::span<const MergeSource> sources,
             double self_weight) override;
  /// Reads each blob where it lies ("mf" in place; "mfq"/"mfs" decoded one
  /// source at a time into reused scratch) and merges peer-major — the same
  /// IEEE operations per element, in the same order, as merge() over
  /// deserialized clones (DESIGN.md §7 "Merge from the wire").
  void merge_serialized(std::span<const SerializedSource> sources,
                        double self_weight) override;
  /// Lazy user rows make a clone's size depend on which rows it holds: the
  /// rows of this model at the buffer's first charge, plus every row a blob
  /// materialized since (all of them for full images, the slice for "mfs").
  void charge_merge_buffer(BytesView blob,
                           MergeBufferLedger& buffer) const override;
  [[nodiscard]] Bytes serialize() const override;
  void serialize_into(serialize::BinaryWriter& w) const override;
  /// q8 affine per-tensor quantization ("mfq" blob, ~4x smaller than the
  /// exact encoding): each float tensor travels as (min, scale, u8 codes).
  [[nodiscard]] Bytes serialize_quantized() const override;
  /// Row-sliced encoding ("mfs" blob): user/item rows r with
  /// r % slice_count == slice_index plus their biases and seen bits.
  [[nodiscard]] Bytes serialize_sliced(std::uint32_t slice_count,
                                       std::uint32_t slice_index)
      const override;
  /// Accepts the exact ("mf"), quantized ("mfq") and sliced ("mfs")
  /// encodings; sliced blobs clear the seen bit of every non-slice row so
  /// merges leave those rows untouched.
  void deserialize(BytesView payload) override;
  [[nodiscard]] std::size_t train_samples_per_epoch() const override {
    return config_.sgd_steps_per_epoch;
  }
  [[nodiscard]] std::size_t flops_per_sample() const override {
    // predict (2k) + embedding updates (6k) + bias updates.
    return 8 * config_.embedding_dim + 16;
  }
  [[nodiscard]] std::size_t flops_per_prediction() const override {
    return 2 * config_.embedding_dim + 4;
  }
  [[nodiscard]] std::size_t parameter_count() const override;
  [[nodiscard]] std::size_t wire_size() const override;
  [[nodiscard]] std::size_t memory_footprint() const override;
  [[nodiscard]] const char* kind() const override { return "mf"; }

  [[nodiscard]] const MfConfig& config() const { return config_; }
  [[nodiscard]] bool has_seen_user(data::UserId u) const {
    if (!lazy()) return seen_user_[u] != 0;
    const std::size_t slot = find_user_slot(u);
    return slot != kNoSlot && lazy_seen_user_[slot] != 0;
  }
  [[nodiscard]] bool has_seen_item(data::ItemId i) const {
    return seen_item_[i] != 0;
  }
  /// User rows currently backed by storage (== n_users when eager).
  [[nodiscard]] std::size_t materialized_user_rows() const {
    return lazy() ? user_slots_.size() : config_.n_users;
  }

  /// One SGD update on a single rating (exposed for tests / benches).
  void sgd_step(const data::Rating& rating);

 private:
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  /// One validated merge source: a model or a parsed wire blob (mf.cpp).
  struct PeerView;
  /// Validates `blob` as a merge source (every check deserialize() makes,
  /// exact length included) without touching this model.
  [[nodiscard]] PeerView parse_blob(BytesView blob, double weight) const;
  /// The peer-major merge kernel behind merge() and merge_serialized().
  void merge_peers(std::span<const PeerView> peers, double self_weight);
  /// memory_footprint() with `user_slots` materialized lazy user rows.
  [[nodiscard]] std::size_t footprint_with_user_slots(
      std::size_t user_slots) const;

  void deserialize_quantized(serialize::BinaryReader& r);
  void deserialize_sliced(serialize::BinaryReader& r);

  [[nodiscard]] bool lazy() const { return config_.lazy_user_rows; }
  /// Slot of user `u` in the lazy store, or kNoSlot (binary search).
  [[nodiscard]] std::size_t find_user_slot(data::UserId u) const;
  /// Slot of user `u`, materializing the row with its seeded init values.
  std::size_t ensure_user_slot(data::UserId u);
  /// The init values row `u` gets whenever it materializes: drawn from a
  /// stream keyed only by (lazy_init_seed, u), never from shared state.
  void seeded_user_row(data::UserId u, std::span<float> out) const;
  /// Read access; unmaterialized lazy rows are computed into a per-thread
  /// scratch (valid until the next user_row call on the thread).
  [[nodiscard]] std::span<const float> user_row(data::UserId u) const;
  /// Write access; materializes lazy rows.
  [[nodiscard]] std::span<float> user_row_mut(data::UserId u);
  [[nodiscard]] float user_bias_at(data::UserId u) const;
  [[nodiscard]] float& user_bias_ref(data::UserId u);  // materializes
  void mark_user_seen(data::UserId u);                 // materializes
  /// Dense snapshot of the lazy user tensors (wire codecs only): rows in
  /// user order, unmaterialized rows filled with their seeded init values,
  /// so lazy and eager models with the same logical values emit the same
  /// bytes.
  void dense_user_image(std::vector<float>& rows, std::vector<float>& bias,
                        std::vector<std::uint8_t>& seen) const;

  MfConfig config_;
  linalg::Matrix user_embeddings_;   // n_users x k (0 rows when lazy)
  linalg::Matrix item_embeddings_;   // n_items x k (always dense)
  std::vector<float> user_bias_;     // b (empty when lazy)
  std::vector<float> item_bias_;     // c
  std::vector<std::uint8_t> seen_user_;  // empty when lazy
  std::vector<std::uint8_t> seen_item_;

  // Lazy user-row store (config_.lazy_user_rows; DESIGN.md §10): rows live
  // slot-major in materialization order; user_slots_ maps user -> slot and
  // stays sorted by user id for binary search.
  std::vector<std::pair<data::UserId, std::uint32_t>> user_slots_;
  std::vector<float> lazy_user_rows_;   // k floats per slot
  std::vector<float> lazy_user_bias_;
  std::vector<std::uint8_t> lazy_seen_user_;
};

}  // namespace rex::ml
