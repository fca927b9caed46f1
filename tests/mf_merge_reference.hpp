// Test-side reference for MF merges: a dense image of an "mf" blob and the
// row-major merge loop the peer-major kernel replaced (DESIGN.md §7 "Merge
// from the wire"), written against the blob layout and the same linalg
// kernels. Merges must reproduce it bit for bit.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/vector_ops.hpp"
#include "ml/mf.hpp"
#include "serialize/binary.hpp"

namespace rex::ml::reference {

/// Every tensor of an exact ("mf") blob, masks unpacked to one byte a row.
struct DenseMf {
  std::uint32_t users = 0, items = 0, k = 0;
  std::vector<float> user_rows, item_rows, user_bias, item_bias;
  std::vector<std::uint8_t> user_seen, item_seen;
};

inline DenseMf parse_dense(BytesView blob) {
  serialize::BinaryReader r(blob);
  (void)r.str();
  DenseMf m;
  m.users = r.u32();
  m.items = r.u32();
  m.k = r.u32();
  m.user_rows.resize(std::size_t{m.users} * m.k);
  m.item_rows.resize(std::size_t{m.items} * m.k);
  m.user_bias.resize(m.users);
  m.item_bias.resize(m.items);
  r.f32_array(m.user_rows);
  r.f32_array(m.item_rows);
  r.f32_array(m.user_bias);
  r.f32_array(m.item_bias);
  const auto read_mask = [&r](std::vector<std::uint8_t>& mask,
                              std::size_t n) {
    mask.resize(n);
    std::uint8_t byte = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 8 == 0) byte = r.u8();
      mask[i] = (byte >> (i % 8)) & 1;
    }
  };
  read_mask(m.user_seen, m.users);
  read_mask(m.item_seen, m.items);
  r.expect_end();
  return m;
}

/// The exact blob a model holding `m` serializes to.
inline Bytes to_blob(const DenseMf& m) {
  serialize::BinaryWriter w;
  w.str("mf");
  w.u32(m.users);
  w.u32(m.items);
  w.u32(m.k);
  w.f32_array(m.user_rows);
  w.f32_array(m.item_rows);
  w.f32_array(m.user_bias);
  w.f32_array(m.item_bias);
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
  write_mask(m.user_seen);
  write_mask(m.item_seen);
  return w.take();
}

/// The dense values a blob of any MF codec decodes to, as a clone of
/// `like` would hold them after deserialize().
inline DenseMf decoded(const MfModel& like, BytesView blob) {
  const auto clone = like.clone();
  clone->deserialize(blob);
  return parse_dense(clone->serialize());
}

/// Row-major merge over one tensor, exactly the pre-peer-major loop: per
/// row, self first then peers in order for the participating weight; the
/// first participant fused with the self term, later ones axpy'd.
inline void merge_tensor(std::vector<float>& rows, std::vector<float>& bias,
                         std::vector<std::uint8_t>& seen, std::size_t k,
                         std::span<const DenseMf> peers,
                         std::span<const double> weights, double self_weight,
                         bool users) {
  for (std::size_t r = 0; r < seen.size(); ++r) {
    const bool self_seen = seen[r] != 0;
    double total = self_seen ? self_weight : 0.0;
    for (std::size_t s = 0; s < peers.size(); ++s) {
      const auto& peer_seen = users ? peers[s].user_seen : peers[s].item_seen;
      if (peer_seen[r] != 0) total += weights[s];
    }
    if (total <= 0.0) continue;
    const std::span<float> row(rows.data() + r * k, k);
    const float self_w =
        self_seen ? static_cast<float>(self_weight / total) : 0.0f;
    float b = self_seen ? self_w * bias[r] : 0.0f;
    bool fused = false;
    for (std::size_t s = 0; s < peers.size(); ++s) {
      const auto& peer_seen = users ? peers[s].user_seen : peers[s].item_seen;
      if (peer_seen[r] == 0) continue;
      const auto& peer_rows = users ? peers[s].user_rows : peers[s].item_rows;
      const auto& peer_bias = users ? peers[s].user_bias : peers[s].item_bias;
      const std::span<const float> peer_row(peer_rows.data() + r * k, k);
      const float w = static_cast<float>(weights[s] / total);
      if (!fused) {
        linalg::weighted_sum_inplace(row, self_w, peer_row, w);
        fused = true;
      } else {
        linalg::axpy(w, peer_row, row);
      }
      b += w * peer_bias[r];
      seen[r] = 1;
    }
    bias[r] = b;
  }
}

inline void merge(DenseMf& self, std::span<const DenseMf> peers,
                  std::span<const double> weights, double self_weight) {
  merge_tensor(self.user_rows, self.user_bias, self.user_seen, self.k, peers,
               weights, self_weight, true);
  merge_tensor(self.item_rows, self.item_bias, self.item_seen, self.k, peers,
               weights, self_weight, false);
}

}  // namespace rex::ml::reference
