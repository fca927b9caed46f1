#include "ml/model.hpp"

#include <algorithm>
#include <cmath>

#include "serialize/binary.hpp"

namespace rex::ml {

double RecModel::rmse(std::span<const data::Rating> ratings) const {
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

void RecModel::serialize_into(serialize::BinaryWriter& w) const {
  w.raw(serialize());
}

void RecModel::charge_merge_buffer(BytesView /*blob*/,
                                   MergeBufferLedger& buffer) const {
  if (buffer.bytes == 0) buffer.bytes = memory_footprint();
}

void RecModel::score_items(data::UserId user, std::span<float> out) const {
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = predict(user, static_cast<data::ItemId>(i));
  }
}

}  // namespace rex::ml
