#include "core/payload.hpp"

#include "serialize/binary.hpp"
#include "data/compress.hpp"
#include "support/error.hpp"

namespace rex::core {

namespace {

/// Encoded length of a BinaryWriter varint (LEB128: 7 bits per byte).
std::size_t varint_len(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

}  // namespace

Bytes ProtocolPayload::encode(Bytes scratch) const {
  serialize::BinaryWriter w(std::move(scratch));
  w.u8(static_cast<std::uint8_t>(kind));
  w.varint(epoch);
  w.u32(sender_degree);
  switch (kind) {
    case PayloadKind::kEmpty:
      break;
    case PayloadKind::kRawData:
      w.varint(ratings.size());
      for (const data::Rating& r : ratings) {
        w.u32(r.user);
        w.u32(r.item);
        w.f32(r.value);
      }
      break;
    case PayloadKind::kModel:
    case PayloadKind::kModelQuantized:
      w.bytes(model_blob);
      break;
    case PayloadKind::kRawDataCompressed:
      data::encode_ratings_compressed(w, ratings);
      break;
    case PayloadKind::kResyncRequest:
      w.varint(resync_gen);
      break;
    case PayloadKind::kResyncRequestSliced:
      w.varint(resync_gen);
      w.u32(slice_count);
      w.u32(slice_index);
      break;
    case PayloadKind::kResyncModel:
      w.varint(resync_gen);
      w.bytes(model_blob);
      break;
  }
  return w.take();
}

std::size_t ProtocolPayload::plain_encoded_size(
    std::size_t exact_blob_size) const {
  // encode()'s header: kind byte, epoch varint, sender degree.
  const std::size_t header = 1 + varint_len(epoch) + sizeof(std::uint32_t);
  switch (kind) {
    case PayloadKind::kEmpty:
      return header;
    case PayloadKind::kRawData:
    case PayloadKind::kRawDataCompressed:
      // varint count + (u32 user, u32 item, f32 value) per rating.
      return header + varint_len(ratings.size()) + 12 * ratings.size();
    case PayloadKind::kModel:
    case PayloadKind::kModelQuantized:
      return header + varint_len(exact_blob_size) + exact_blob_size;
    case PayloadKind::kResyncRequest:
    case PayloadKind::kResyncRequestSliced:
    case PayloadKind::kResyncModel:
      break;
  }
  REX_REQUIRE(false, "plain_encoded_size: not a share payload");
  return 0;
}

Bytes ProtocolPayload::encode_model(
    Bytes scratch, std::size_t blob_size,
    const std::function<void(serialize::BinaryWriter&)>& write_blob) const {
  REX_REQUIRE(kind == PayloadKind::kModel ||
                  kind == PayloadKind::kModelQuantized,
              "encode_model: not a model payload");
  serialize::BinaryWriter w(std::move(scratch));
  // Header (kind, epoch and blob-length varints, degree) plus the blob: one
  // allocation at most, none once a recycled buffer is large enough.
  w.reserve(1 + 10 + sizeof(std::uint32_t) + 10 + blob_size);
  w.u8(static_cast<std::uint8_t>(kind));
  w.varint(epoch);
  w.u32(sender_degree);
  w.varint(blob_size);
  const std::size_t blob_start = w.size();
  write_blob(w);
  REX_REQUIRE(w.size() - blob_start == blob_size,
              "encode_model: blob size mismatch");
  return w.take();
}

ProtocolPayload ProtocolPayload::decode(BytesView bytes) {
  ProtocolPayload payload;
  decode_into(bytes, payload);
  return payload;
}

void ProtocolPayload::decode_into(BytesView bytes, ProtocolPayload& out) {
  // assign() so a recycled model_blob keeps its capacity.
  const BytesView blob = decode_view(bytes, out);
  out.model_blob.assign(blob.begin(), blob.end());
}

BytesView ProtocolPayload::decode_view(BytesView bytes, ProtocolPayload& out) {
  serialize::BinaryReader r(bytes);
  BytesView blob;
  out.ratings.clear();
  out.model_blob.clear();
  out.resync_gen = 0;  // recycled decode targets must not leak a stale gen
  out.slice_count = 1;
  out.slice_index = 0;
  const std::uint8_t kind_byte = r.u8();
  REX_REQUIRE(
      kind_byte <= static_cast<std::uint8_t>(PayloadKind::kResyncRequestSliced),
      "unknown payload kind");
  out.kind = static_cast<PayloadKind>(kind_byte);
  out.epoch = r.varint();
  out.sender_degree = r.u32();
  switch (out.kind) {
    case PayloadKind::kEmpty:
      break;
    case PayloadKind::kRawData: {
      const std::uint64_t count = r.varint();
      out.ratings.reserve(count);
      for (std::uint64_t i = 0; i < count; ++i) {
        data::Rating rating;
        rating.user = r.u32();
        rating.item = r.u32();
        rating.value = r.f32();
        out.ratings.push_back(rating);
      }
      break;
    }
    case PayloadKind::kModel:
    case PayloadKind::kModelQuantized: {
      // bytes() framing (varint length + raw).
      const std::uint64_t n = r.varint();
      blob = r.raw(n);
      break;
    }
    case PayloadKind::kRawDataCompressed:
      // Decodes into the recycled ratings buffer — the batch-decode hot
      // path must not allocate a fresh vector per delivery.
      data::decode_ratings_compressed(r, out.ratings);
      break;
    case PayloadKind::kResyncRequest:
      out.resync_gen = r.varint();
      break;
    case PayloadKind::kResyncRequestSliced:
      out.resync_gen = r.varint();
      out.slice_count = r.u32();
      out.slice_index = r.u32();
      break;
    case PayloadKind::kResyncModel: {
      out.resync_gen = r.varint();
      const std::uint64_t n = r.varint();
      blob = r.raw(n);
      break;
    }
  }
  r.expect_end();
  return blob;
}

}  // namespace rex::core
