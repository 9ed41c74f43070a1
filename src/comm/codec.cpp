#include "comm/codec.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

#include "comm/wire.hpp"
#include "tensor/serialize.hpp"

namespace fleda {
namespace wire {

void write_preamble(Writer& w, std::uint8_t codec_id, std::uint32_t entries) {
  w.bytes(kMagic, 4);
  w.pod<std::uint8_t>(codec_id);
  w.pod<std::uint32_t>(entries);
}

std::uint32_t read_preamble(Reader& r, std::uint8_t expected_codec,
                            ModelParameters& params) {
  char magic[4];
  r.bytes(magic, 4);
  if (std::memcmp(magic, kMagic, 4) != 0) {
    throw std::runtime_error("FLC1: bad magic");
  }
  const std::uint8_t codec = r.pod<std::uint8_t>();
  if (codec != expected_codec) {
    throw std::runtime_error("FLC1: blob encoded with codec " +
                             std::to_string(codec) + ", decoder expects " +
                             std::to_string(expected_codec));
  }
  const std::uint32_t entries = r.pod<std::uint32_t>();
  if (entries > (1u << 20)) throw std::runtime_error("FLC1: bad entry count");
  // Smallest entry meta: name length + buffer flag + rank.
  constexpr std::size_t kMinEntryBytes = 4 + 1 + 4;
  params.mutable_entries().reserve(
      std::min<std::size_t>(entries, r.remaining() / kMinEntryBytes));
  return entries;
}

void write_entry_meta(Writer& w, const ParameterEntry& entry) {
  w.str(entry.name);
  w.pod<std::uint8_t>(entry.is_buffer ? 1 : 0);
  w.pod<std::uint32_t>(static_cast<std::uint32_t>(entry.value.shape().rank()));
  for (int i = 0; i < entry.value.shape().rank(); ++i) {
    w.pod<std::int64_t>(entry.value.shape().dim(i));
  }
}

EntryMeta read_entry_meta(Reader& r) {
  EntryMeta meta;
  meta.name = r.str();
  meta.is_buffer = r.pod<std::uint8_t>() != 0;
  const std::uint32_t rank = r.pod<std::uint32_t>();
  if (rank > static_cast<std::uint32_t>(Shape::kMaxRank)) {
    throw std::runtime_error("FLC1: bad rank");
  }
  std::int64_t dims[Shape::kMaxRank] = {0, 0, 0, 0};
  std::int64_t numel = 1;
  for (std::uint32_t i = 0; i < rank; ++i) {
    dims[i] = r.pod<std::int64_t>();
    if (dims[i] < 0) throw std::runtime_error("FLC1: negative dim");
    if (dims[i] > 0 &&
        numel > std::numeric_limits<std::int64_t>::max() / dims[i]) {
      throw std::runtime_error("FLC1: element count overflows");
    }
    numel *= dims[i];
  }
  meta.shape = shape_from_dims(rank, dims);
  return meta;
}

ParameterEntry make_entry(EntryMeta meta) {
  ParameterEntry entry;
  entry.name = std::move(meta.name);
  entry.is_buffer = meta.is_buffer;
  try {
    entry.value = Tensor(meta.shape);
  } catch (const std::exception&) {  // bad_alloc, length_error
    throw std::runtime_error("FLC1: cannot allocate " +
                             meta.shape.to_string() + " for '" + entry.name +
                             "'");
  }
  return entry;
}

}  // namespace wire

std::string to_string(CodecKind kind) {
  switch (kind) {
    case CodecKind::kFp32:
      return "fp32";
    case CodecKind::kFp16:
      return "fp16";
    case CodecKind::kInt8Quant:
      return "int8";
    case CodecKind::kTopKDelta:
      return "topk";
  }
  return "?";
}

std::unique_ptr<ParameterCodec> make_codec(CodecKind kind,
                                           double topk_fraction) {
  switch (kind) {
    case CodecKind::kFp32:
      return std::make_unique<Fp32Codec>();
    case CodecKind::kFp16:
      return std::make_unique<Fp16Codec>();
    case CodecKind::kInt8Quant:
      return std::make_unique<Int8QuantCodec>();
    case CodecKind::kTopKDelta:
      return std::make_unique<TopKDeltaCodec>(topk_fraction);
  }
  throw std::invalid_argument("make_codec: unknown codec kind");
}

std::uint64_t raw_wire_bytes(const ModelParameters& params) {
  // Preamble + per-entry meta + raw fp32 payload (== Fp32Codec size).
  std::uint64_t bytes = 4 + 1 + 4;
  for (const ParameterEntry& e : params.entries()) {
    bytes += 4 + e.name.size() + 1 + 4 +
             8 * static_cast<std::uint64_t>(e.value.shape().rank());
    bytes += 4 * static_cast<std::uint64_t>(e.value.numel());
  }
  return bytes;
}

}  // namespace fleda
