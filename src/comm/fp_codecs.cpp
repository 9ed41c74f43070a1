// Dense floating-point codecs: Fp32Codec (lossless baseline) and
// Fp16Codec (IEEE 754 binary16 with round-to-nearest-even).
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "comm/codec.hpp"
#include "comm/wire.hpp"

namespace fleda {

std::uint16_t float_to_half(float value) {
  std::uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  const std::uint16_t sign = static_cast<std::uint16_t>((bits >> 16) & 0x8000u);
  const std::uint32_t exp32 = (bits >> 23) & 0xffu;
  std::uint32_t mant = bits & 0x007fffffu;

  if (exp32 == 0xffu) {  // inf / nan
    return sign | 0x7c00u | (mant != 0 ? 0x0200u : 0u);
  }
  const std::int32_t exp = static_cast<std::int32_t>(exp32) - 127 + 15;
  if (exp >= 31) return sign | 0x7c00u;  // overflow -> inf
  if (exp <= 0) {
    if (exp < -10) return sign;  // underflows to zero
    mant |= 0x00800000u;         // make the leading 1 explicit
    const int shift = 14 - exp;
    std::uint16_t half = static_cast<std::uint16_t>(mant >> shift);
    const std::uint32_t rem = mant & ((1u << shift) - 1);
    const std::uint32_t halfway = 1u << (shift - 1);
    if (rem > halfway || (rem == halfway && (half & 1))) ++half;
    return sign | half;
  }
  std::uint16_t half = static_cast<std::uint16_t>(
      sign | (static_cast<std::uint32_t>(exp) << 10) | (mant >> 13));
  const std::uint32_t rem = mant & 0x1fffu;
  // Round to nearest even; a carry correctly rolls into the exponent
  // (and saturates to inf at the top).
  if (rem > 0x1000u || (rem == 0x1000u && (half & 1))) ++half;
  return half;
}

float half_to_float(std::uint16_t half) {
  const std::uint32_t sign = static_cast<std::uint32_t>(half & 0x8000u) << 16;
  std::uint32_t exp = (half >> 10) & 0x1fu;
  std::uint32_t mant = half & 0x3ffu;
  std::uint32_t bits;
  if (exp == 0) {
    if (mant == 0) {
      bits = sign;  // signed zero
    } else {        // subnormal: renormalize
      exp = 127 - 15 + 1;
      while ((mant & 0x400u) == 0) {
        mant <<= 1;
        --exp;
      }
      mant &= 0x3ffu;
      bits = sign | (exp << 23) | (mant << 13);
    }
  } else if (exp == 31) {  // inf / nan
    bits = sign | 0x7f800000u | (mant << 13);
  } else {
    bits = sign | ((exp - 15 + 127) << 23) | (mant << 13);
  }
  float value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

ByteBuffer Fp32Codec::encode(const ModelParameters& params,
                             const ModelParameters* /*reference*/) const {
  ByteBuffer out;
  out.reserve(raw_wire_bytes(params));
  wire::Writer w{out};
  wire::write_preamble(w, static_cast<std::uint8_t>(kind()),
                       static_cast<std::uint32_t>(params.entries().size()));
  for (const ParameterEntry& e : params.entries()) {
    wire::write_entry_meta(w, e);
    w.bytes(e.value.data(), static_cast<std::size_t>(e.value.numel()) * 4);
  }
  return out;
}

ModelParameters Fp32Codec::decode(const ByteBuffer& blob,
                                  const ModelParameters* /*reference*/) const {
  wire::Reader r(blob);
  ModelParameters params;
  const std::uint32_t count =
      wire::read_preamble(r, static_cast<std::uint8_t>(kind()), params);
  for (std::uint32_t i = 0; i < count; ++i) {
    wire::EntryMeta meta = wire::read_entry_meta(r);
    r.require(static_cast<std::uint64_t>(meta.shape.numel()), 4);
    ParameterEntry e = wire::make_entry(std::move(meta));
    r.bytes(e.value.data(), static_cast<std::size_t>(e.value.numel()) * 4);
    params.mutable_entries().push_back(std::move(e));
  }
  return params;
}

ByteBuffer Fp16Codec::encode(const ModelParameters& params,
                             const ModelParameters* /*reference*/) const {
  ByteBuffer out;
  wire::Writer w{out};
  wire::write_preamble(w, static_cast<std::uint8_t>(kind()),
                       static_cast<std::uint32_t>(params.entries().size()));
  for (const ParameterEntry& e : params.entries()) {
    wire::write_entry_meta(w, e);
    for (std::int64_t i = 0; i < e.value.numel(); ++i) {
      const std::uint16_t half = float_to_half(e.value[i]);
      // Like Int8QuantCodec: a diverged client's non-finite weight, or
      // one beyond the half range (|w| > 65504, saturating to inf),
      // would silently poison the aggregate — refuse instead.
      if ((half & 0x7c00u) == 0x7c00u) {
        throw std::invalid_argument(
            "Fp16Codec: non-finite or half-overflowing value in '" + e.name +
            "'");
      }
      w.pod<std::uint16_t>(half);
    }
  }
  return out;
}

ModelParameters Fp16Codec::decode(const ByteBuffer& blob,
                                  const ModelParameters* /*reference*/) const {
  wire::Reader r(blob);
  ModelParameters params;
  const std::uint32_t count =
      wire::read_preamble(r, static_cast<std::uint8_t>(kind()), params);
  for (std::uint32_t i = 0; i < count; ++i) {
    wire::EntryMeta meta = wire::read_entry_meta(r);
    r.require(static_cast<std::uint64_t>(meta.shape.numel()), 2);
    ParameterEntry e = wire::make_entry(std::move(meta));
    for (std::int64_t j = 0; j < e.value.numel(); ++j) {
      e.value[j] = half_to_float(r.pod<std::uint16_t>());
    }
    params.mutable_entries().push_back(std::move(e));
  }
  return params;
}

}  // namespace fleda
