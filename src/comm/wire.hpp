// Byte-level reader/writer for the FLC1 wire format shared by the
// codec implementations. Internal to src/comm/ — user code talks to
// ParameterCodec, never to these helpers.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "fl/parameters.hpp"

namespace fleda {
namespace wire {

constexpr char kMagic[4] = {'F', 'L', 'C', '1'};

struct Writer {
  std::vector<std::uint8_t>& out;

  void bytes(const void* src, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(src);
    out.insert(out.end(), p, p + n);
  }
  template <typename T>
  void pod(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&value, sizeof(value));
  }
  void str(const std::string& s) {
    pod<std::uint32_t>(static_cast<std::uint32_t>(s.size()));
    bytes(s.data(), s.size());
  }
};

struct Reader {
  const std::uint8_t* cursor = nullptr;
  const std::uint8_t* end = nullptr;

  explicit Reader(const std::vector<std::uint8_t>& blob)
      : cursor(blob.data()), end(blob.data() + blob.size()) {}

  std::size_t remaining() const {
    return static_cast<std::size_t>(end - cursor);
  }
  // Throws unless `count` items of `item_bytes` each fit in the rest of
  // the blob — checked before a decoder allocates for them, so a tiny
  // hostile blob cannot demand a huge tensor.
  void require(std::uint64_t count, std::size_t item_bytes) const {
    if (count > remaining() / item_bytes) {
      throw std::runtime_error("FLC1: payload of " + std::to_string(count) +
                               " x " + std::to_string(item_bytes) +
                               " bytes exceeds the blob");
    }
  }

  void bytes(void* dst, std::size_t n) {
    if (static_cast<std::size_t>(end - cursor) < n) {
      throw std::runtime_error("FLC1: truncated buffer");
    }
    std::memcpy(dst, cursor, n);
    cursor += n;
  }
  template <typename T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    bytes(&value, sizeof(value));
    return value;
  }
  std::string str() {
    const std::uint32_t len = pod<std::uint32_t>();
    if (len > (1u << 16)) throw std::runtime_error("FLC1: bad string length");
    std::string s(len, '\0');
    bytes(s.data(), len);
    return s;
  }
};

// Magic + codec id + entry count.
void write_preamble(Writer& w, std::uint8_t codec_id, std::uint32_t entries);
// Verifies magic and that the blob was produced by `expected_codec`;
// returns the entry count. Every entry costs at least its meta bytes,
// so `params` gets room for no more entries than the blob could hold.
std::uint32_t read_preamble(Reader& r, std::uint8_t expected_codec,
                            ModelParameters& params);

// Per-entry metadata: name, buffer flag, shape.
void write_entry_meta(Writer& w, const ParameterEntry& entry);

struct EntryMeta {
  std::string name;
  bool is_buffer = false;
  Shape shape;
};
// Reads an entry's metadata without allocating its tensor: dims must
// be non-negative and their product must not overflow.
EntryMeta read_entry_meta(Reader& r);
// The entry with a zero-initialized tensor of meta's shape. Callers
// check the payload against the blob first (Reader::require); an
// allocation failure still surfaces as the documented runtime_error.
ParameterEntry make_entry(EntryMeta meta);

}  // namespace wire
}  // namespace fleda
