// TopKDeltaCodec: sparsifies the update delta. The encoder computes
// d = params - reference (reference == nullptr means a delta against
// zeros), keeps the k = max(1, fraction * numel) largest-magnitude
// elements across the whole snapshot, and stores them as per-entry
// (index, value) pairs. The decoder scatters the pairs onto its copy of
// the reference — both sides already hold the deployed model, so only
// the sparse delta crosses the wire.
#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "comm/codec.hpp"
#include "comm/wire.hpp"

namespace fleda {

TopKDeltaCodec::TopKDeltaCodec(double fraction) : fraction_(fraction) {
  if (!(fraction > 0.0) || fraction > 1.0) {
    throw std::invalid_argument("TopKDeltaCodec: fraction must be in (0, 1]");
  }
}

std::string TopKDeltaCodec::name() const {
  return "topk(" + std::to_string(fraction_) + ")";
}

ByteBuffer TopKDeltaCodec::encode(const ModelParameters& params,
                                  const ModelParameters* reference) const {
  if (reference != nullptr && !params.structurally_equal(*reference)) {
    throw std::invalid_argument("TopKDeltaCodec: reference structure mismatch");
  }
  const auto& entries = params.entries();

  // Pass 1: magnitudes of the whole delta, to find the global k-th
  // largest as the selection threshold.
  std::vector<float> magnitudes;
  magnitudes.reserve(static_cast<std::size_t>(params.numel()));
  for (std::size_t n = 0; n < entries.size(); ++n) {
    const Tensor& v = entries[n].value;
    const Tensor* ref = reference ? &reference->entries()[n].value : nullptr;
    for (std::int64_t i = 0; i < v.numel(); ++i) {
      const float mag = std::fabs(v[i] - (ref ? (*ref)[i] : 0.0f));
      // NaN magnitudes would break nth_element's strict weak ordering
      // (UB) and then be silently dropped by the > threshold selection.
      if (!std::isfinite(mag)) {
        throw std::invalid_argument(
            "TopKDeltaCodec: non-finite delta in '" + entries[n].name + "'");
      }
      magnitudes.push_back(mag);
    }
  }
  const std::size_t total = magnitudes.size();
  const std::size_t k = std::min(
      total, static_cast<std::size_t>(std::max(
                 1.0, std::round(fraction_ * static_cast<double>(total)))));
  float threshold = 0.0f;
  std::size_t above = 0;  // count strictly above the threshold
  if (k > 0 && total > 0) {
    std::nth_element(magnitudes.begin(), magnitudes.begin() + (k - 1),
                     magnitudes.end(), std::greater<float>());
    threshold = magnitudes[k - 1];
    for (std::size_t i = 0; i < total; ++i) {
      if (magnitudes[i] > threshold) ++above;
    }
  }
  // Ties at the threshold share the remaining budget (first come first
  // served, deterministic in entry order).
  std::size_t tie_budget = k > above ? k - above : 0;

  ByteBuffer out;
  wire::Writer w{out};
  wire::write_preamble(w, static_cast<std::uint8_t>(kind()),
                       static_cast<std::uint32_t>(entries.size()));
  for (std::size_t n = 0; n < entries.size(); ++n) {
    const Tensor& v = entries[n].value;
    const Tensor* ref = reference ? &reference->entries()[n].value : nullptr;
    wire::write_entry_meta(w, entries[n]);

    std::vector<std::pair<std::uint32_t, float>> kept;
    for (std::int64_t i = 0; i < v.numel(); ++i) {
      const float d = v[i] - (ref ? (*ref)[i] : 0.0f);
      const float mag = std::fabs(d);
      if (mag > threshold) {
        kept.emplace_back(static_cast<std::uint32_t>(i), d);
      } else if (mag == threshold && tie_budget > 0 && mag > 0.0f) {
        kept.emplace_back(static_cast<std::uint32_t>(i), d);
        --tie_budget;
      }
    }
    w.pod<std::uint32_t>(static_cast<std::uint32_t>(kept.size()));
    for (const auto& [idx, d] : kept) {
      w.pod<std::uint32_t>(idx);
      w.pod<float>(d);
    }
  }
  return out;
}

ModelParameters TopKDeltaCodec::decode(const ByteBuffer& blob,
                                       const ModelParameters* reference) const {
  wire::Reader r(blob);
  ModelParameters params;
  const std::uint32_t count =
      wire::read_preamble(r, static_cast<std::uint8_t>(kind()), params);
  if (reference != nullptr && reference->entries().size() != count) {
    throw std::invalid_argument("TopKDeltaCodec: reference entry count");
  }
  for (std::uint32_t n = 0; n < count; ++n) {
    wire::EntryMeta meta = wire::read_entry_meta(r);
    ParameterEntry e;
    if (reference != nullptr) {
      // The scatter target is a copy of the reference: compare shapes
      // before allocating anything.
      const Tensor& ref = reference->entries()[n].value;
      if (ref.shape() != meta.shape) {
        throw std::invalid_argument("TopKDeltaCodec: reference shape");
      }
      e.name = std::move(meta.name);
      e.is_buffer = meta.is_buffer;
      e.value = ref;
    } else {
      // Indices are 32-bit on the wire: a larger tensor is unaddressable.
      if (meta.shape.numel() >
          static_cast<std::int64_t>(std::numeric_limits<std::uint32_t>::max()) +
              1) {
        throw std::runtime_error("TopKDeltaCodec: tensor exceeds index range");
      }
      e = wire::make_entry(std::move(meta));
    }
    const std::uint32_t nnz = r.pod<std::uint32_t>();
    for (std::uint32_t i = 0; i < nnz; ++i) {
      const std::uint32_t idx = r.pod<std::uint32_t>();
      const float d = r.pod<float>();
      if (idx >= static_cast<std::uint32_t>(e.value.numel())) {
        throw std::runtime_error("TopKDeltaCodec: index out of range");
      }
      e.value[idx] += d;
    }
    params.mutable_entries().push_back(std::move(e));
  }
  return params;
}

}  // namespace fleda
