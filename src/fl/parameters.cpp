#include "fl/parameters.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/ops.hpp"

namespace fleda {

ModelParameters ModelParameters::from_model(Module& model) {
  // Hot path (called once per local_update): one virtual walk each for
  // parameters and buffers, entries reserved up front so the snapshot
  // vector never reallocates mid-extraction.
  const std::vector<Parameter*> params = model.parameters();
  const std::vector<NamedBuffer> buffers = model.buffers();
  ModelParameters snapshot;
  snapshot.entries_.reserve(params.size() + buffers.size());
  for (Parameter* p : params) {
    snapshot.entries_.push_back({p->name, false, p->value});
  }
  for (const NamedBuffer& b : buffers) {
    snapshot.entries_.push_back({b.name, true, *b.tensor});
  }
  return snapshot;
}

void ModelParameters::apply_to(Module& model) const {
  std::size_t i = 0;
  for (Parameter* p : model.parameters()) {
    if (i >= entries_.size() || entries_[i].name != p->name ||
        entries_[i].value.shape() != p->value.shape()) {
      throw std::invalid_argument("ModelParameters::apply_to: mismatch at " +
                                  p->name);
    }
    p->value = entries_[i].value;
    ++i;
  }
  for (const NamedBuffer& b : model.buffers()) {
    if (i >= entries_.size() || entries_[i].name != b.name ||
        entries_[i].value.shape() != b.tensor->shape()) {
      throw std::invalid_argument("ModelParameters::apply_to: mismatch at " +
                                  b.name);
    }
    *b.tensor = entries_[i].value;
    ++i;
  }
  if (i != entries_.size()) {
    throw std::invalid_argument(
        "ModelParameters::apply_to: model has fewer entries than snapshot");
  }
}

bool ModelParameters::structurally_equal(const ModelParameters& other) const {
  if (entries_.size() != other.entries_.size()) return false;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].name != other.entries_[i].name ||
        entries_[i].is_buffer != other.entries_[i].is_buffer ||
        entries_[i].value.shape() != other.entries_[i].value.shape()) {
      return false;
    }
  }
  return true;
}

ModelParameters ModelParameters::weighted_average(
    const std::vector<const ModelParameters*>& snapshots,
    const std::vector<double>& weights) {
  if (snapshots.empty()) {
    throw std::invalid_argument(
        "weighted_average: no snapshots — cannot average an empty cohort "
        "(did the participation policy sample only offline clients?)");
  }
  if (snapshots.size() != weights.size()) {
    throw std::invalid_argument(
        "weighted_average: " + std::to_string(snapshots.size()) +
        " snapshots but " + std::to_string(weights.size()) + " weights");
  }
  double total = 0.0;
  for (double w : weights) {
    if (!(w >= 0.0)) {  // negatives and NaNs both fail this
      throw std::invalid_argument(
          "weighted_average: weight " + std::to_string(w) +
          " is negative or non-finite");
    }
    total += w;
  }
  if (!(total > 0.0) || !std::isfinite(total)) {
    throw std::invalid_argument(
        "weighted_average: total weight " + std::to_string(total) +
        " — refusing to divide (would emit NaN parameters)");
  }

  ModelParameters result = *snapshots[0];
  result.scale(weights[0] / total);
  for (std::size_t s = 1; s < snapshots.size(); ++s) {
    if (!result.structurally_equal(*snapshots[s])) {
      throw std::invalid_argument("weighted_average: structure mismatch");
    }
    result.add_scaled(*snapshots[s], weights[s] / total);
  }
  return result;
}

void ModelParameters::add_scaled(const ModelParameters& other, double alpha) {
  if (!structurally_equal(other)) {
    throw std::invalid_argument("add_scaled: structure mismatch");
  }
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    axpy(entries_[i].value, static_cast<float>(alpha),
         other.entries_[i].value);
  }
}

void ModelParameters::scale(double alpha) {
  for (auto& e : entries_) scale_inplace(e.value, static_cast<float>(alpha));
}

double ModelParameters::squared_l2_norm() const {
  double acc = 0.0;
  for (const ParameterEntry& e : entries_) {
    const float* d = e.value.data();
    const std::int64_t n = e.value.numel();
    for (std::int64_t i = 0; i < n; ++i) {
      acc += static_cast<double>(d[i]) * d[i];
    }
  }
  return acc;
}

double ModelParameters::squared_distance(const ModelParameters& other) const {
  if (!structurally_equal(other)) {
    throw std::invalid_argument("squared_distance: structure mismatch");
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].is_buffer) continue;
    const Tensor& a = entries_[i].value;
    const Tensor& b = other.entries_[i].value;
    for (std::int64_t j = 0; j < a.numel(); ++j) {
      const double d = static_cast<double>(a[j]) - b[j];
      acc += d * d;
    }
  }
  return acc;
}

double ModelParameters::squared_l2_distance(
    const ModelParameters& other) const {
  if (!structurally_equal(other)) {
    throw std::invalid_argument("squared_l2_distance: structure mismatch");
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const float* a = entries_[i].value.data();
    const float* b = other.entries_[i].value.data();
    const std::int64_t n = entries_[i].value.numel();
    for (std::int64_t j = 0; j < n; ++j) {
      const double d = static_cast<double>(a[j]) - b[j];
      acc += d * d;
    }
  }
  return acc;
}

double ModelParameters::dot(const ModelParameters& other) const {
  if (!structurally_equal(other)) {
    throw std::invalid_argument("dot: structure mismatch");
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const float* a = entries_[i].value.data();
    const float* b = other.entries_[i].value.data();
    const std::int64_t n = entries_[i].value.numel();
    for (std::int64_t j = 0; j < n; ++j) {
      acc += static_cast<double>(a[j]) * b[j];
    }
  }
  return acc;
}

ModelParameters ModelParameters::merged_with(
    const ModelParameters& other,
    const std::function<bool(const std::string&)>& take_other) const {
  if (!structurally_equal(other)) {
    throw std::invalid_argument("merged_with: structure mismatch");
  }
  ModelParameters result = *this;
  for (std::size_t i = 0; i < result.entries_.size(); ++i) {
    if (take_other(result.entries_[i].name)) {
      result.entries_[i].value = other.entries_[i].value;
    }
  }
  return result;
}

std::int64_t ModelParameters::numel() const {
  std::int64_t n = 0;
  for (const auto& e : entries_) n += e.value.numel();
  return n;
}

bool is_output_layer_param(const std::string& name) {
  return name.rfind("output_conv", 0) == 0;
}

ModelParameters initial_model_parameters(const ModelFactory& factory,
                                         Rng& rng) {
  RoutabilityModelPtr init = factory(rng);
  return ModelParameters::from_model(*init);
}

std::uint64_t finals_checksum(const std::vector<ModelParameters>& finals) {
  std::uint64_t h = 1469598103934665603ull;
  for (const ModelParameters& p : finals) {
    for (const ParameterEntry& e : p.entries()) {
      const unsigned char* bytes =
          reinterpret_cast<const unsigned char*>(e.value.data());
      const std::int64_t n = e.value.numel() *
                             static_cast<std::int64_t>(sizeof(float));
      for (std::int64_t i = 0; i < n; ++i) {
        h ^= bytes[i];
        h *= 1099511628211ull;
      }
    }
  }
  return h;
}

}  // namespace fleda
