// ModelParameters: a named snapshot of a model's state (trainable
// parameters + non-trainable buffers such as BatchNorm running
// statistics). This is the unit of communication in the decentralized
// training setting: clients send ModelParameters to the developer, the
// developer aggregates and sends ModelParameters back — never data.
//
// Buffers are included in aggregation on purpose: averaging BatchNorm
// running statistics across heterogeneous clients is precisely the
// instability the paper's FLNet design sidesteps.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "models/registry.hpp"
#include "nn/module.hpp"

namespace fleda {

struct ParameterEntry {
  std::string name;
  bool is_buffer = false;
  Tensor value;
};

class ModelParameters {
 public:
  ModelParameters() = default;

  // Snapshots a model's parameters and buffers (deep copy).
  static ModelParameters from_model(Module& model);

  // Writes values back into a model with identical architecture.
  // Throws std::invalid_argument on any name/shape mismatch.
  void apply_to(Module& model) const;

  // Weighted average of several snapshots; weights are normalized
  // internally. All snapshots must be structurally identical.
  static ModelParameters weighted_average(
      const std::vector<const ModelParameters*>& snapshots,
      const std::vector<double>& weights);

  // this += alpha * other (entrywise; structures must match).
  void add_scaled(const ModelParameters& other, double alpha);
  void scale(double alpha);

  // Sum over trainable entries of ||a - b||^2 (buffers excluded) —
  // the FedProx proximal distance.
  double squared_distance(const ModelParameters& other) const;

  // ||a - b||^2 over ALL entries (buffers included, like
  // squared_l2_norm) — the pairwise distance Krum-style rules score
  // on: a poisoned buffer must count against its sender too. Computed
  // without materializing the difference snapshot, so the O(n^2)
  // pairwise pass over a cohort allocates nothing.
  double squared_l2_distance(const ModelParameters& other) const;

  // <this, other> over ALL entries — the anomaly detector's cosine
  // ingredient. Accumulated in double; NaN/Inf operands propagate.
  double dot(const ModelParameters& other) const;

  // ||this||^2 over ALL entries (buffers included). Doubles as the
  // aggregation layer's finiteness probe: the sum is NaN/Inf iff some
  // value is, so one accumulation pass screens a whole update.
  double squared_l2_norm() const;

  // Merge: entries whose name satisfies `take_other` come from
  // `other`, the rest from *this. Used by FedProx-LG to combine the
  // aggregated global part with each client's private local part.
  ModelParameters merged_with(
      const ModelParameters& other,
      const std::function<bool(const std::string&)>& take_other) const;

  bool structurally_equal(const ModelParameters& other) const;
  std::int64_t numel() const;
  bool empty() const { return entries_.empty(); }
  const std::vector<ParameterEntry>& entries() const { return entries_; }
  // Mutable access for mechanisms that transform snapshots in place
  // (e.g. the DP Gaussian mechanism). Structure (names, shapes, order)
  // must not be changed.
  std::vector<ParameterEntry>& mutable_entries() { return entries_; }

 private:
  std::vector<ParameterEntry> entries_;
};

// Name predicate for the paper's FedProx-LG split: the models' output
// layer ("output_conv.*") is the private local part.
bool is_output_layer_param(const std::string& name);

// Builds one model instance from `factory`, snapshots it, and destroys
// it before returning. Round loops use this for their initial global /
// cluster parameters so no algorithm pins a whole model for the length
// of a run — the O(threads) live-instance budget belongs to the
// scratch-model pool.
ModelParameters initial_model_parameters(const ModelFactory& factory,
                                         Rng& rng);

// FNV-1a over every tensor byte of `finals`, in order — the
// cross-version fingerprint benches print and golden tests pin (a
// refactor that claims bit-identical results must leave it unchanged).
std::uint64_t finals_checksum(const std::vector<ModelParameters>& finals);

}  // namespace fleda
