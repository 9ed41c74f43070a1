// FedProx (Li et al. 2018): the paper's core decentralized training
// algorithm. Identical round structure to FedAvg, but each client's
// local objective carries the proximal term mu*||W^r - w_k||^2
// anchoring local models to the deployed aggregate, which counters the
// client-level heterogeneity of routability data (paper §4.1, Eq. 1).
#pragma once

#include "fl/trainer.hpp"

namespace fleda {

class FedProx : public FederatedAlgorithm {
 public:
  FedProx() = default;

  std::string name() const override { return "FedProx"; }

  // The final aggregated global model of the last run (useful for
  // personalization stages built on top of FedProx).
  const ModelParameters& global_model() const { return global_; }

 protected:
  // proximal = false forces mu = 0 (FedAvg).
  explicit FedProx(bool proximal) : proximal_(proximal) {}

  std::vector<ModelParameters> run_rounds(
      std::vector<Client>& clients, const ModelFactory& factory,
      const FLRunOptions& opts, FederationSim& sim,
      ParticipationPolicy& participation) override;

 private:
  bool proximal_ = true;
  ModelParameters global_;
};

}  // namespace fleda
