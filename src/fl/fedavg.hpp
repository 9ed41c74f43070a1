// FedAvg (McMahan et al. 2017): the baseline FL round loop of Fig. 1
// with plain local SGD/Adam training — FedProx's round with the
// proximal term forced off (mu = 0). Included for the
// convergence-comparison bench; the paper builds on FedProx.
#pragma once

#include "fl/fedprox.hpp"

namespace fleda {

class FedAvg : public FedProx {
 public:
  FedAvg() : FedProx(/*proximal=*/false) {}

  std::string name() const override { return "FedAvg"; }
};

}  // namespace fleda
