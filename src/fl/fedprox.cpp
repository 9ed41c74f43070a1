#include "fl/fedprox.hpp"

#include <utility>

namespace fleda {

std::vector<ModelParameters> FedProx::run_rounds(
    std::vector<Client>& clients, const ModelFactory& factory,
    const FLRunOptions& opts, FederationSim& sim,
    ParticipationPolicy& participation) {
  Rng rng(opts.seed);
  ModelParameters global = initial_model_parameters(factory, rng);

  ClientTrainConfig cfg = opts.client;
  if (!proximal_) cfg.mu = 0.0;
  const std::unique_ptr<AggregationRule> rule = sync_aggregation_rule(opts);
  for (int r = 0; r < opts.rounds; ++r) {
    const std::vector<std::size_t> cohort =
        select_cohort(participation, r, clients.size(), opts, sim);
    const std::vector<const ModelParameters*> deployed(cohort.size(), &global);
    global = sync_round(clients, cohort,
                        sim.channel().broadcast(deployed, cohort), *rule,
                        {&global}, {}, cfg, opts.aggregation, sim)
                 .front()
                 ->finish();
    if (opts.on_round) {
      opts.on_round(r, std::vector<ModelParameters>(clients.size(), global));
    }
  }
  std::vector<ModelParameters> finals(clients.size(), global);
  global_ = std::move(global);
  return finals;
}

}  // namespace fleda
