#include "fl/assigned_clustering.hpp"

#include <algorithm>
#include <stdexcept>

namespace fleda {

AssignedClustering AssignedClustering::paper_assignment() {
  // Clients 1-3 (ITC'99), 4-6 (ISCAS'89), 7-8 (IWLS'05), 9 (ISPD'15).
  return AssignedClustering({0, 0, 0, 1, 1, 1, 2, 2, 3});
}

std::vector<ModelParameters> AssignedClustering::run_rounds(
    std::vector<Client>& clients, const ModelFactory& factory,
    const FLRunOptions& opts, FederationSim& sim,
    ParticipationPolicy& participation) {
  if (assignment_.size() != clients.size()) {
    throw std::invalid_argument(
        "AssignedClustering: assignment size != #clients");
  }
  const int num_clusters =
      1 + *std::max_element(assignment_.begin(), assignment_.end());

  Rng rng(opts.seed);
  std::vector<ModelParameters> cluster_models;
  cluster_models.reserve(static_cast<std::size_t>(num_clusters));
  for (int c = 0; c < num_clusters; ++c) {
    cluster_models.push_back(initial_model_parameters(factory, rng));
  }

  const std::unique_ptr<AggregationRule> rule = sync_aggregation_rule(opts);
  for (int r = 0; r < opts.rounds; ++r) {
    const std::vector<std::size_t> cohort =
        select_cohort(participation, r, clients.size(), opts, sim);
    // Each sampled member trains its own cluster's model; a cluster with
    // nobody sampled keeps its model.
    std::vector<const ModelParameters*> deployed;
    std::vector<std::size_t> group_of;
    deployed.reserve(cohort.size());
    group_of.reserve(cohort.size());
    for (std::size_t k : cohort) {
      group_of.push_back(static_cast<std::size_t>(assignment_[k]));
      deployed.push_back(&cluster_models[group_of.back()]);
    }
    sync_group_round(clients, cohort,
                     sim.channel().broadcast(deployed, cohort), *rule,
                     group_of, cluster_models, opts.client, opts.aggregation,
                     sim);

    if (opts.on_round) {
      std::vector<ModelParameters> snapshot;
      for (std::size_t k = 0; k < clients.size(); ++k) {
        snapshot.push_back(
            cluster_models[static_cast<std::size_t>(assignment_[k])]);
      }
      opts.on_round(r, snapshot);
    }
  }

  std::vector<ModelParameters> finals;
  finals.reserve(clients.size());
  for (std::size_t k = 0; k < clients.size(); ++k) {
    finals.push_back(cluster_models[static_cast<std::size_t>(assignment_[k])]);
  }
  return finals;
}

}  // namespace fleda
