#include "fl/alpha_sync.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace fleda {

std::vector<ModelParameters> AlphaPortionSync::run_rounds(
    std::vector<Client>& clients, const ModelFactory& factory,
    const FLRunOptions& opts, FederationSim& sim,
    ParticipationPolicy& participation) {
  if (alpha_ < 0.0 || alpha_ > 1.0) {
    throw std::invalid_argument("AlphaPortionSync: alpha outside [0,1]");
  }
  Rng rng(opts.seed);
  const ModelParameters initial = initial_model_parameters(factory, rng);

  const std::vector<double> weights = client_weights(clients);
  // With a configured rule, each member's (1 - alpha) share comes from
  // the rule applied to the OTHER cohort members' updates (a robust
  // consensus of the peers) instead of their plain weighted average.
  // Empty = the historical inline mixing, bit-for-bit.
  const bool custom_rule = !opts.aggregation.rule.empty();
  const std::unique_ptr<AggregationRule> rule = sync_aggregation_rule(opts);

  // Per-client deployed models W_k; all start from the common init.
  std::vector<ModelParameters> deployed(clients.size(), initial);

  for (int r = 0; r < opts.rounds; ++r) {
    const std::vector<std::size_t> cohort =
        select_cohort(participation, r, clients.size(), opts, sim);
    std::vector<const ModelParameters*> deployed_ptrs;
    deployed_ptrs.reserve(cohort.size());
    for (std::size_t k : cohort) deployed_ptrs.push_back(&deployed[k]);
    // The mix reads the cohort's updates, so the round buffers them
    // (never finished: each member gets its own mix below).
    const std::unique_ptr<BufferingAccumulator> round = buffered_round(
        clients, cohort, deployed_ptrs, *rule, initial, opts.client, sim);
    const std::vector<ModelParameters>& updates = round->updates();

    // The mixing below bypasses the AggregationRule guards, so screen
    // the cohort's updates for non-finite values here — a poisoned
    // update must fail loudly in every algorithm.
    for (std::size_t i = 0; i < cohort.size(); ++i) {
      if (!std::isfinite(updates[i].squared_l2_norm())) {
        throw std::invalid_argument(
            "AlphaPortionSync: client " + std::to_string(cohort[i]) +
            " sent a non-finite update (NaN/Inf parameter values) — "
            "refusing to mix it into the cohort's models");
      }
    }

    // Customized aggregation per cohort member: its own update gets a
    // fixed alpha share, the *other cohort members* split (1 - alpha)
    // by sample count. Absent clients neither contribute nor receive a
    // new model this round.
    double cohort_total = 0.0;
    for (std::size_t k : cohort) cohort_total += weights[k];
    std::vector<ModelParameters> mixed(cohort.size());
    if (opts.aggregation.streaming && !custom_rule) {
      // Streaming-era fast path for the default mix: one shared sum
      // S = sum_j w_j u_j turns each member's peer average into
      // (S - w_i u_i) / others_total, so the round is O(n) model adds
      // instead of the historical O(n^2) pairwise loop. Same mix up to
      // float reassociation — opt-in like every streaming path.
      ModelParameters sum;
      for (std::size_t j = 0; j < cohort.size(); ++j) {
        if (sum.empty()) {
          sum = updates[j];
          sum.scale(weights[cohort[j]]);
        } else {
          sum.add_scaled(updates[j], weights[cohort[j]]);
        }
      }
      for (std::size_t i = 0; i < cohort.size(); ++i) {
        const std::size_t k = cohort[i];
        const double others_total = cohort_total - weights[k];
        if (others_total <= 0.0) {
          mixed[i] = updates[i];
          continue;
        }
        // alpha u_i + (1 - alpha)(S - w_k u_i) / others_total
        const double peer_share = (1.0 - alpha_) / others_total;
        ModelParameters m = updates[i];
        m.scale(alpha_ - peer_share * weights[k]);
        m.add_scaled(sum, peer_share);
        mixed[i] = std::move(m);
      }
      for (std::size_t i = 0; i < cohort.size(); ++i) {
        deployed[cohort[i]] = std::move(mixed[i]);
      }
      if (opts.on_round) opts.on_round(r, deployed);
      continue;
    }
    for (std::size_t i = 0; i < cohort.size(); ++i) {
      const std::size_t k = cohort[i];
      const double others_total = cohort_total - weights[k];
      if (others_total <= 0.0) {
        // Single-member cohort: there is nobody to split (1 - alpha)
        // with, so the whole mass stays on the member's own update
        // (scaling by alpha alone would silently shrink the model).
        mixed[i] = updates[i];
        continue;
      }
      ModelParameters m = updates[i];
      m.scale(alpha_);
      if (custom_rule) {
        // Robust peer consensus: the configured rule over the other
        // members' updates, anchored at this member's previous model
        // (the delta reference for clipping rules).
        std::vector<AggregationInput> others;
        others.reserve(cohort.size() - 1);
        for (std::size_t j = 0; j < cohort.size(); ++j) {
          if (j == i) continue;
          others.push_back({&updates[j], weights[cohort[j]], 0,
                            static_cast<int>(cohort[j])});
        }
        m.add_scaled(rule->aggregate(deployed[k], others), 1.0 - alpha_);
      } else {
        for (std::size_t j = 0; j < cohort.size(); ++j) {
          if (j == i) continue;
          const double share =
              (1.0 - alpha_) * weights[cohort[j]] / others_total;
          m.add_scaled(updates[j], share);
        }
      }
      mixed[i] = std::move(m);
    }
    for (std::size_t i = 0; i < cohort.size(); ++i) {
      deployed[cohort[i]] = std::move(mixed[i]);
    }

    if (opts.on_round) opts.on_round(r, deployed);
  }
  return deployed;
}

}  // namespace fleda
