#include "fl/async_fedavg.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <stdexcept>
#include <utility>

#include "obs/telemetry.hpp"

namespace fleda {
namespace {

// What the server keeps per arrival besides the interval's accumulator
// (which owns the delta itself).
struct PendingMeta {
  int client = -1;
  int staleness = 0;
};

}  // namespace

AsyncFedAvg::AsyncFedAvg(AsyncConfig config) : config_(config) {
  if (config_.buffer_size <= 0) {
    throw std::invalid_argument("AsyncFedAvg: buffer_size <= 0");
  }
  if (config_.max_in_flight < 0) {
    throw std::invalid_argument("AsyncFedAvg: max_in_flight < 0");
  }
  if (config_.staleness_gate_age < 0) {
    throw std::invalid_argument("AsyncFedAvg: staleness_gate_age < 0");
  }
  // Validates server_mix and the discount parameters.
  StalenessDiscountedMix(staleness_policy(config_), config_.server_mix);
}

StalenessPolicy AsyncFedAvg::staleness_policy(const AsyncConfig& config) {
  StalenessPolicy policy;
  policy.discount = config.discount;
  policy.poly_exponent = config.poly_exponent;
  policy.constant_factor = config.constant_factor;
  return policy;
}

double AsyncFedAvg::staleness_weight(const AsyncConfig& config,
                                     int staleness) {
  return staleness_policy(config).weight(staleness);
}

std::vector<ModelParameters> AsyncFedAvg::run_rounds(
    std::vector<Client>& clients, const ModelFactory& factory,
    const FLRunOptions& opts, FederationSim& sim,
    ParticipationPolicy& /*participation*/) {
  // Participation policies are a sync-barrier concept; the async loop
  // is availability-aware by construction (offline clients simply
  // rejoin when their window ends), so the policy is ignored here.
  Rng rng(opts.seed);
  ModelParameters global = initial_model_parameters(factory, rng);

  ClientTrainConfig cfg = opts.client;
  cfg.mu = 0.0;  // async FedAvg: plain local SGD, like FedAvg

  SimEngine& engine = sim.engine();
  Channel& channel = sim.channel();
  const std::vector<double> weights = client_weights(clients);
  const StalenessPolicy staleness = staleness_policy(config_);
  // The configured aggregation rule; the empty default keeps the
  // historical AsyncConfig-derived StalenessDiscountedMix. NOTE: an
  // explicit rule name — including "staleness_mix" — is built from
  // AggregationConfig's own knobs (staleness / server_mix there), not
  // from this AsyncConfig; naming the rule means configuring it in
  // AggregationConfig.
  const std::unique_ptr<AggregationRule> rule =
      opts.aggregation.rule.empty()
          ? std::make_unique<StalenessDiscountedMix>(staleness,
                                                     config_.server_mix)
          : make_aggregation_rule(opts.aggregation);

  int version = 0;  // completed aggregations, the async "round" counter
  // Per-client upload counter, the Byzantine noise-stream nonce: a
  // fast client can upload twice at one model version, and each send
  // must draw fresh noise. Event callbacks run serially on the engine
  // thread, so the counters are deterministic.
  std::vector<std::uint64_t> attack_sends(clients.size(), 0);
  double last_aggregate_time = 0.0;

  // One accumulator per aggregation interval: each arriving delta folds
  // in the moment it arrives. Native (streaming) accumulators free it
  // on the spot; the buffering one keeps the interval's deltas for the
  // rule's aggregate() — and for the anomaly detector. An arrival's
  // staleness (version - dispatched_version) cannot change after it:
  // `version` only advances in aggregate(), which fires AT the
  // buffer-filling arrival. Event callbacks run serially on the engine
  // thread, so a single lane suffices.
  //
  // Mixing rules (the StalenessDiscountedMix default) fold the deltas
  // into the live global themselves: global += eta * sum_i n_i s(tau_i)
  // delta_i / sum_i n_i s(tau_i). An averaging rule (coordinate_median,
  // trimmed_mean, norm_clipped_mean, ...) instead combines the deltas
  // around a zero anchor into one robust consensus delta, which the
  // server folds in with its mixing rate — FedBuff's robust-aggregation
  // composition. The staleness discount is applied through the
  // weights, which only the weight-sensitive rules (weighted_average,
  // norm_clipped_mean) consume; the rank-based rules ignore weights by
  // design, so under them stale deltas vote with full strength.
  const bool native = native_folding(opts.aggregation, sim);
  ModelParameters zero_anchor;
  const ModelParameters& anchor =
      rule->folds_into_current() ? global : zero_anchor;
  std::unique_ptr<StreamingAccumulator> interval_acc;
  std::vector<PendingMeta> pending;
  pending.reserve(static_cast<std::size_t>(config_.buffer_size));

  auto aggregate = [&]() {
    if (TelemetrySink* sink = sim.telemetry()) {
      int attackers = 0;
      for (const PendingMeta& m : pending) {
        if (engine.profile(static_cast<std::size_t>(m.client)).attack.kind !=
            AttackKind::kNone) {
          ++attackers;
        }
      }
      sink->record_cohort(static_cast<int>(pending.size()), attackers);
      for (const PendingMeta& m : pending) {
        sink->record_staleness(m.staleness);
      }
    }
    // Server-side detection scores the buffered deltas before they are
    // consumed (pure observer; a detector pins buffering).
    if (sim.anomaly_detector() != nullptr) {
      auto& buffer = static_cast<BufferingAccumulator&>(*interval_acc);
      std::vector<std::size_t> senders;
      std::vector<const ModelParameters*> deltas;
      for (std::size_t i = 0; i < buffer.updates().size(); ++i) {
        senders.push_back(static_cast<std::size_t>(buffer.clients()[i]));
        deltas.push_back(&buffer.updates()[i]);
      }
      sim.observe_cohort_deltas(senders, deltas);
    }
    // finish() fully builds the result before `global` (the mixing
    // anchor) is replaced.
    ModelParameters next = interval_acc->finish();
    interval_acc.reset();
    if (rule->folds_into_current()) {
      global = std::move(next);
    } else {
      global.add_scaled(next, config_.server_mix);
    }
    pending.clear();
    ++version;
    engine.note(SimEventKind::kAggregate, /*client=*/-1, version - 1);
    // Channel round entry = one aggregation interval, so cumulative
    // per-round latency stays meaningful for time-to-target plots.
    channel.end_round(engine.now() - last_aggregate_time);
    last_aggregate_time = engine.now();
    sim.close_telemetry_round();
    if (opts.on_round) {
      opts.on_round(version - 1,
                    std::vector<ModelParameters>(clients.size(), global));
    }
  };

  // Dispatch gate (max_in_flight): at most `cap` clients hold a
  // dispatched model at once; the rest queue FIFO for a freed slot.
  // cap == 0 disables the gate and is event-for-event identical to the
  // ungated loop.
  const int cap = config_.max_in_flight;
  int in_flight = 0;
  std::deque<std::size_t> waiting;
  std::function<void(std::size_t)> start_chain;

  // The staleness-aware effective cap: when the oldest buffered update
  // is more than staleness_gate_age versions behind, shed one slot per
  // excess version (never below 1). With staleness_gate_age == 0 this
  // is exactly `cap`, so the run is event-for-event identical to the
  // fixed gate. All callers run serially on the engine thread.
  auto effective_cap = [&]() {
    if (cap <= 0 || config_.staleness_gate_age <= 0) return cap;
    int oldest = version;
    // An arrival's recorded staleness is exact (version is frozen
    // between aggregations), so its dispatch version reconstructs as
    // version - staleness.
    for (const PendingMeta& m : pending) {
      oldest = std::min(oldest, version - m.staleness);
    }
    const int excess = (version - oldest) - config_.staleness_gate_age;
    return excess > 0 ? std::max(1, cap - excess) : cap;
  };
  // Fills free slots from the FIFO queue. Under the fixed gate at most
  // one slot frees at a time (one iteration — the historical
  // behavior); after an aggregation the staleness gate can reopen
  // several slots at once, hence the loop.
  auto drain_waiting = [&]() {
    while (!waiting.empty() && version < opts.rounds &&
           in_flight < effective_cap()) {
      const std::size_t next = waiting.front();
      waiting.pop_front();
      ++in_flight;
      start_chain(next);
    }
  };

  // (Re)requests work for client k, taking a slot or queueing.
  auto request_dispatch = [&](std::size_t k) {
    if (version >= opts.rounds) return;  // run over: stop feeding work
    if (cap > 0 && in_flight >= effective_cap()) {
      waiting.push_back(k);
      return;
    }
    ++in_flight;
    start_chain(k);
  };
  // Client k's chain ended (delivered, lost, or permanently offline):
  // freed slots go to the longest-waiting clients.
  auto finish_chain = [&]() {
    --in_flight;
    drain_waiting();
  };

  // Dispatches the current global model to client k and schedules its
  // download -> train -> upload event chain. Invoked through
  // request_dispatch at t = 0 for every client and again from each
  // client's delivery (or drop) event.
  start_chain = [&](std::size_t k) {
    const double now = engine.now();
    const ClientProfile& profile = engine.profile(k);
    const double start = profile.next_online(now);
    if (!std::isfinite(start)) {
      // Permanently offline from here on: never rejoins the federation.
      engine.note(SimEventKind::kDropped, static_cast<int>(k), version);
      finish_chain();
      return;
    }
    std::uint64_t down_bytes = 0;
    std::shared_ptr<const ModelParameters> received =
        channel.send_down(k, global, &down_bytes);
    const int dispatched_version = version;
    engine.note(SimEventKind::kDispatch, static_cast<int>(k),
                dispatched_version);
    const double down_done =
        start + engine.download_duration(k, 1, down_bytes);
    engine.schedule(
        down_done, SimEventKind::kDownlinkDone, static_cast<int>(k),
        dispatched_version, [&, k, received, dispatched_version] {
          if (version >= opts.rounds) return;  // drain without training
          const double compute_done =
              engine.now() + engine.compute_duration(k, cfg.steps);
          engine.schedule(
              compute_done, SimEventKind::kComputeDone, static_cast<int>(k),
              dispatched_version, [&, k, received, dispatched_version] {
                if (version >= opts.rounds) return;
                // Train now, on what this client decoded at dispatch;
                // the client's rng advances in event order, which is
                // deterministic for a fixed schedule. A Byzantine
                // client corrupts its upload here (nonce = the
                // client's own send counter).
                ModelParameters update = clients[k].local_update(*received,
                                                                 cfg);
                const AttackSpec& attack = engine.profile(k).attack;
                if (attack.kind != AttackKind::kNone) {
                  // Event callbacks run serially on the engine thread,
                  // so the adaptive state deque is safe to grow here.
                  AttackState* state =
                      attack.kind == AttackKind::kAdaptiveScaled
                          ? sim.attack_state(k)
                          : nullptr;
                  update = apply_attack(attack, std::move(update), *received,
                                        k, attack_sends[k]++, state);
                }
                std::uint64_t up_bytes = 0;
                ModelParameters server_view =
                    channel.send_up(k, update, received.get(), &up_bytes);
                ModelParameters delta = std::move(server_view);
                delta.add_scaled(*received, -1.0);
                const double up_done =
                    engine.now() + engine.upload_duration(k, 1, up_bytes);
                const ClientProfile& p = engine.profile(k);
                if (!p.is_online(up_done)) {
                  // Dropout: the client goes offline before delivery —
                  // the update is lost; rejoin when the window ends.
                  engine.schedule(up_done, SimEventKind::kDropped,
                                  static_cast<int>(k), dispatched_version,
                                  [&, k] {
                                    finish_chain();
                                    request_dispatch(k);
                                  });
                  return;
                }
                engine.schedule(
                    up_done, SimEventKind::kUplinkDone, static_cast<int>(k),
                    dispatched_version,
                    [&, k, dispatched_version,
                     delta = std::move(delta)]() mutable {
                      if (version >= opts.rounds) return;
                      if (!interval_acc) {
                        if (!rule->folds_into_current()) {
                          zero_anchor = global;
                          zero_anchor.scale(0.0);
                        }
                        interval_acc =
                            native ? rule->accumulator(anchor)
                                   : std::make_unique<BufferingAccumulator>(
                                         *rule, anchor);
                      }
                      const int tau = version - dispatched_version;
                      double w = weights[k];
                      if (!rule->folds_into_current()) {
                        w *= staleness.weight(tau);
                      }
                      interval_acc->fold(std::move(delta), w, tau,
                                         static_cast<int>(k));
                      pending.push_back(PendingMeta{static_cast<int>(k), tau});
                      if (static_cast<int>(pending.size()) >=
                          config_.buffer_size) {
                        aggregate();
                      }
                      finish_chain();
                      request_dispatch(k);
                    });
              });
        });
  };

  for (std::size_t k = 0; k < clients.size(); ++k) request_dispatch(k);
  engine.run_all();

  if (version < opts.rounds) {
    throw std::runtime_error(
        "AsyncFedAvg: event queue drained after " + std::to_string(version) +
        "/" + std::to_string(opts.rounds) +
        " aggregations — not enough client updates (all clients "
        "permanently offline?)");
  }
  return std::vector<ModelParameters>(clients.size(), global);
}

}  // namespace fleda
