// FederatedAlgorithm: common interface for all decentralized training
// schemes in the paper (Fig. 1 round loop; Fig. 2 personalization
// variants). run() executes R rounds over a set of clients and returns
// one final model per client — for non-personalized algorithms all K
// entries are the same global model, for personalized ones they
// differ.
//
// Every run executes on the simulation engine (src/sim): parameter
// exchanges go through a metered Channel with per-client links, and
// round completion is a scheduling policy on the virtual clock — the
// synchronous algorithms use the FederationSim barrier policy, the
// asynchronous ones (AsyncFedAvg) schedule their own events. With
// default (homogeneous, always-online) profiles and a lossless
// channel, the sync path is bit-identical to a direct exchange — the
// engine only attaches simulated time to it.
//
// All synchronous algorithms share one round body, sync_round:
// broadcast, train plus attack inside Channel::collect_streaming
// lanes, fold every decoded upload into its group's
// StreamingAccumulator, detect, record telemetry, close the barrier.
// What AggregationConfig::streaming selects is only the accumulator:
// the rule's native one, or (default) a BufferingAccumulator whose
// finish() is the rule's own aggregate().
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fl/aggregation.hpp"
#include "fl/anomaly.hpp"
#include "fl/client.hpp"
#include "fl/participation.hpp"
#include "sim/federation.hpp"

namespace fleda {

class TelemetrySink;

struct FLRunOptions {
  int rounds = 50;  // R (for AsyncFedAvg: number of server aggregations)
  ClientTrainConfig client;
  std::uint64_t seed = 1;  // initialization seed for global model(s)
  // Who takes part in each synchronous round (full participation,
  // uniform client sampling, availability-aware skipping). The
  // event-driven asynchronous algorithms ignore this: every client
  // runs its own loop and offline clients simply rejoin later.
  ParticipationConfig participation;
  // How the cohort's updates become the next model, selected by
  // AggregationRegistry name. Empty rule = the algorithm's historical
  // default (WeightedAverage for sync loops, AsyncConfig-derived
  // StalenessDiscountedMix for AsyncFedAvg); a robust rule
  // ("coordinate_median", "trimmed_mean", "norm_clipped_mean") slots
  // into any algorithm by name.
  AggregationConfig aggregation;
  // Parameter-exchange transport: every deployment/upload of the round
  // loop goes through a Channel built from this config. The default
  // (Fp32 both ways) is lossless and bit-identical to a direct
  // exchange, only metered.
  CommConfig comm;
  // Client heterogeneity (compute speed, per-client links,
  // availability) and the compute-time model for the virtual clock.
  // Default: homogeneous, always-online reference clients.
  SimConfig sim;
  // Optional out-param: filled with the run's cumulative channel
  // statistics (bytes, messages, simulated latency) before run returns.
  ChannelStats* comm_stats = nullptr;
  // Optional out-param: the simulation summary (total virtual time,
  // event count, and — when `trace` is set — the full event trace).
  SimReport* sim_report = nullptr;
  bool trace = false;
  // Optional per-round telemetry sink (obs/telemetry.hpp): the round
  // loops record cohort size, attacker flags and staleness into it and
  // close one RoundTelemetry record per channel round. When null, run()
  // still honors FLEDA_TELEMETRY_FILE by streaming to a private sink.
  TelemetrySink* telemetry = nullptr;
  // Server-side attacker detection (fl/anomaly.hpp). When
  // anomaly.enabled, run() scores every cohort's update deltas and
  // records flags into telemetry — a pure observer: results are
  // bit-identical with detection on or off. `detector` / `reputation`
  // optionally supply caller-owned instances (to read tallies after
  // the run, or to carry a reputation book across runs); when null,
  // run() creates private ones as needed. kReputationWeighted
  // participation requires a book: either pass `reputation` or enable
  // the detector so run() can build the detect->react loop itself.
  AnomalyConfig anomaly;
  AnomalyDetector* detector = nullptr;
  ReputationBook* reputation = nullptr;
  // Optional progress hook: (round, per-client deployed parameters).
  std::function<void(int, const std::vector<ModelParameters>&)> on_round;
};

class FederatedAlgorithm {
 public:
  virtual ~FederatedAlgorithm() = default;

  virtual std::string name() const = 0;

  // Whether run_rounds consults the ParticipationPolicy. Event-driven
  // algorithms (AsyncFedAvg) return false: every client runs its own
  // loop, so reporting layers must not claim a sampling policy was
  // applied.
  virtual bool uses_participation() const { return true; }

  // Runs the full decentralized training; returns per-client final
  // models (size == clients.size()). Owns the simulation lifecycle
  // (template method): builds a Channel from opts.comm, a SimEngine
  // from opts.sim and a ParticipationPolicy from opts.participation,
  // hands the bound FederationSim and the policy to run_rounds, and
  // exports the cumulative channel stats / sim report afterwards — so
  // no algorithm can forget the accounting.
  std::vector<ModelParameters> run(std::vector<Client>& clients,
                                   const ModelFactory& factory,
                                   const FLRunOptions& opts);

 protected:
  // Algorithm body: R rounds of parameter exchange scheduled on `sim`,
  // each round's cohort drawn from `participation` (stateful per run).
  virtual std::vector<ModelParameters> run_rounds(
      std::vector<Client>& clients, const ModelFactory& factory,
      const FLRunOptions& opts, FederationSim& sim,
      ParticipationPolicy& participation) = 0;

  // Lets wrapper algorithms (FineTune) run their base algorithm's
  // rounds on the shared outer simulation despite protected access.
  static std::vector<ModelParameters> run_rounds_of(
      FederatedAlgorithm& algo, std::vector<Client>& clients,
      const ModelFactory& factory, const FLRunOptions& opts,
      FederationSim& sim, ParticipationPolicy& participation);

  // The rule opts.aggregation names, or the synchronous loops'
  // historical WeightedAverage default when no rule is named. Round
  // loops create one per run and aggregate through it.
  static std::unique_ptr<AggregationRule> sync_aggregation_rule(
      const FLRunOptions& opts);

  // The round's cohort from `participation`, evaluated at the current
  // virtual-clock time (one policy call per round, on this thread).
  static std::vector<std::size_t> select_cohort(
      ParticipationPolicy& participation, int round,
      std::size_t num_clients, const FLRunOptions& opts,
      const FederationSim& sim);

  // The synchronous round body every sync algorithm runs its cohort
  // through. received[i] is what cohort[i] decoded from this round's
  // broadcast (Channel::broadcast); each member trains from it under
  // `cfg` inside a Channel::collect_streaming lane, a Byzantine member
  // corrupts its upload, and the decoded upload folds into the
  // accumulator of its group — group_of[i] (empty = everyone in group
  // 0), anchored on anchors[group] — weighted by the member's sample
  // count. Then the anomaly detector scores the cohort, telemetry
  // records it and the barrier closes the round at the slowest member.
  // Returns one merged accumulator per group; the caller finish()es the
  // groups it keeps.
  //
  // Buffered rounds (see native_folding) fold one lane per member:
  // training keeps full per-member parallelism, and the buffer keeps
  // cohort order, so the result is bit-identical to aggregating the
  // materialized cohort. Native rounds fold kFoldLanes lanes,
  // bit-identical across pool sizes.
  static std::vector<std::unique_ptr<StreamingAccumulator>> sync_round(
      std::vector<Client>& clients, const std::vector<std::size_t>& cohort,
      const std::vector<std::shared_ptr<const ModelParameters>>& received,
      const AggregationRule& rule,
      const std::vector<const ModelParameters*>& anchors,
      const std::vector<std::size_t>& group_of, const ClientTrainConfig& cfg,
      const AggregationConfig& agg, FederationSim& sim);

  // sync_round over per-group models (IFCA, AssignedClustering):
  // models[g] becomes group g's aggregate; a group no member folded
  // into keeps its model.
  static void sync_group_round(
      std::vector<Client>& clients, const std::vector<std::size_t>& cohort,
      const std::vector<std::shared_ptr<const ModelParameters>>& received,
      const AggregationRule& rule, const std::vector<std::size_t>& group_of,
      std::vector<ModelParameters>& models, const ClientTrainConfig& cfg,
      const AggregationConfig& agg, FederationSim& sim);

  // One-group sync_round whose buffered updates the caller reads
  // (FedProx-LG, alpha-portion sync): deploys deployed[i] to cohort[i]
  // and returns the cohort's updates in cohort order, anchored on
  // `anchor` for finish().
  static std::unique_ptr<BufferingAccumulator> buffered_round(
      std::vector<Client>& clients, const std::vector<std::size_t>& cohort,
      const std::vector<const ModelParameters*>& deployed,
      const AggregationRule& rule, const ModelParameters& anchor,
      const ClientTrainConfig& cfg, FederationSim& sim);

  // Whether this run's aggregations fold through the rules' native
  // accumulator() (agg.streaming) rather than a BufferingAccumulator.
  // An anomaly detector pins buffering: it scores the materialized
  // cohort. The only reader of the streaming flag apart from
  // AlphaPortionSync's O(n) mix, a different sum order of its own.
  static bool native_folding(const AggregationConfig& agg,
                             const FederationSim& sim);
};

}  // namespace fleda
