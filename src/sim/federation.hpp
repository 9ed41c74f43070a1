// FederationSim: binds the metered Channel to the SimEngine for one
// training run. Algorithms exchange parameters through channel() —
// which bills bytes per client — and close each round through a
// scheduling policy that turns the billed traffic into events on the
// virtual clock:
//
//   finish_sync_round  — the barrier policy used by every synchronous
//     algorithm: per cohort member, schedule download-complete,
//     compute-complete and upload-complete events (waiting out offline
//     windows), release the barrier at the slowest member's upload,
//     and close the channel round with the resulting duration. Clients
//     outside the cohort are neither scheduled nor billed — under a
//     sampling ParticipationPolicy a round costs O(|cohort|), and an
//     AvailabilityAware cohort skips offline clients instead of
//     stalling the barrier on them.
//   finish_local_round — compute-only (FineTune's client-side
//     personalization): advances the clock past the slowest client's
//     local steps without touching the channel.
//
// Asynchronous algorithms (fl/async_fedavg.cpp) bypass these policies
// and schedule their own per-message events directly on engine().
#pragma once

#include <deque>

#include "comm/channel.hpp"
#include "sim/engine.hpp"

namespace fleda {

class AnomalyDetector;
class ModelParameters;
class ReputationBook;
class TelemetrySink;

// ClientProfile link overrides, as Channel link entries.
std::vector<ClientLink> links_from_profiles(const SimConfig& config,
                                            std::size_t num_clients);

class FederationSim {
 public:
  FederationSim(Channel& channel, SimEngine& engine)
      : channel_(channel), engine_(engine) {}

  Channel& channel() { return channel_; }
  SimEngine& engine() { return engine_; }
  double now() const { return engine_.now(); }

  // Optional per-round telemetry (obs/telemetry.hpp). The round loops
  // record cohort composition into the sink; close_telemetry_round()
  // finalizes one record from the channel's latest round entry — the
  // sync barrier calls it itself, event-driven algorithms call it after
  // their own Channel::end_round. Null sink: all hooks are no-ops.
  void set_telemetry(TelemetrySink* sink) { telemetry_ = sink; }
  TelemetrySink* telemetry() const { return telemetry_; }
  void close_telemetry_round();

  // Optional server-side defense hooks (fl/anomaly.hpp). Both pointers
  // are caller-owned and may be null independently: a detector alone
  // records verdicts into telemetry; adding a book turns verdicts into
  // reputation updates. Pure observers — wiring them changes no model
  // math. Coordinator thread only.
  void set_anomaly(AnomalyDetector* detector, ReputationBook* reputation);
  AnomalyDetector* anomaly_detector() const { return detector_; }
  ReputationBook* reputation() const { return reputation_; }

  // Scores one cohort's updates against the references each client
  // trained from (deltas = update - reference, computed here), feeds
  // verdicts to the reputation book and the telemetry sink. No-op when
  // no detector is set. `references[i]` is the model deployed to
  // cohort[i]; `updates[i]` its returned parameters.
  void observe_cohort_updates(
      const std::vector<std::size_t>& cohort,
      const std::vector<const ModelParameters*>& updates,
      const std::vector<const ModelParameters*>& references);
  // Same, for callers that already hold deltas (async buffers).
  void observe_cohort_deltas(const std::vector<std::size_t>& clients,
                             const std::vector<const ModelParameters*>& deltas);

  // Per-client adaptive-attack state (sim/profile.hpp AttackState),
  // created lazily. Backed by a deque so references stay stable while
  // the table grows; each slot is only ever touched by its owning
  // client's apply_attack call, so handing slot pointers to a
  // parallel-for over distinct clients is race-free.
  AttackState* attack_state(std::size_t client);

  // Sync barrier over a cohort: schedules each member's (download ->
  // `steps` local steps -> upload) chain from the traffic billed this
  // round, runs the events, and closes the channel round at the
  // slowest member. The no-cohort overload keeps the historical
  // full-participation barrier (every client with billed traffic).
  void finish_sync_round(int steps);
  void finish_sync_round(int steps, const std::vector<std::size_t>& cohort);

  // Compute-only phase, no exchange and no channel round entry.
  void finish_local_round(int steps);

 private:
  Channel& channel_;
  SimEngine& engine_;
  TelemetrySink* telemetry_ = nullptr;
  AnomalyDetector* detector_ = nullptr;
  ReputationBook* reputation_ = nullptr;
  std::deque<AttackState> attack_states_;
  int round_index_ = 0;
};

}  // namespace fleda
