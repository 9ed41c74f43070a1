#include "sim/federation.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "fl/anomaly.hpp"
#include "obs/telemetry.hpp"

namespace fleda {

void FederationSim::close_telemetry_round() {
  if (telemetry_ == nullptr) return;
  const std::vector<RoundCommStats>& rounds = channel_.stats().rounds;
  if (rounds.empty()) return;  // nothing billed yet
  const RoundCommStats& r = rounds.back();
  telemetry_->close_round(r.round, engine_.now(), r.uplink_bytes,
                          r.downlink_bytes);
}

void FederationSim::set_anomaly(AnomalyDetector* detector,
                                ReputationBook* reputation) {
  detector_ = detector;
  reputation_ = reputation;
}

void FederationSim::observe_cohort_updates(
    const std::vector<std::size_t>& cohort,
    const std::vector<const ModelParameters*>& updates,
    const std::vector<const ModelParameters*>& references) {
  if (detector_ == nullptr) return;
  if (cohort.size() != updates.size() || cohort.size() != references.size()) {
    throw std::invalid_argument(
        "FederationSim::observe_cohort_updates: cohort/updates/references "
        "size mismatch");
  }
  std::vector<ModelParameters> deltas(cohort.size());
  std::vector<const ModelParameters*> delta_ptrs(cohort.size());
  for (std::size_t i = 0; i < cohort.size(); ++i) {
    deltas[i] = *updates[i];
    if (references[i] != nullptr &&
        deltas[i].structurally_equal(*references[i])) {
      deltas[i].add_scaled(*references[i], -1.0);
    }
    delta_ptrs[i] = &deltas[i];
  }
  observe_cohort_deltas(cohort, delta_ptrs);
}

void FederationSim::observe_cohort_deltas(
    const std::vector<std::size_t>& clients,
    const std::vector<const ModelParameters*>& deltas) {
  if (detector_ == nullptr) return;
  const std::vector<UpdateVerdict> verdicts =
      detector_->score_cohort(clients, deltas);
  int detected = 0;
  for (const UpdateVerdict& v : verdicts) {
    if (v.flagged) ++detected;
    if (reputation_ != nullptr) reputation_->observe(v.client, v.flagged);
  }
  if (telemetry_ != nullptr && detected > 0) {
    telemetry_->record_detected(detected);
  }
}

AttackState* FederationSim::attack_state(std::size_t client) {
  while (attack_states_.size() <= client) attack_states_.emplace_back();
  return &attack_states_[client];
}

std::vector<ClientLink> links_from_profiles(const SimConfig& config,
                                            std::size_t num_clients) {
  std::vector<ClientLink> links(num_clients);
  for (std::size_t k = 0; k < num_clients; ++k) {
    links[k] = config.profile(k).link;
  }
  return links;
}

void FederationSim::finish_sync_round(int steps) {
  const std::size_t n =
      std::max(engine_.num_clients(), channel_.round_traffic().size());
  std::vector<std::size_t> everyone(n);
  for (std::size_t k = 0; k < n; ++k) everyone[k] = k;
  finish_sync_round(steps, everyone);
}

void FederationSim::finish_sync_round(int steps,
                                      const std::vector<std::size_t>& cohort) {
  const double t0 = engine_.now();
  const int round = round_index_++;
  const std::vector<ClientRoundTraffic>& traffic = channel_.round_traffic();
  double barrier = t0;
  for (std::size_t k : cohort) {
    const ClientRoundTraffic t =
        k < traffic.size() ? traffic[k] : ClientRoundTraffic{};
    const bool exchanged = t.downlink_messages + t.uplink_messages > 0;
    if (!exchanged && steps <= 0) continue;
    const int ki = static_cast<int>(k);
    // The client only starts once it is online; the sync barrier then
    // waits for it (dropout stretches the round for everyone — that is
    // the cost async aggregation removes).
    const double start = engine_.profile(k).next_online(t0);
    if (!std::isfinite(start)) {
      throw std::invalid_argument(
          "FederationSim: client " + std::to_string(k) +
          " is permanently offline from t=" + std::to_string(t0) +
          " — the sync barrier would never release (use AsyncFedAvg or a "
          "finite offline window)");
    }
    const double down_done =
        start + engine_.download_duration(k, t.downlink_messages,
                                          t.downlink_bytes);
    const double compute_done = down_done + engine_.compute_duration(k, steps);
    const double up_done =
        compute_done +
        engine_.upload_duration(k, t.uplink_messages, t.uplink_bytes);
    engine_.schedule(down_done, SimEventKind::kDownlinkDone, ki, round);
    engine_.schedule(compute_done, SimEventKind::kComputeDone, ki, round);
    engine_.schedule(up_done, SimEventKind::kUplinkDone, ki, round);
    barrier = std::max(barrier, up_done);
  }
  engine_.schedule(barrier, SimEventKind::kRoundEnd, /*client=*/-1, round);
  engine_.run_all();
  channel_.end_round(engine_.now() - t0);
  close_telemetry_round();
}

void FederationSim::finish_local_round(int steps) {
  const double t0 = engine_.now();
  const int round = round_index_++;
  double barrier = t0;
  for (std::size_t k = 0; k < engine_.num_clients(); ++k) {
    const double start = engine_.profile(k).next_online(t0);
    if (!std::isfinite(start)) {
      throw std::invalid_argument(
          "FederationSim: client " + std::to_string(k) +
          " is permanently offline from t=" + std::to_string(t0) +
          " — the local round would never complete");
    }
    const double done = start + engine_.compute_duration(k, steps);
    engine_.schedule(done, SimEventKind::kComputeDone, static_cast<int>(k),
                     round);
    barrier = std::max(barrier, done);
  }
  engine_.schedule(barrier, SimEventKind::kRoundEnd, /*client=*/-1, round);
  engine_.run_all();
}

}  // namespace fleda
