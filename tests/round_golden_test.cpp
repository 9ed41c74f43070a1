// Golden fingerprints of the round loops: every synchronous and
// asynchronous algorithm's finals under PlanMode::kReference, pinned
// as finals_checksum values. A refactor of the round body, the
// aggregation layer or the channel that claims bit-identical results
// must leave every value here unchanged — the K = 1000 FedAvg entry is
// the same configuration and fingerprint bench/micro_sim's
// thousand-client part prints.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "fl/alpha_sync.hpp"
#include "fl/assigned_clustering.hpp"
#include "fl/async_fedavg.hpp"
#include "fl/fedavg.hpp"
#include "fl/fedprox.hpp"
#include "fl/fedprox_lg.hpp"
#include "fl/ifca.hpp"
#include "fl/synthetic.hpp"
#include "models/pool.hpp"
#include "models/registry.hpp"
#include "sim/profile.hpp"
#include "tensor/plan.hpp"

namespace fleda {
namespace {

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

class RoundGolden : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = plan_mode();
    set_plan_mode(PlanMode::kReference);
  }
  void TearDown() override { set_plan_mode(saved_); }

 private:
  PlanMode saved_ = PlanMode::kAuto;
};

// bench/micro_sim's run_thousand with its default options: K = 1000
// clients on 9 shared synthetic datasets, FedAvg, UniformSample{20},
// 3 rounds, heterogeneous profiles.
TEST_F(RoundGolden, ThousandClientFedAvg) {
  std::vector<ClientDataset> data;
  for (int i = 0; i < 9; ++i) {
    data.push_back(make_synthetic_client(
        i + 1, 0.35f + 0.04f * static_cast<float>(i), 1000 + i));
  }
  const std::size_t num_clients = 1000;
  ModelFactory factory = make_model_factory(ModelKind::kFLNet, 2);
  auto pool = std::make_shared<ModelPool>(factory);
  Rng rng(4242);
  std::vector<Client> clients;
  clients.reserve(num_clients);
  for (std::size_t k = 0; k < num_clients; ++k) {
    clients.emplace_back(static_cast<int>(k) + 1, &data[k % 9], pool,
                         rng.fork(k));
  }
  FLRunOptions opts;
  opts.rounds = 3;
  opts.client.steps = 2;
  opts.client.batch_size = 2;
  opts.client.learning_rate = 1e-3;
  opts.client.mu = 0.0;
  opts.seed = 99;
  opts.participation.kind = ParticipationKind::kUniformSample;
  opts.participation.sample_size = 20;
  opts.participation.seed = 31337;
  opts.sim = SimConfig::heterogeneous(num_clients, /*seed=*/5);
  FedAvg algo;
  const std::vector<ModelParameters> finals =
      algo.run(clients, factory, opts);
  EXPECT_EQ(hex(finals_checksum({finals.front()})), "3f8cae8a696c3c54");
}

// Small fleets: 6 synthetic clients, 3 rounds, full participation.
FLRunOptions small_options() {
  FLRunOptions opts;
  opts.rounds = 3;
  opts.client.steps = 2;
  opts.client.batch_size = 2;
  opts.client.learning_rate = 1e-3;
  opts.client.mu = 1e-3;
  opts.seed = 17;
  return opts;
}

std::string run_small(FederatedAlgorithm& algo, const FLRunOptions& opts) {
  SyntheticWorldOptions world;
  world.num_clients = 6;
  SyntheticWorld w = make_synthetic_world(23, world);
  return hex(finals_checksum(algo.run(w.clients, w.factory, opts)));
}

TEST_F(RoundGolden, SmallFleets) {
  struct Case {
    const char* name;
    std::unique_ptr<FederatedAlgorithm> algo;
    FLRunOptions opts;
    const char* golden;
  };
  std::vector<Case> cases;
  cases.push_back({"fedprox", std::make_unique<FedProx>(), small_options(),
                   "76c1b4d4705c0a2f"});
  cases.push_back({"ifca", std::make_unique<IFCA>(2), small_options(),
                   "34bac9720fe4624f"});
  cases.push_back({"assigned_clustering",
                   std::make_unique<AssignedClustering>(
                       std::vector<int>{0, 0, 1, 1, 2, 2}),
                   small_options(), "d63e895b83f9632b"});
  cases.push_back({"fedprox_lg", std::make_unique<FedProxLG>(),
                   small_options(), "8a7ca1759a2b7128"});
  cases.push_back({"alpha_sync", std::make_unique<AlphaPortionSync>(0.6),
                   small_options(), "21aed60494e904de"});
  AsyncConfig async;
  async.buffer_size = 2;
  cases.push_back({"async_buffered", std::make_unique<AsyncFedAvg>(async),
                   small_options(), "28ad13586fb77057"});
  FLRunOptions streaming = small_options();
  streaming.aggregation.streaming = true;
  cases.push_back({"async_streaming", std::make_unique<AsyncFedAvg>(async),
                   streaming, "563e96552c9b88a3"});
  cases.push_back({"fedavg_streaming", std::make_unique<FedAvg>(), streaming,
                   "8fc05af30084cd6b"});
  FLRunOptions anomaly = small_options();
  anomaly.anomaly.enabled = true;
  AttackSpec flip;
  flip.kind = AttackKind::kSignFlip;
  flip.scale = 4.0;
  anomaly.sim = SimConfig::with_attackers(6, 1, flip);
  cases.push_back({"fedavg_anomaly", std::make_unique<FedAvg>(), anomaly,
                   "f1c6d0135a8c9bdf"});
  FLRunOptions krum = small_options();
  krum.aggregation.rule = "multi_krum";
  cases.push_back({"fedprox_multi_krum", std::make_unique<FedProx>(), krum,
                   "163366e2bcdd02d7"});
  for (Case& c : cases) {
    EXPECT_EQ(run_small(*c.algo, c.opts), c.golden) << c.name;
  }
}

}  // namespace
}  // namespace fleda
