// Tests for the federated learning algorithms on a small synthetic
// 3-client setup: round-loop semantics, aggregation correctness,
// personalization invariants (LG local parts stay private, alpha-sync
// produces per-client models, clustering keeps cluster models
// separate), proximal-term behaviour, and baseline trainers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>

#include "fl/aggregation.hpp"
#include "fl/alpha_sync.hpp"
#include "fl/assigned_clustering.hpp"
#include "fl/baselines.hpp"
#include "fl/fedavg.hpp"
#include "fl/fedprox.hpp"
#include "fl/fedprox_lg.hpp"
#include "fl/finetune.hpp"
#include "fl/ifca.hpp"
#include "fl/registry.hpp"
#include "models/pool.hpp"
#include "tensor/ops.hpp"
#include "util/thread_pool.hpp"

namespace fleda {
namespace {

// A tiny linearly-learnable client dataset: label = 1 where channel 0
// exceeds a client-specific threshold (heterogeneity across clients).
ClientDataset make_tiny_client(int id, float threshold, std::uint64_t seed,
                               int train_samples = 6, int test_samples = 3) {
  Rng rng(seed);
  ClientDataset ds;
  ds.client_id = id;
  auto make_sample = [&]() {
    Sample s;
    s.features = Tensor(Shape{2, 8, 8});
    s.label = Tensor(Shape{1, 8, 8});
    for (std::int64_t i = 0; i < 64; ++i) {
      const float v = static_cast<float>(rng.uniform());
      s.features[i] = v;
      s.features[64 + i] = static_cast<float>(rng.uniform());
      s.label[i] = v > threshold ? 1.0f : 0.0f;
    }
    return s;
  };
  for (int i = 0; i < train_samples; ++i) ds.train.push_back(make_sample());
  for (int i = 0; i < test_samples; ++i) ds.test.push_back(make_sample());
  return ds;
}

struct TinyWorld {
  std::vector<ClientDataset> data;
  std::vector<Client> clients;
  ModelFactory factory;
  std::shared_ptr<ModelPool> pool;  // set only by make_pooled_world
};

// One fixture, two memory layouts. "Owned" (shared_pool = false):
// every client gets a private scratch pool — the seed implementation's
// one-model-per-client behavior. "Pooled": all clients borrow from one
// shared scratch pool (w.pool).
TinyWorld make_world(std::uint64_t seed = 1, bool shared_pool = false) {
  TinyWorld w;
  w.data.push_back(make_tiny_client(1, 0.4f, seed + 1));
  w.data.push_back(make_tiny_client(2, 0.5f, seed + 2));
  w.data.push_back(make_tiny_client(3, 0.6f, seed + 3, /*train=*/9));
  w.factory = make_model_factory(ModelKind::kFLNet, 2);
  if (shared_pool) w.pool = std::make_shared<ModelPool>(w.factory);
  Rng rng(seed);
  for (std::size_t k = 0; k < w.data.size(); ++k) {
    if (shared_pool) {
      w.clients.emplace_back(w.data[k].client_id, &w.data[k], w.pool,
                             rng.fork(k));
    } else {
      w.clients.emplace_back(w.data[k].client_id, &w.data[k], w.factory,
                             rng.fork(k));
    }
  }
  return w;
}

TinyWorld make_pooled_world(std::uint64_t seed = 1) {
  return make_world(seed, /*shared_pool=*/true);
}

FLRunOptions tiny_options(int rounds = 2) {
  FLRunOptions opts;
  opts.rounds = rounds;
  opts.client.steps = 3;
  opts.client.batch_size = 2;
  opts.client.learning_rate = 1e-3;
  opts.client.mu = 1e-4;
  opts.seed = 99;
  return opts;
}

TEST(Client, LocalUpdateChangesParametersAndReportsLoss) {
  TinyWorld w = make_world(11);
  Rng rng(5);
  RoutabilityModelPtr init = w.factory(rng);
  ModelParameters start = ModelParameters::from_model(*init);
  ModelParameters result = w.clients[0].local_update(start, tiny_options().client);
  EXPECT_GT(start.squared_distance(result), 0.0);
  EXPECT_GT(w.clients[0].last_train_loss(), 0.0f);
}

TEST(Client, LargeMuKeepsLocalModelNearAnchor) {
  TinyWorld small = make_world(13);
  TinyWorld big = make_world(13);
  Rng rng(5);
  RoutabilityModelPtr init = small.factory(rng);
  ModelParameters start = ModelParameters::from_model(*init);

  ClientTrainConfig weak = tiny_options().client;
  weak.mu = 0.0;
  ClientTrainConfig strong = weak;
  strong.mu = 50.0;  // huge proximal pull
  ModelParameters free_run = small.clients[0].local_update(start, weak);
  ModelParameters anchored = big.clients[0].local_update(start, strong);
  EXPECT_LT(start.squared_distance(anchored),
            start.squared_distance(free_run));
}

TEST(Client, EvaluateTestAucInRange) {
  TinyWorld w = make_world(17);
  Rng rng(5);
  RoutabilityModelPtr init = w.factory(rng);
  double auc =
      w.clients[1].evaluate_test_auc(ModelParameters::from_model(*init));
  EXPECT_GE(auc, 0.0);
  EXPECT_LE(auc, 1.0);
}

TEST(FedAvg, AllClientsReceiveSameFinalModel) {
  TinyWorld w = make_world(19);
  FedAvg algo;
  std::vector<ModelParameters> finals =
      algo.run(w.clients, w.factory, tiny_options());
  ASSERT_EQ(finals.size(), 3u);
  EXPECT_DOUBLE_EQ(finals[0].squared_distance(finals[1]), 0.0);
  EXPECT_DOUBLE_EQ(finals[0].squared_distance(finals[2]), 0.0);
}

TEST(FedAvg, SingleClientEqualsItsOwnUpdate) {
  // With K = 1 the aggregate is exactly the client's local update.
  TinyWorld w = make_world(23);
  std::vector<Client> one;
  one.push_back(std::move(w.clients[0]));

  FLRunOptions opts = tiny_options(/*rounds=*/1);
  opts.client.mu = 0.0;
  FedAvg algo;
  std::vector<ModelParameters> finals = algo.run(one, w.factory, opts);

  // Re-run the same local computation manually.
  TinyWorld w2 = make_world(23);
  Rng rng(opts.seed);
  RoutabilityModelPtr init = w2.factory(rng);
  ClientTrainConfig cfg = opts.client;
  cfg.mu = 0.0;
  ModelParameters manual =
      w2.clients[0].local_update(ModelParameters::from_model(*init), cfg);
  EXPECT_NEAR(finals[0].squared_distance(manual), 0.0, 1e-9);
}

TEST(FedProx, RoundCallbackFiresEachRound) {
  TinyWorld w = make_world(29);
  FLRunOptions opts = tiny_options(3);
  int calls = 0;
  opts.on_round = [&](int round, const std::vector<ModelParameters>& models) {
    EXPECT_EQ(round, calls);
    EXPECT_EQ(models.size(), 3u);
    ++calls;
  };
  FedProx algo;
  algo.run(w.clients, w.factory, opts);
  EXPECT_EQ(calls, 3);
  EXPECT_FALSE(algo.global_model().empty());
}

TEST(FedProx, DeterministicAcrossRuns) {
  TinyWorld w1 = make_world(31);
  TinyWorld w2 = make_world(31);
  FedProx a1, a2;
  std::vector<ModelParameters> f1 = a1.run(w1.clients, w1.factory, tiny_options());
  std::vector<ModelParameters> f2 = a2.run(w2.clients, w2.factory, tiny_options());
  EXPECT_NEAR(f1[0].squared_distance(f2[0]), 0.0, 1e-12);
}

TEST(FedProxLG, LocalPartsStayPrivate) {
  TinyWorld w = make_world(37);
  FedProxLG algo;
  std::vector<ModelParameters> finals =
      algo.run(w.clients, w.factory, tiny_options());
  ASSERT_EQ(finals.size(), 3u);
  // Global parts identical across clients, local parts different.
  double global_diff = 0.0, local_diff = 0.0;
  for (std::size_t e = 0; e < finals[0].entries().size(); ++e) {
    const auto& e0 = finals[0].entries()[e];
    const auto& e1 = finals[1].entries()[e];
    const float d = max_abs_diff(e0.value, e1.value);
    if (is_output_layer_param(e0.name)) {
      local_diff += d;
    } else {
      global_diff += d;
    }
  }
  EXPECT_DOUBLE_EQ(global_diff, 0.0);
  EXPECT_GT(local_diff, 0.0);
}

TEST(IFCA, AssignsEveryClientAValidCluster) {
  TinyWorld w = make_world(41);
  IFCA algo(/*num_clusters=*/2, /*selection_batches=*/2);
  std::vector<ModelParameters> finals =
      algo.run(w.clients, w.factory, tiny_options());
  ASSERT_EQ(finals.size(), 3u);
  ASSERT_EQ(algo.final_assignment().size(), 3u);
  for (int c : algo.final_assignment()) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, 2);
  }
  // Clients in the same cluster share a model.
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = i + 1; j < 3; ++j) {
      if (algo.final_assignment()[i] == algo.final_assignment()[j]) {
        EXPECT_DOUBLE_EQ(finals[i].squared_distance(finals[j]), 0.0);
      }
    }
  }
  EXPECT_THROW(IFCA(0).run(w.clients, w.factory, tiny_options()),
               std::invalid_argument);
}

TEST(AssignedClustering, ClusterMembersShareModelsOthersDiffer) {
  TinyWorld w = make_world(43);
  AssignedClustering algo({0, 0, 1});
  std::vector<ModelParameters> finals =
      algo.run(w.clients, w.factory, tiny_options());
  EXPECT_DOUBLE_EQ(finals[0].squared_distance(finals[1]), 0.0);
  EXPECT_GT(finals[0].squared_distance(finals[2]), 0.0);
}

TEST(AssignedClustering, PaperAssignmentShape) {
  TinyWorld w = make_world(47);
  AssignedClustering algo = AssignedClustering::paper_assignment();
  // Paper assignment is for 9 clients; running on 3 must throw.
  EXPECT_THROW(algo.run(w.clients, w.factory, tiny_options()),
               std::invalid_argument);
}

TEST(AlphaPortionSync, ProducesPerClientModels) {
  TinyWorld w = make_world(53);
  AlphaPortionSync algo(0.5);
  std::vector<ModelParameters> finals =
      algo.run(w.clients, w.factory, tiny_options());
  EXPECT_GT(finals[0].squared_distance(finals[1]), 0.0);
  EXPECT_GT(finals[1].squared_distance(finals[2]), 0.0);
}

TEST(AlphaPortionSync, AlphaOneIsFullyLocalAfterAggregation) {
  // alpha = 1: each client's deployed model is exactly its own update
  // (no cross-client mixing).
  TinyWorld wa = make_world(59);
  AlphaPortionSync mix0(1.0);
  FLRunOptions opts = tiny_options(1);
  std::vector<ModelParameters> finals =
      mix0.run(wa.clients, wa.factory, opts);

  TinyWorld wb = make_world(59);
  Rng rng(opts.seed);
  RoutabilityModelPtr init = wb.factory(rng);
  ModelParameters manual = wb.clients[0].local_update(
      ModelParameters::from_model(*init), opts.client);
  EXPECT_NEAR(finals[0].squared_distance(manual), 0.0, 1e-9);

  EXPECT_THROW(AlphaPortionSync(1.5).run(wa.clients, wa.factory, opts),
               std::invalid_argument);
}

TEST(AlphaPortionSync, SingleMemberCohortKeepsItsOwnUpdateUnscaled) {
  // Under client sampling a cohort of one is normal; the sole member
  // must keep its full update (nobody to split (1 - alpha) with), not
  // alpha * update — which would silently shrink the model each round.
  TinyWorld w = make_world(97);
  AlphaPortionSync algo(0.5);
  FLRunOptions opts = tiny_options(1);
  opts.client.mu = 0.0;
  opts.participation.kind = ParticipationKind::kUniformSample;
  opts.participation.sample_size = 1;
  std::vector<ModelParameters> finals = algo.run(w.clients, w.factory, opts);

  TinyWorld ref = make_world(97);
  Rng rng(opts.seed);
  RoutabilityModelPtr init = ref.factory(rng);
  const ModelParameters initial = ModelParameters::from_model(*init);
  int changed = -1;
  for (std::size_t k = 0; k < finals.size(); ++k) {
    if (finals[k].squared_distance(initial) > 0.0) {
      EXPECT_EQ(changed, -1) << "more than one client trained";
      changed = static_cast<int>(k);
    }
  }
  ASSERT_NE(changed, -1);
  const ModelParameters manual =
      ref.clients[static_cast<std::size_t>(changed)].local_update(initial,
                                                                  opts.client);
  EXPECT_NEAR(finals[static_cast<std::size_t>(changed)]
                  .squared_distance(manual),
              0.0, 1e-12);
}

TEST(FineTune, RunsBaseThenImprovesLocalFit) {
  TinyWorld w = make_world(61);
  FLRunOptions opts = tiny_options(2);
  FineTune algo(std::make_unique<FedProx>(), /*finetune_steps=*/10);
  EXPECT_EQ(algo.name(), "FedProx + Fine-tuning");
  std::vector<ModelParameters> finals = algo.run(w.clients, w.factory, opts);
  // Fine-tuned models are personalized (differ across clients).
  EXPECT_GT(finals[0].squared_distance(finals[1]), 0.0);
}

TEST(Baselines, LocalModelsArePerClientAndDifferent) {
  TinyWorld w = make_world(67);
  BaselineOptions opts;
  opts.total_steps = 6;
  opts.client = tiny_options().client;
  std::vector<ModelParameters> locals =
      train_local_baselines(w.clients, w.factory, opts);
  ASSERT_EQ(locals.size(), 3u);
  EXPECT_GT(locals[0].squared_distance(locals[1]), 0.0);
}

TEST(Baselines, CentralizedTrainsOnPooledData) {
  TinyWorld w = make_world(71);
  BaselineOptions opts;
  opts.total_steps = 6;
  opts.client = tiny_options().client;
  ModelParameters central = train_centralized(w.data, w.factory, opts);
  Rng rng(opts.seed);
  RoutabilityModelPtr init = w.factory(rng);
  EXPECT_GT(ModelParameters::from_model(*init).squared_distance(central), 0.0);
}

bool bit_identical(const ModelParameters& a, const ModelParameters& b) {
  if (!a.structurally_equal(b)) return false;
  for (std::size_t n = 0; n < a.entries().size(); ++n) {
    if (!a.entries()[n].value.equals(b.entries()[n].value)) return false;
  }
  return true;
}

// --- algorithm registry (tentpole) -----------------------------------

TEST(Registry, NamesListingAndErrorHandling) {
  AlgorithmRegistry& registry = AlgorithmRegistry::global();
  const std::vector<std::string> names = registry.names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const char* builtin :
       {"fedavg", "fedprox", "fedprox_lg", "ifca", "fedprox_finetune",
        "assigned_clustering", "alpha_sync", "async_fedavg"}) {
    EXPECT_TRUE(registry.contains(builtin)) << builtin;
  }
  EXPECT_FALSE(registry.contains("no_such_algorithm"));
  try {
    registry.create("no_such_algorithm");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The error lists what IS registered, for discoverability.
    EXPECT_NE(std::string(e.what()).find("fedprox"), std::string::npos);
  }
  EXPECT_THROW(registry.add("", [](const AlgorithmOptions&) {
                 return std::unique_ptr<FederatedAlgorithm>();
               }),
               std::invalid_argument);
  EXPECT_THROW(registry.add("fedavg",
                            [](const AlgorithmOptions&) {
                              return std::unique_ptr<FederatedAlgorithm>(
                                  new FedAvg());
                            }),
               std::invalid_argument);
}

TEST(Registry, EveryNameRunsAndMatchesDirectDispatchBitIdentically) {
  // Under FullParticipation and the default lossless channel, an
  // algorithm created through the registry must reproduce the directly
  // constructed (pre-registry, enum-dispatch) result bit for bit.
  AlgorithmOptions options;
  options.cluster_assignment = {0, 0, 1};  // the tiny world has 3 clients
  options.finetune_steps = 4;
  options.async.buffer_size = 2;

  using Direct = std::function<std::unique_ptr<FederatedAlgorithm>()>;
  std::map<std::string, Direct> direct;
  direct["fedavg"] = [] { return std::make_unique<FedAvg>(); };
  direct["fedprox"] = [] { return std::make_unique<FedProx>(); };
  direct["fedprox_lg"] = [] { return std::make_unique<FedProxLG>(); };
  direct["ifca"] = [&] {
    return std::make_unique<IFCA>(options.num_clusters,
                                  options.selection_batches);
  };
  direct["fedprox_finetune"] = [&] {
    return std::make_unique<FineTune>(std::make_unique<FedProx>(),
                                      options.finetune_steps);
  };
  direct["assigned_clustering"] = [&] {
    return std::make_unique<AssignedClustering>(options.cluster_assignment);
  };
  direct["alpha_sync"] = [&] {
    return std::make_unique<AlphaPortionSync>(options.alpha_portion);
  };
  direct["async_fedavg"] = [&] {
    return std::make_unique<AsyncFedAvg>(options.async);
  };

  for (const std::string& name : AlgorithmRegistry::global().names()) {
    SCOPED_TRACE(name);
    const FLRunOptions opts = tiny_options(2);
    TinyWorld w1 = make_world(81);
    std::unique_ptr<FederatedAlgorithm> from_registry =
        AlgorithmRegistry::global().create(name, options);
    std::vector<ModelParameters> finals =
        from_registry->run(w1.clients, w1.factory, opts);
    ASSERT_EQ(finals.size(), 3u);

    auto it = direct.find(name);
    ASSERT_NE(it, direct.end()) << "no direct-dispatch reference for " << name;
    TinyWorld w2 = make_world(81);
    std::vector<ModelParameters> reference =
        it->second()->run(w2.clients, w2.factory, opts);
    ASSERT_EQ(reference.size(), finals.size());
    for (std::size_t k = 0; k < finals.size(); ++k) {
      EXPECT_TRUE(bit_identical(finals[k], reference[k])) << "client " << k;
    }
  }
}

// --- scratch-model pool (tentpole) -----------------------------------

TEST(ModelPoolIdentity, PooledMatchesOwnedForEveryAlgorithmAndPoolSize) {
  // A federation whose clients borrow from one shared scratch pool
  // must reproduce the per-client-model ("owned") layout bit for bit —
  // for every registered algorithm, at several thread-pool sizes. Any
  // state leaking through a scratch model (weights, BatchNorm buffers,
  // Adam moments) between two clients' leases would break this.
  AlgorithmOptions options;
  options.cluster_assignment = {0, 0, 1};  // the tiny world has 3 clients
  options.finetune_steps = 4;
  options.async.buffer_size = 2;

  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              std::size_t{8}}) {
    ThreadPool::reset_global(threads);
    for (const std::string& name : AlgorithmRegistry::global().names()) {
      SCOPED_TRACE(name + " @ threads=" + std::to_string(threads));
      const FLRunOptions opts = tiny_options(2);

      std::vector<ModelParameters> reference;
      {
        TinyWorld owned = make_world(91);
        reference = AlgorithmRegistry::global().create(name, options)->run(
            owned.clients, owned.factory, opts);
      }  // destroy the owned world's models before counting the pooled run

      RoutabilityModel::reset_peak_instances();
      const std::int64_t base = RoutabilityModel::live_instances();
      TinyWorld pooled = make_pooled_world(91);
      std::vector<ModelParameters> finals =
          AlgorithmRegistry::global().create(name, options)->run(
              pooled.clients, pooled.factory, opts);

      ASSERT_EQ(finals.size(), reference.size());
      for (std::size_t k = 0; k < finals.size(); ++k) {
        EXPECT_TRUE(bit_identical(finals[k], reference[k])) << "client " << k;
      }
      // The pooled run never held more live models than the budget.
      EXPECT_LE(RoutabilityModel::peak_instances() - base,
                static_cast<std::int64_t>(threads) + 1);
    }
  }
  ThreadPool::reset_global(0);
}

// --- participation policies (tentpole) -------------------------------

TEST(Participation, FullCohortIsEveryClient) {
  FullParticipation full;
  ParticipationContext ctx;
  ctx.num_clients = 4;
  EXPECT_EQ(full.select(ctx), (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(full.name(), "full");
}

TEST(Participation, UniformSampleIsSeededSortedAndSized) {
  ParticipationContext ctx;
  ctx.num_clients = 6;
  UniformSample a(2, 42), b(2, 42);
  bool varied = false;
  std::vector<std::size_t> first;
  for (int r = 0; r < 6; ++r) {
    ctx.round = r;
    const std::vector<std::size_t> cohort = a.select(ctx);
    EXPECT_EQ(cohort, b.select(ctx));  // same seed => same sequence
    ASSERT_EQ(cohort.size(), 2u);
    EXPECT_TRUE(std::is_sorted(cohort.begin(), cohort.end()));
    EXPECT_LT(cohort.back(), 6u);
    if (r == 0) first = cohort;
    if (cohort != first) varied = true;
  }
  EXPECT_TRUE(varied);  // it actually resamples across rounds
  // C >= K degenerates to full participation; non-positive C is a
  // config error rejected at construction (a typo must not silently
  // run full-cost rounds).
  EXPECT_EQ(UniformSample(99).select(ctx).size(), 6u);
  EXPECT_THROW(UniformSample(0), std::invalid_argument);
}

TEST(Participation, AvailabilityAwareFiltersOfflineClients) {
  SimConfig sim = SimConfig::uniform(3);
  sim.profiles[1].offline.push_back({0.0, 10.0});
  ParticipationContext ctx;
  ctx.num_clients = 3;
  ctx.sim = &sim;
  ctx.now = 5.0;
  AvailabilityAware policy;
  EXPECT_EQ(policy.select(ctx), (std::vector<std::size_t>{0, 2}));
  ctx.now = 10.0;  // offline windows are half-open
  EXPECT_EQ(policy.select(ctx), (std::vector<std::size_t>{0, 1, 2}));

  // Composed with a sampler via the config factory: the filter applies
  // to the sampled cohort, and the offline client never appears.
  ParticipationConfig config;
  config.kind = ParticipationKind::kAvailabilityAware;
  config.sample_size = 2;
  auto sampled = make_participation_policy(config);
  ctx.now = 5.0;
  for (int r = 0; r < 8; ++r) {
    ctx.round = r;
    for (std::size_t k : sampled->select(ctx)) EXPECT_NE(k, 1u);
  }
}

TEST(Participation, SampledFedProxIsDeterministicAndPersonalizesCohortOnly) {
  auto run_once = [] {
    TinyWorld w = make_world(83);
    FLRunOptions opts = tiny_options(3);
    opts.participation.kind = ParticipationKind::kUniformSample;
    opts.participation.sample_size = 2;
    FedProx algo;
    return algo.run(w.clients, w.factory, opts);
  };
  const std::vector<ModelParameters> f1 = run_once();
  const std::vector<ModelParameters> f2 = run_once();
  ASSERT_EQ(f1.size(), 3u);
  for (std::size_t k = 0; k < f1.size(); ++k) {
    EXPECT_TRUE(bit_identical(f1[k], f2[k])) << "client " << k;
  }
}

TEST(Participation, AllOfflineCohortFailsWithDescriptiveError) {
  TinyWorld w = make_world(84);
  FLRunOptions opts = tiny_options(1);
  opts.participation.kind = ParticipationKind::kAvailabilityAware;
  opts.sim = SimConfig::uniform(3);
  for (ClientProfile& p : opts.sim.profiles) p.offline.push_back({0.0, 100.0});
  FedAvg algo;
  try {
    algo.run(w.clients, w.factory, opts);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("empty cohort"), std::string::npos)
        << e.what();
  }
}

TEST(Participation, AllOfflineIFCARoundKeepsEveryClusterModel) {
  // A cluster nobody joined keeps its model, so rounds whose cohort is
  // empty leave IFCA exactly where it started and upload nothing.
  FLRunOptions opts = tiny_options();
  opts.participation.kind = ParticipationKind::kAvailabilityAware;
  opts.sim = SimConfig::uniform(3);
  for (ClientProfile& p : opts.sim.profiles) p.offline.push_back({0.0, 100.0});
  ChannelStats stats;
  opts.comm_stats = &stats;
  TinyWorld w = make_world(86);
  const std::vector<ModelParameters> finals =
      IFCA(2).run(w.clients, w.factory, opts);
  EXPECT_EQ(stats.uplink_messages, 0u);

  FLRunOptions untrained = tiny_options(/*rounds=*/0);
  TinyWorld w0 = make_world(86);
  const std::vector<ModelParameters> initial =
      IFCA(2).run(w0.clients, w0.factory, untrained);
  ASSERT_EQ(finals.size(), initial.size());
  for (std::size_t k = 0; k < finals.size(); ++k) {
    EXPECT_TRUE(bit_identical(finals[k], initial[k])) << "client " << k;
  }
}

// --- aggregation rules (tentpole + guard satellite) ------------------

TEST(AggregationRules, WeightedAverageMatchesItsBufferedRound) {
  TinyWorld w = make_world(85);
  Rng rng(5);
  ModelParameters u1 = ModelParameters::from_model(*w.factory(rng));
  ModelParameters u2 = ModelParameters::from_model(*w.factory(rng));
  const std::vector<double> weights = {1.0, 3.0};

  // What a buffered round does: fold each upload, finish once.
  const WeightedAverage rule;
  const ModelParameters none;
  BufferingAccumulator round(rule, none);
  round.fold(u1, weights[0], 0, 0);
  round.fold(u2, weights[1], 0, 1);
  const ModelParameters via_round = round.finish();
  const ModelParameters via_rule =
      rule.aggregate(none, {{&u1, 1.0, 0}, {&u2, 3.0, 0}});
  EXPECT_TRUE(bit_identical(via_round, via_rule));
}

TEST(AggregationRules, EmptyCohortAndZeroWeightThrowDescriptively) {
  const WeightedAverage avg;
  const StalenessDiscountedMix mix(StalenessPolicy{}, 0.5);
  for (const AggregationRule* rule :
       std::vector<const AggregationRule*>{&avg, &mix}) {
    try {
      rule->aggregate(ModelParameters{}, {});
      FAIL() << rule->name() << ": expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("empty cohort"), std::string::npos)
          << e.what();
    }
  }
  TinyWorld w = make_world(86);
  Rng rng(5);
  ModelParameters u = ModelParameters::from_model(*w.factory(rng));
  EXPECT_THROW(
      avg.aggregate(ModelParameters{}, {{&u, 0.0, 0}, {&u, 0.0, 0}}),
      std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(avg.aggregate(ModelParameters{}, {{&u, nan, 0}}),
               std::invalid_argument);
}

TEST(AggregationRules, StalenessDiscountedMixFoldsDeltasIntoCurrent) {
  TinyWorld w = make_world(87);
  Rng rng(5);
  const ModelParameters current = ModelParameters::from_model(*w.factory(rng));
  const ModelParameters delta = ModelParameters::from_model(*w.factory(rng));

  // Single input: normalization cancels the discount entirely, so the
  // result is current + server_mix * delta whatever the staleness.
  StalenessPolicy policy;
  policy.poly_exponent = 1.0;
  const StalenessDiscountedMix rule(policy, 0.5);
  const ModelParameters one =
      rule.aggregate(current, {{&delta, 2.0, /*staleness=*/3}});
  ModelParameters expected = current;
  expected.add_scaled(delta, 0.5);
  EXPECT_NEAR(one.squared_distance(expected), 0.0, 1e-12);

  // Two inputs, same delta but staleness 0 vs 1: the weighted average
  // of identical deltas is that delta, so staleness must not change
  // the outcome — while the internal weights differ (s(1) = 0.5).
  const ModelParameters two = rule.aggregate(
      current, {{&delta, 1.0, 0}, {&delta, 1.0, 1}});
  EXPECT_NEAR(two.squared_distance(expected), 0.0, 1e-10);
  EXPECT_DOUBLE_EQ(policy.weight(0), 1.0);
  EXPECT_DOUBLE_EQ(policy.weight(1), 0.5);

  EXPECT_THROW(StalenessDiscountedMix(policy, 0.0), std::invalid_argument);
}

TEST(TrainingEffectiveness, FedAvgLearnsTheSharedConcept) {
  // With enough rounds, the aggregated model must beat a random model
  // on every client (the shared threshold concept is learnable).
  TinyWorld w = make_world(73);
  FLRunOptions opts = tiny_options(6);
  opts.client.steps = 8;
  opts.client.learning_rate = 5e-3;
  FedProx algo;
  std::vector<ModelParameters> finals = algo.run(w.clients, w.factory, opts);
  for (std::size_t k = 0; k < w.clients.size(); ++k) {
    EXPECT_GT(w.clients[k].evaluate_test_auc(finals[k]), 0.75)
        << "client " << k;
  }
}

}  // namespace
}  // namespace fleda
