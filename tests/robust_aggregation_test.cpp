// Robustness-layer tests: the robust AggregationRule family
// (coordinate median, trimmed mean, norm-clipped mean), the
// AggregationRegistry name round-trips, the per-update finiteness
// guard (a NaN update must fail loudly, naming its sender), the
// Byzantine client behaviors (sign-flip / scaled / Gaussian-noise
// attackers break weighted_average but not the rank-based rules at
// f < 50%), attack-free determinism across thread-pool sizes, and the
// UniformSample non-positive-size rejection.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "fl/aggregation.hpp"
#include "fl/alpha_sync.hpp"
#include "fl/async_fedavg.hpp"
#include "fl/fedavg.hpp"
#include "fl/participation.hpp"
#include "fl/synthetic.hpp"
#include "sim/profile.hpp"
#include "util/thread_pool.hpp"

namespace fleda {
namespace {

// A one-entry (plus one buffer) snapshot with hand-picked values —
// small enough that every rule's math is checkable by eye.
ModelParameters make_params(const std::vector<float>& weights_values,
                            float buffer_value = 0.0f) {
  ModelParameters p;
  ParameterEntry w;
  w.name = "w";
  w.value = Tensor(Shape{static_cast<std::int64_t>(weights_values.size())});
  for (std::size_t i = 0; i < weights_values.size(); ++i) {
    w.value[static_cast<std::int64_t>(i)] = weights_values[i];
  }
  p.mutable_entries().push_back(std::move(w));
  ParameterEntry b;
  b.name = "bn";
  b.is_buffer = true;
  b.value = Tensor(Shape{1});
  b.value[0] = buffer_value;
  p.mutable_entries().push_back(std::move(b));
  return p;
}

const float* values_of(const ModelParameters& p) {
  return p.entries()[0].value.data();
}

bool bit_identical(const ModelParameters& a, const ModelParameters& b) {
  if (!a.structurally_equal(b)) return false;
  for (std::size_t n = 0; n < a.entries().size(); ++n) {
    if (!a.entries()[n].value.equals(b.entries()[n].value)) return false;
  }
  return true;
}

// --- rule math -------------------------------------------------------

TEST(CoordinateMedian, OddCohortPicksTheMiddleValuePerCoordinate) {
  const ModelParameters a = make_params({1.0f, 10.0f, -5.0f}, 1.0f);
  const ModelParameters b = make_params({2.0f, 20.0f, 0.0f}, 2.0f);
  const ModelParameters c = make_params({3.0f, 30.0f, 1e6f}, 3.0f);
  const ModelParameters m = CoordinateMedian().aggregate(
      ModelParameters{}, {{&a, 1.0, 0}, {&b, 1.0, 0}, {&c, 1.0, 0}});
  EXPECT_FLOAT_EQ(values_of(m)[0], 2.0f);
  EXPECT_FLOAT_EQ(values_of(m)[1], 20.0f);
  EXPECT_FLOAT_EQ(values_of(m)[2], 0.0f);  // the 1e6 outlier is ignored
  EXPECT_FLOAT_EQ(m.entries()[1].value[0], 2.0f);  // buffers too
}

TEST(CoordinateMedian, EvenCohortAveragesTheTwoMiddleValues) {
  const ModelParameters a = make_params({1.0f});
  const ModelParameters b = make_params({2.0f});
  const ModelParameters c = make_params({4.0f});
  const ModelParameters d = make_params({100.0f});
  const ModelParameters m = CoordinateMedian().aggregate(
      ModelParameters{},
      {{&a, 1.0, 0}, {&b, 1.0, 0}, {&c, 1.0, 0}, {&d, 1.0, 0}});
  EXPECT_FLOAT_EQ(values_of(m)[0], 3.0f);
}

TEST(CoordinateMedian, IsUnweightedAndOrderIndependent) {
  const ModelParameters a = make_params({1.0f});
  const ModelParameters b = make_params({2.0f});
  const ModelParameters c = make_params({50.0f});
  // A huge sample count on the outlier must not move the median.
  const ModelParameters m1 = CoordinateMedian().aggregate(
      ModelParameters{}, {{&a, 1.0, 0}, {&b, 1.0, 0}, {&c, 1e9, 0}});
  const ModelParameters m2 = CoordinateMedian().aggregate(
      ModelParameters{}, {{&c, 1e9, 0}, {&b, 1.0, 0}, {&a, 1.0, 0}});
  EXPECT_FLOAT_EQ(values_of(m1)[0], 2.0f);
  EXPECT_TRUE(bit_identical(m1, m2));
}

TEST(TrimmedMean, DropsTheTailsAndAveragesTheRest) {
  const ModelParameters a = make_params({-1000.0f});
  const ModelParameters b = make_params({1.0f});
  const ModelParameters c = make_params({2.0f});
  const ModelParameters d = make_params({3.0f});
  const ModelParameters e = make_params({1000.0f});
  // n = 5, trim 0.2 -> g = 1: both poisoned extremes are dropped.
  const ModelParameters m = TrimmedMean(0.2).aggregate(
      ModelParameters{}, {{&a, 1.0, 0},
                          {&b, 1.0, 0},
                          {&c, 1.0, 0},
                          {&d, 1.0, 0},
                          {&e, 1.0, 0}});
  EXPECT_FLOAT_EQ(values_of(m)[0], 2.0f);
}

TEST(TrimmedMean, ZeroFractionIsThePlainUnweightedMean) {
  const ModelParameters a = make_params({1.0f});
  const ModelParameters b = make_params({5.0f});
  const ModelParameters m = TrimmedMean(0.0).aggregate(
      ModelParameters{}, {{&a, 1.0, 0}, {&b, 1.0, 0}});
  EXPECT_FLOAT_EQ(values_of(m)[0], 3.0f);
}

TEST(TrimmedMean, ConstructorRejectsBadFractions) {
  EXPECT_THROW(TrimmedMean(-0.1), std::invalid_argument);
  EXPECT_THROW(TrimmedMean(0.5), std::invalid_argument);
  EXPECT_THROW(TrimmedMean(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_NO_THROW(TrimmedMean(0.49));
}

TEST(NormClippedMean, ClipsEachDeltaToTheNormBudget) {
  const ModelParameters current = make_params({0.0f, 0.0f});
  // Honest delta of norm 1, poisoned delta of norm 100.
  const ModelParameters honest = make_params({1.0f, 0.0f});
  const ModelParameters poisoned = make_params({0.0f, 100.0f});
  const ModelParameters m = NormClippedMean(1.0).aggregate(
      current, {{&honest, 1.0, 0}, {&poisoned, 1.0, 0}});
  // Both deltas end up with norm <= 1; equal weights halve them.
  EXPECT_NEAR(values_of(m)[0], 0.5f, 1e-6);
  EXPECT_NEAR(values_of(m)[1], 0.5f, 1e-6);  // 100 clipped down to 1
}

TEST(NormClippedMean, ConstructorAndEmptyCurrentAreRejected) {
  EXPECT_THROW(NormClippedMean(0.0), std::invalid_argument);
  EXPECT_THROW(NormClippedMean(-1.0), std::invalid_argument);
  EXPECT_THROW(NormClippedMean(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  const ModelParameters u = make_params({1.0f});
  try {
    NormClippedMean(1.0).aggregate(ModelParameters{}, {{&u, 1.0, 0}});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("current"), std::string::npos)
        << e.what();
  }
}

// --- guards ----------------------------------------------------------

TEST(AggregationGuards, EveryRuleRefusesAnEmptyCohort) {
  for (const std::string& name : AggregationRegistry::global().names()) {
    const auto rule = AggregationRegistry::global().create(name);
    try {
      rule->aggregate(make_params({1.0f}), {});
      FAIL() << name << ": expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("empty cohort"), std::string::npos)
          << name << ": " << e.what();
    }
  }
}

TEST(AggregationGuards, NaNUpdateFailsLoudlyNamingTheClient) {
  const ModelParameters good = make_params({1.0f});
  const ModelParameters bad =
      make_params({std::numeric_limits<float>::quiet_NaN()});
  for (const std::string& name : AggregationRegistry::global().names()) {
    const auto rule = AggregationRegistry::global().create(name);
    try {
      rule->aggregate(make_params({0.0f}),
                      {{&good, 1.0, 0, 3}, {&bad, 1.0, 0, 7}});
      FAIL() << name << ": expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("client 7"), std::string::npos)
          << name << ": " << what;
      EXPECT_NE(what.find("non-finite"), std::string::npos)
          << name << ": " << what;
    }
  }
}

TEST(AggregationGuards, InfUpdateAndUnlabeledInputsAlsoFail) {
  const ModelParameters inf =
      make_params({std::numeric_limits<float>::infinity()});
  try {
    WeightedAverage().aggregate(ModelParameters{}, {{&inf, 1.0, 0}});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    // Unlabeled input: the error names the cohort position instead.
    EXPECT_NE(std::string(e.what()).find("cohort update #0"),
              std::string::npos)
        << e.what();
  }
}

TEST(AggregationGuards, AccumulatorsLabelClientsFromTheCohort) {
  const std::vector<ModelParameters> updates = {
      make_params({1.0f}),
      make_params({std::numeric_limits<float>::quiet_NaN()})};
  const std::vector<double> weights = {1.0, 1.0};
  const std::vector<int> cohort = {4, 42};
  const WeightedAverage rule;
  const ModelParameters none;
  // Buffered rounds validate in finish(), native ones at fold time;
  // both name the sender the round folded in.
  BufferingAccumulator buffered(rule, none);
  const std::unique_ptr<StreamingAccumulator> native = rule.accumulator(none);
  for (StreamingAccumulator* acc :
       std::vector<StreamingAccumulator*>{&buffered, native.get()}) {
    try {
      for (std::size_t i = 0; i < updates.size(); ++i) {
        acc->fold(updates[i], weights[i], 0, cohort[i]);
      }
      acc->finish();
      FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("client 42"), std::string::npos)
          << e.what();
    }
  }
}

// --- registry --------------------------------------------------------

TEST(AggregationRegistryTest, BuiltinsRoundTripByName) {
  auto& registry = AggregationRegistry::global();
  const std::vector<std::string> expected = {
      "coordinate_median", "krum", "multi_krum", "norm_clipped_mean",
      "staleness_mix", "trimmed_mean", "weighted_average"};
  EXPECT_EQ(registry.names(), expected);  // names() is sorted

  AggregationConfig config;
  for (const std::string& name : expected) {
    EXPECT_TRUE(registry.contains(name));
    config.rule = name;
    const auto rule = make_aggregation_rule(config);
    ASSERT_NE(rule, nullptr);
    EXPECT_EQ(rule->name(), name);
    EXPECT_EQ(rule->folds_into_current(), name == "staleness_mix");
  }
}

TEST(AggregationRegistryTest, ConfigKnobsReachTheFactories) {
  AggregationConfig config;
  config.rule = "trimmed_mean";
  config.trim_fraction = 0.25;
  const auto trimmed = make_aggregation_rule(config);
  EXPECT_DOUBLE_EQ(
      static_cast<const TrimmedMean&>(*trimmed).trim_fraction(), 0.25);
  config.rule = "norm_clipped_mean";
  config.clip_norm = 3.5;
  const auto clipped = make_aggregation_rule(config);
  EXPECT_DOUBLE_EQ(
      static_cast<const NormClippedMean&>(*clipped).clip_norm(), 3.5);
}

TEST(AggregationRegistryTest, UnknownNameListsWhatIsRegistered) {
  try {
    AggregationRegistry::global().create("bulyan");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown rule 'bulyan'"), std::string::npos) << what;
    EXPECT_NE(what.find("coordinate_median"), std::string::npos) << what;
  }
  EXPECT_THROW(make_aggregation_rule(AggregationConfig{}),
               std::invalid_argument);  // empty name
}

TEST(AggregationRegistryTest, DuplicateAndEmptyRegistrationsAreRejected) {
  auto& registry = AggregationRegistry::global();
  EXPECT_THROW(registry.add("weighted_average",
                            [](const AggregationConfig&) {
                              return std::make_unique<WeightedAverage>();
                            }),
               std::invalid_argument);
  EXPECT_THROW(registry.add("", [](const AggregationConfig&) {
                 return std::make_unique<WeightedAverage>();
               }),
               std::invalid_argument);
  EXPECT_THROW(registry.add("null_rule", AggregationRegistry::Factory{}),
               std::invalid_argument);
}

// --- Byzantine behaviors --------------------------------------------

TEST(Attacks, SignFlipAndScaledTransformTheDeltaExactly) {
  const ModelParameters reference = make_params({1.0f, 2.0f});
  const ModelParameters update = make_params({2.0f, 4.0f});  // delta {1, 2}

  AttackSpec flip;
  flip.kind = AttackKind::kSignFlip;
  flip.scale = 3.0;
  const ModelParameters flipped =
      apply_attack(flip, update, reference, /*client=*/0, /*nonce=*/0);
  EXPECT_FLOAT_EQ(values_of(flipped)[0], -2.0f);  // 1 - 3*1
  EXPECT_FLOAT_EQ(values_of(flipped)[1], -4.0f);  // 2 - 3*2

  AttackSpec scaled;
  scaled.kind = AttackKind::kScaled;
  scaled.scale = 5.0;
  const ModelParameters magnified =
      apply_attack(scaled, update, reference, 0, 0);
  EXPECT_FLOAT_EQ(values_of(magnified)[0], 6.0f);   // 1 + 5*1
  EXPECT_FLOAT_EQ(values_of(magnified)[1], 12.0f);  // 2 + 5*2
}

TEST(Attacks, GaussianNoiseIsDeterministicPerClientAndNonce) {
  const ModelParameters reference = make_params({0.0f, 0.0f});
  const ModelParameters update = make_params({1.0f, 1.0f});
  AttackSpec noise;
  noise.kind = AttackKind::kGaussianNoise;
  noise.noise_stddev = 0.5;

  const ModelParameters a = apply_attack(noise, update, reference, 1, 2);
  const ModelParameters replay = apply_attack(noise, update, reference, 1, 2);
  const ModelParameters other_client =
      apply_attack(noise, update, reference, 2, 2);
  const ModelParameters other_nonce =
      apply_attack(noise, update, reference, 1, 3);
  EXPECT_TRUE(bit_identical(a, replay));
  EXPECT_FALSE(bit_identical(a, other_client));
  EXPECT_FALSE(bit_identical(a, other_nonce));
  EXPECT_FALSE(bit_identical(a, update));
}

TEST(Attacks, NoneIsIdentityAndBadSpecsAreRejected) {
  const ModelParameters reference = make_params({0.0f});
  const ModelParameters update = make_params({1.0f});
  EXPECT_TRUE(bit_identical(
      apply_attack(AttackSpec{}, update, reference, 0, 0), update));

  AttackSpec bad;
  bad.kind = AttackKind::kScaled;
  bad.scale = std::numeric_limits<double>::infinity();
  EXPECT_THROW(apply_attack(bad, update, reference, 0, 0),
               std::invalid_argument);
  bad.kind = AttackKind::kGaussianNoise;
  bad.scale = 1.0;
  bad.noise_stddev = -1.0;
  EXPECT_THROW(apply_attack(bad, update, reference, 0, 0),
               std::invalid_argument);
}

TEST(Attacks, AttackerScenarioSpreadsEvenlyAndValidates) {
  AttackSpec spec;
  spec.kind = AttackKind::kSignFlip;
  const SimConfig config = SimConfig::with_attackers(10, 2, spec);
  int count = 0;
  for (const ClientProfile& p : config.profiles) {
    if (p.attack.kind != AttackKind::kNone) ++count;
  }
  EXPECT_EQ(count, 2);
  EXPECT_EQ(config.profiles[0].attack.kind, AttackKind::kSignFlip);
  EXPECT_EQ(config.profiles[5].attack.kind, AttackKind::kSignFlip);
  SimConfig small = SimConfig::uniform(3);
  EXPECT_THROW(add_attackers(small, 4, spec), std::invalid_argument);
}

// --- end-to-end robustness ------------------------------------------

FLRunOptions tiny_options(int rounds) {
  FLRunOptions opts;
  opts.rounds = rounds;
  opts.client.steps = 4;
  opts.client.batch_size = 2;
  opts.client.learning_rate = 5e-3;
  opts.client.mu = 0.0;
  opts.seed = 7;
  return opts;
}

SyntheticWorldOptions nine_clients() {
  SyntheticWorldOptions options;
  options.num_clients = 9;
  return options;
}

// Final global model of a FedAvg run over 9 synthetic clients with
// `attackers` Byzantine members (f = attackers/9) under `rule`.
ModelParameters run_nine(const std::string& rule, std::size_t attackers,
                         const AttackSpec& attack) {
  SyntheticWorld w = make_synthetic_world(61, nine_clients());
  FLRunOptions opts = tiny_options(4);
  opts.aggregation.rule = rule;
  opts.aggregation.trim_fraction = 0.34;  // g = 3 of 9: covers f = 1/3
  opts.aggregation.clip_norm = 0.05;
  opts.sim = SimConfig::uniform(9);
  if (attackers > 0) add_attackers(opts.sim, attackers, attack);
  FedAvg algo;
  return algo.run(w.clients, w.factory, opts).front();
}

void expect_robust_rules_track_clean(const AttackSpec& attack) {
  const ModelParameters clean = run_nine("", 0, {});
  const double wa = run_nine("", 3, attack).squared_distance(clean);
  const double median =
      run_nine("coordinate_median", 3, attack).squared_distance(clean);
  const double trimmed =
      run_nine("trimmed_mean", 3, attack).squared_distance(clean);
  // 3 of 9 attackers: the rank-based rules stay near the attack-free
  // trajectory, the plain average is dragged far off it.
  EXPECT_LT(median, wa / 4.0) << to_string(attack.kind);
  EXPECT_LT(trimmed, wa / 4.0) << to_string(attack.kind);
}

TEST(ByzantineRuns, SignFlipBreaksWeightedAverageButNotRobustRules) {
  AttackSpec attack;
  attack.kind = AttackKind::kSignFlip;
  attack.scale = 10.0;
  expect_robust_rules_track_clean(attack);
}

TEST(ByzantineRuns, ScaledAttackBreaksWeightedAverageButNotRobustRules) {
  AttackSpec attack;
  attack.kind = AttackKind::kScaled;
  attack.scale = 50.0;
  expect_robust_rules_track_clean(attack);
}

TEST(ByzantineRuns, NoiseAttackBreaksWeightedAverageButNotRobustRules) {
  AttackSpec attack;
  attack.kind = AttackKind::kGaussianNoise;
  attack.noise_stddev = 5.0;
  expect_robust_rules_track_clean(attack);
}

TEST(ByzantineRuns, NormClippedMeanBoundsAScaledAttackersPull) {
  AttackSpec attack;
  attack.kind = AttackKind::kScaled;
  attack.scale = 50.0;
  const ModelParameters clean = run_nine("", 0, {});
  const double wa = run_nine("", 3, attack).squared_distance(clean);
  const double clipped =
      run_nine("norm_clipped_mean", 3, attack).squared_distance(clean);
  EXPECT_LT(clipped, wa / 4.0);
}

TEST(ByzantineRuns, AttackFreeRobustRulesAreDeterministicAcrossPools) {
  for (const std::string& rule :
       {std::string("coordinate_median"), std::string("trimmed_mean"),
        std::string("norm_clipped_mean")}) {
    std::vector<ModelParameters> finals;
    for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                std::size_t{8}}) {
      ThreadPool::reset_global(threads);
      finals.push_back(run_nine(rule, 0, {}));
    }
    ThreadPool::reset_global(0);
    EXPECT_TRUE(bit_identical(finals[0], finals[1])) << rule;
    EXPECT_TRUE(bit_identical(finals[0], finals[2])) << rule;
  }
}

TEST(ByzantineRuns, AttackedRunsAreDeterministicAcrossPools) {
  // The noise attack forks its own per-(client, nonce) streams, so
  // even a poisoned run replays bit-identically at any pool size.
  AttackSpec attack;
  attack.kind = AttackKind::kGaussianNoise;
  attack.noise_stddev = 1.0;
  std::vector<ModelParameters> finals;
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool::reset_global(threads);
    finals.push_back(run_nine("coordinate_median", 3, attack));
  }
  ThreadPool::reset_global(0);
  EXPECT_TRUE(bit_identical(finals[0], finals[1]));
}

TEST(ByzantineRuns, AsyncFedAvgSwapsItsRuleByName) {
  AttackSpec attack;
  attack.kind = AttackKind::kSignFlip;
  attack.scale = 10.0;
  auto run_async = [&](const std::string& rule, std::size_t attackers) {
    SyntheticWorld w = make_synthetic_world(62, nine_clients());
    FLRunOptions opts = tiny_options(6);
    opts.aggregation.rule = rule;
    opts.sim = SimConfig::uniform(9);
    if (attackers > 0) add_attackers(opts.sim, attackers, attack);
    AsyncConfig config;
    config.buffer_size = 3;
    AsyncFedAvg algo(config);
    return algo.run(w.clients, w.factory, opts).front();
  };
  const ModelParameters clean = run_async("", 0);
  const ModelParameters clean_median = run_async("coordinate_median", 0);
  const double wa = run_async("", 3).squared_distance(clean);
  const double median =
      run_async("coordinate_median", 3).squared_distance(clean);
  // The robust rule stays closer to the attack-free trajectory than
  // the default staleness mix under the same attack, and attack-free
  // runs under it stay finite and deterministic.
  EXPECT_LT(median, wa);
  EXPECT_TRUE(std::isfinite(clean_median.squared_l2_norm()));
  EXPECT_TRUE(bit_identical(clean_median, run_async("coordinate_median", 0)));
}

TEST(ByzantineRuns, SyncLoopsRejectDeltaMixingRules) {
  // staleness_mix treats its cohort as deltas; fed a sync barrier's
  // full-parameter updates it would compound the model geometrically,
  // so the sync path must refuse it up front.
  SyntheticWorld w = make_synthetic_world(63, nine_clients());
  FLRunOptions opts = tiny_options(1);
  opts.aggregation.rule = "staleness_mix";
  FedAvg algo;
  try {
    algo.run(w.clients, w.factory, opts);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("staleness_mix"), std::string::npos) << what;
    EXPECT_NE(what.find("AsyncFedAvg"), std::string::npos) << what;
  }
}

TEST(ByzantineRuns, AlphaSyncUsesTheRuleForItsPeerConsensus) {
  AttackSpec attack;
  attack.kind = AttackKind::kSignFlip;
  attack.scale = 10.0;
  auto run_alpha = [&](const std::string& rule, std::size_t attackers) {
    SyntheticWorld w = make_synthetic_world(64, nine_clients());
    FLRunOptions opts = tiny_options(3);
    opts.aggregation.rule = rule;
    opts.sim = SimConfig::uniform(9);
    if (attackers > 0) add_attackers(opts.sim, attackers, attack);
    AlphaPortionSync algo(0.5);
    return algo.run(w.clients, w.factory, opts);
  };
  const std::vector<ModelParameters> clean = run_alpha("", 0);
  const std::vector<ModelParameters> wa = run_alpha("", 3);
  const std::vector<ModelParameters> median = run_alpha("coordinate_median", 3);
  // The rule robustifies the (1 - alpha) PEER share, so the meaningful
  // metric is the honest members' personalized models (an attacker's
  // own model keeps its alpha share of poison under any rule).
  // Attackers sit at 0/3/6 (evenly spread over 9).
  double wa_dist = 0.0, median_dist = 0.0;
  for (std::size_t k = 0; k < clean.size(); ++k) {
    if (k % 3 == 0) continue;
    wa_dist += wa[k].squared_distance(clean[k]);
    median_dist += median[k].squared_distance(clean[k]);
  }
  EXPECT_LT(median_dist, wa_dist / 4.0);

  // A poisoned update hits alpha-sync's own finiteness guard too: an
  // attacker scaled to overflow float must fail loudly, not mix in.
  AttackSpec overflow;
  overflow.kind = AttackKind::kScaled;
  overflow.scale = 1e38;  // drives float parameters to Inf/NaN
  SyntheticWorld w = make_synthetic_world(64, nine_clients());
  FLRunOptions opts = tiny_options(2);
  opts.sim = SimConfig::with_attackers(9, 1, overflow);
  AlphaPortionSync algo(0.5);
  try {
    algo.run(w.clients, w.factory, opts);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos)
        << e.what();
  }
}

// --- participation guard (satellite) --------------------------------

TEST(UniformSampleGuard, NonPositiveSampleSizesAreRejected) {
  EXPECT_THROW(UniformSample(0), std::invalid_argument);
  EXPECT_THROW(UniformSample(-3), std::invalid_argument);
  ParticipationConfig config;
  config.kind = ParticipationKind::kUniformSample;
  config.sample_size = 0;
  EXPECT_THROW(make_participation_policy(config), std::invalid_argument);
  // >= num_clients still degenerates to documented full participation.
  UniformSample policy(10);
  ParticipationContext ctx;
  ctx.num_clients = 4;
  EXPECT_EQ(policy.select(ctx).size(), 4u);
}

}  // namespace
}  // namespace fleda
