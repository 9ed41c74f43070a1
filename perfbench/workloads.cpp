// fleda_perfbench: one benchmark workload in one process.
//
//   fleda_perfbench --workload paper_flnet|fleet_k20k
//                   --seed N --seconds S --cache DIR [--probe] [--traced]
//
// Drives the library through its public API only (Experiment,
// AlgorithmRegistry / FedAvg::run, Client, the tensor and nn entry
// points) and prints, as its last stdout line, one JSON object with the
// workload's end-to-end figures, its correctness checks and -- with
// --traced -- the per-layer figures read from the obs profiler plus
// single-thread kernel and layer rows. --probe (both processes of a
// traced benchmark run) sets up and evaluates once instead of
// repeating those steps for a steady median. run.py turns that into the
// benchmark's result line; see README.md for what every figure means.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/codec.hpp"
#include "core/experiment.hpp"
#include "data/serialization.hpp"
#include "fl/fedavg.hpp"
#include "fl/registry.hpp"
#include "fl/synthetic.hpp"
#include "models/registry.hpp"
#include "nn/conv2d.hpp"
#include "nn/conv_transpose2d.hpp"
#include "obs/profiler.hpp"
#include "phys/features.hpp"
#include "tensor/im2col.hpp"
#include "tensor/matmul.hpp"
#include "tensor/plan.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace fleda;

// ------------------------------------------------------------ helpers

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// VmHWM of this process in MB (1e6 bytes; 0 without /proc).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / 1e6;
    }
  }
  return 0.0;
}

// Median wall milliseconds of `fn`, after one warm-up call, over at
// least `min_reps` calls and at least `min_total_s` of timed work.
double time_median_ms(const std::function<void()>& fn, int min_reps,
                      double min_total_s) {
  fn();
  std::vector<double> ms;
  double total_s = 0.0;
  while ((static_cast<int>(ms.size()) < min_reps || total_s < min_total_s) &&
         ms.size() < 2000) {
    StopWatch sw;
    fn();
    const double s = sw.seconds();
    ms.push_back(s * 1e3);
    total_s += s;
  }
  return median(ms);
}

bool all_finite(const ModelParameters& params) {
  for (const ParameterEntry& e : params.entries()) {
    const float* p = e.value.data();
    for (std::int64_t i = 0; i < e.value.numel(); ++i) {
      if (!std::isfinite(p[i])) return false;
    }
  }
  return true;
}

// Per-phase difference of two profiler reports (after - before).
std::map<std::string, PhaseReport> phase_delta(const ProfileReport& before,
                                               const ProfileReport& after) {
  std::map<std::string, PhaseReport> out;
  for (const PhaseReport& p : after.phases) {
    PhaseReport d = p;
    if (const PhaseReport* b = before.find(p.name)) {
      d.count -= b->count;
      d.total_ms -= b->total_ms;
      d.self_ms -= b->self_ms;
    }
    out[p.name] = d;
  }
  return out;
}

class JsonObject {
 public:
  void num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", std::isfinite(value) ? value : 0.0);
    add(key, buf);
  }
  void str(const std::string& key, const std::string& value) {
    add(key, "\"" + value + "\"");
  }
  void raw(const std::string& key, const std::string& json) { add(key, json); }
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  void add(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + value;
  }
  std::string body_;
};

// Benchmark-side spans (static names, as ProfileScope requires).
constexpr const char* kSpanSetup = "perfbench/setup";
constexpr const char* kSpanRun = "perfbench/run";
constexpr const char* kSpanEval = "perfbench/eval";
constexpr const char* kSpanLocalUpdate = "perfbench/local_update";
constexpr const char* kSpanGemm = "perfbench/tensor_gemm";
constexpr const char* kSpanIm2col = "perfbench/tensor_im2col";
constexpr const char* kSpanCol2im = "perfbench/tensor_col2im";
constexpr const char* kSpanConvFwd = "perfbench/nn_conv_fwd";
constexpr const char* kSpanConvBwd = "perfbench/nn_conv_bwd";

// ------------------------------------------------------------ workloads

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string cache_dir;
  bool probe = false;
  bool traced = false;
};

// Set-ups per run: at least kMinSetups and at least kMinSetupSeconds of
// them, so a second-scale set-up is sampled across the host's
// second-scale speed swings.
constexpr int kMinSetups = 3;
constexpr double kMinSetupSeconds = 4.0;
constexpr double kEvalSeconds = 2.0;  // evaluation passes per run, at least

struct WorkloadSpec {
  // Table-2 replica, else the synthetic fleet. Also where the
  // throughput figures come from. Paper: per round (on_round marks), the
  // median over every round but the first, which warms up model init,
  // scratch pools and kernel plans. Fleet: per run() call, the median
  // over the calls, since its on_round would copy K models a round.
  bool paper = true;
  std::size_t clients = 9;    // K
  int cohort = 9;             // C (participating clients per round)
  int steps = 10;             // S
  int batch = 8;
  // Rounds per run() call = max(min_rounds, round(--seconds /
  // (nominal_round_s * run_calls))): a fixed function of the argument,
  // so outputs never depend on host speed. The paper model needs two
  // rounds before the test AUC leaves the range of its random
  // initialization, plus the warm-up round.
  int min_rounds = 1;
  double nominal_round_s = 1.0;
  // Timed run() calls, each of the same rounds from the same start.
  int run_calls = 1;
  // Mean test ROC-AUC floor, recorded at the benchmark seed with margin
  // for the seed-to-seed spread.
  double auc_floor = 0.5;
};

WorkloadSpec spec_for(const std::string& name) {
  WorkloadSpec w;
  if (name == "paper_flnet") {
    w.min_rounds = 3;
    w.nominal_round_s = 7.5;
    w.auc_floor = 0.80;  // seed 1: 0.893
  } else if (name == "fleet_k20k") {
    w.paper = false;
    w.clients = 20'000;
    w.cohort = 256;
    w.steps = 2;
    w.batch = 2;
    w.nominal_round_s = 1.0;
    w.run_calls = 5;
    w.auc_floor = 0.65;  // seed 1: 0.720
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

struct CheckResult {
  std::string name;
  bool ok = false;
};

// Everything the run measured; metrics are derived from it at the end.
struct Measured {
  int rounds = 0;  // per run() call
  int calls = 0;
  std::vector<double> setup_s;
  double generate_s = 0.0;
  double load_s = 0.0;
  double fleet_build_s = 0.0;
  double run_wall_s = 0.0;      // all calls
  double samples_per_s = 0.0;   // median over calls
  double cpu_ms_per_sample = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double eval_s = 0.0;
  double final_auc = 0.0;
  double local_update_ms = 0.0;
  double peak_rss_mb = 0.0;
  ChannelStats comm;
  SimReport sim;
  std::map<std::string, PhaseReport> run_phases;
  std::vector<CheckResult> checks;
};

// The Table-2 replica's data: Experiment::prepare_data with no cache
// directory generates it cold through the phys flow.
ExperimentConfig paper_config(const Args& a) {
  ExperimentConfig cfg;
  cfg.model = ModelKind::kFLNet;
  cfg.scale = resolve_scale("quick");  // grid 32, quick placement fraction
  cfg.data_seed = 20220203 + a.seed;
  cfg.cache_dir = "";
  return cfg;
}

std::vector<Client> make_paper_clients(const Experiment& exp,
                                       const std::shared_ptr<ModelPool>& pool) {
  Rng rng(exp.config().train_seed);
  std::vector<Client> clients;
  clients.reserve(exp.data().size());
  for (const ClientDataset& ds : exp.data()) {
    clients.emplace_back(ds.client_id, &ds, pool,
                         rng.fork(static_cast<std::uint64_t>(ds.client_id)));
  }
  return clients;
}

// The 9 datasets the fleet shares (client k trains on k % 9). Each has
// 24 test samples rather than the default 3, so one evaluation pass is
// compute-bound, not bound by the pool's wake-up latency.
std::vector<ClientDataset> fleet_datasets(std::uint64_t seed) {
  constexpr int kTrainSamples = 6;
  constexpr int kTestSamples = 24;
  std::vector<ClientDataset> d;
  for (int i = 0; i < 9; ++i) {
    d.push_back(make_synthetic_client(
        i + 1, 0.35f + 0.04f * static_cast<float>(i), seed * 1000 + 17 + i,
        kTrainSamples, kTestSamples));
  }
  return d;
}

std::vector<Client> make_fleet_clients(const std::vector<ClientDataset>& data,
                                       std::size_t k_clients,
                                       const std::shared_ptr<ModelPool>& pool) {
  Rng rng(4242);
  std::vector<Client> clients;
  clients.reserve(k_clients);
  for (std::size_t k = 0; k < k_clients; ++k) {
    clients.emplace_back(static_cast<int>(k) + 1, &data[k % data.size()], pool,
                         rng.fork(k));
  }
  return clients;
}

// Times save + reload of `data` through the dataset serializer.
double time_load(const std::vector<ClientDataset>& data,
                 const std::string& dir) {
  save_all_clients(dir, data);
  StopWatch sw;
  const std::vector<ClientDataset> loaded =
      try_load_all_clients(dir, static_cast<int>(data.size()));
  const double s = sw.seconds();
  if (loaded.size() != data.size()) {
    throw std::runtime_error("dataset reload from " + dir + " failed");
  }
  return s;
}

void run_workload(const WorkloadSpec& w,
                  const Args& a, Measured& m) {
  m.calls = w.run_calls;
  m.rounds = std::max(w.min_rounds,
                      static_cast<int>(std::lround(
                          a.seconds / (w.nominal_round_s * w.run_calls))));
  const int min_setup_reps = a.probe ? 1 : kMinSetups;
  const double min_setup_s = a.probe ? 0.0 : kMinSetupSeconds;

  // ---- setup: data + fleet, repeated; the last repetition is used.
  std::unique_ptr<Experiment> exp;
  std::vector<ClientDataset> fleet_data;
  std::unique_ptr<ModelFactory> factory;
  std::shared_ptr<ModelPool> pool;
  std::vector<Client> clients;
  double setup_total = 0.0;
  while (static_cast<int>(m.setup_s.size()) < min_setup_reps ||
         (setup_total < min_setup_s && m.setup_s.size() < 500)) {
    clients.clear();
    exp.reset();
    pool.reset();
    StopWatch total;
    ProfileScope span(kSpanSetup);
    double data_s = 0.0;
    double build_s = 0.0;
    if (w.paper) {
      StopWatch sw;
      exp = std::make_unique<Experiment>(paper_config(a));
      exp->prepare_data();
      data_s = sw.seconds();
      sw.reset();
      factory = std::make_unique<ModelFactory>(
          make_model_factory(ModelKind::kFLNet, kNumFeatureChannels));
      pool = std::make_shared<ModelPool>(*factory);
      clients = make_paper_clients(*exp, pool);
      build_s = sw.seconds();
    } else {
      StopWatch sw;
      fleet_data = fleet_datasets(a.seed);
      data_s = sw.seconds();
      sw.reset();
      factory = std::make_unique<ModelFactory>(
          make_model_factory(ModelKind::kFLNet, 2));
      pool = std::make_shared<ModelPool>(*factory);
      clients = make_fleet_clients(fleet_data, w.clients, pool);
      build_s = sw.seconds();
    }
    m.setup_s.push_back(total.seconds());
    setup_total += m.setup_s.back();
    m.generate_s = data_s;
    m.fleet_build_s = build_s;
  }

  // ---- run
  FLRunOptions opts;
  opts.rounds = m.rounds;
  opts.seed = 99;
  std::unique_ptr<FederatedAlgorithm> algo;
  if (w.paper) {
    const PaperHyperParams hp;
    opts.client.steps = w.steps;
    opts.client.batch_size = w.batch;
    opts.client.learning_rate = hp.learning_rate;
    opts.client.l2_regularization = hp.l2_regularization;
    opts.client.mu = hp.fedprox_mu;
    opts.seed = exp->config().train_seed;
    algo = AlgorithmRegistry::global().create("fedprox", AlgorithmOptions{});
  } else {
    opts.client.steps = w.steps;
    opts.client.batch_size = w.batch;
    opts.client.learning_rate = 1e-3;
    opts.client.mu = 0.0;
    opts.participation.kind = ParticipationKind::kUniformSample;
    opts.participation.sample_size = w.cohort;
    opts.participation.seed = 31337;
    opts.aggregation.streaming = true;
    opts.sim = SimConfig::heterogeneous(w.clients, /*seed=*/5 + a.seed);
    algo = std::make_unique<FedAvg>();
  }
  const std::uint64_t updates_per_call = static_cast<std::uint64_t>(m.rounds) *
                                         static_cast<std::uint64_t>(w.cohort);
  const double samples_per_round =
      static_cast<double>(w.cohort) * w.steps * w.batch;

  // ---- evaluation: test ROC-AUC on the 9 distinct datasets (clients
  // 0..8 hold one each, in both kinds of workload), one design per pool
  // lane as the round loop trains them. Outside a probe the passes come
  // in blocks of at least kEvalSeconds / blocks, one after every round
  // or call, so their median samples the host across the whole run
  // rather than at its end; the last block scores the final models. A
  // probe evaluates them once.
  const int eval_blocks = w.paper ? m.rounds : m.calls;
  const double eval_block_s = a.probe ? 0.0 : kEvalSeconds / eval_blocks;
  std::vector<double> eval_s;
  double auc = 0.0;
  auto evaluate = [&](const std::vector<ModelParameters>& models) {
    double block_s = 0.0;
    do {
      StopWatch sw;
      ProfileScope span(kSpanEval);
      std::vector<double> design_auc(9);
      ThreadPool::global().parallel_for(
          design_auc.size(), [&](std::size_t begin, std::size_t end) {
            for (std::size_t k = begin; k < end; ++k) {
              design_auc[k] = clients[k].evaluate_test_auc(models[k]);
            }
          });
      eval_s.push_back(sw.seconds());
      block_s += eval_s.back();
      double sum = 0.0;
      for (double v : design_auc) sum += v;
      auc = sum / 9.0;
    } while (block_s < eval_block_s);
  };

  // ---- timing windows (wall and CPU): each round but the first
  // (paper), timed between on_round calls with the evaluation block
  // left out, or each whole call.
  std::vector<double> rate;
  std::vector<double> cpu_ms;
  const double samples_per_window =
      w.paper ? samples_per_round : samples_per_round * m.rounds;
  StopWatch clock;
  double window_wall_s = 0.0;
  double window_cpu_s = 0.0;
  auto open_window = [&] {
    window_wall_s = clock.seconds();
    window_cpu_s = cpu_seconds();
  };
  auto close_window = [&] {
    const double wall = clock.seconds() - window_wall_s;
    const double cpu = cpu_seconds() - window_cpu_s;
    rate.push_back(samples_per_window / wall);
    cpu_ms.push_back(cpu * 1e3 / samples_per_window);
    std::printf("window %zu: %.6g samples/s %.6g cpu ms/sample\n",
                rate.size(), rate.back(), cpu_ms.back());
  };
  if (w.paper) {
    opts.on_round = [&](int round,
                        const std::vector<ModelParameters>& deployed) {
      if (round > 0) close_window();
      if (!a.probe && round + 1 < m.rounds) evaluate(deployed);
      open_window();
    };
  }

  std::vector<ModelParameters> finals;
  bool run_ok = true;
  bool finite = true;
  bool billed_messages = true;
  bool billed_bytes = true;
  const ProfileReport before = Profiler::report();
  for (int call = 0; call < m.calls && run_ok; ++call) {
    m.attempted += updates_per_call;
    finals = {};  // release the previous call's K results first
    m.comm = ChannelStats{};
    opts.comm_stats = &m.comm;
    opts.sim_report = &m.sim;
    StopWatch call_clock;
    open_window();
    try {
      ProfileScope span(kSpanRun);
      finals = algo->run(clients, *factory, opts);
    } catch (const std::exception& e) {
      std::printf("run failed: %s\n", e.what());
      run_ok = false;
    }
    m.run_wall_s += call_clock.seconds();
    if (!run_ok || finals.size() != clients.size()) break;
    if (!w.paper) close_window();
    // Correctness of every call: finite parameters, billing conserved.
    for (const ModelParameters& p : finals) finite = finite && all_finite(p);
    const std::uint64_t model_bytes = raw_wire_bytes(finals.front());
    billed_messages = billed_messages &&
                      m.comm.uplink_messages == updates_per_call &&
                      m.comm.downlink_messages == updates_per_call;
    billed_bytes = billed_bytes &&
                   m.comm.uplink_bytes == updates_per_call * model_bytes &&
                   m.comm.downlink_bytes == updates_per_call * model_bytes;
    if (!a.probe && call + 1 < m.calls) evaluate(finals);
  }
  m.run_phases = phase_delta(before, Profiler::report());
  m.samples_per_s = median(rate);
  m.cpu_ms_per_sample = median(cpu_ms);
  m.checks.push_back({"run_completed", run_ok});
  const bool sized = run_ok && finals.size() == clients.size();
  m.checks.push_back({"one_final_model_per_client", sized});
  if (!sized) {
    m.peak_rss_mb = peak_rss_mb();
    return;
  }
  m.checks.push_back({"final_parameters_finite", finite});
  m.checks.push_back({"billing_messages", billed_messages});
  m.checks.push_back({"billing_bytes", billed_bytes});

  evaluate(finals);
  m.eval_s = median(eval_s);
  m.final_auc = auc;
  m.checks.push_back(
      {"final_auc_at_or_above_floor", std::isfinite(auc) && auc >= w.auc_floor});
  m.peak_rss_mb = peak_rss_mb();

  if (!a.traced) return;

  // ---- traced-only layer probes (after peak_rss_mb was read).
  // fl: a client's local update, timed from outside.
  {
    std::vector<double> ms;
    double total = 0.0;
    for (std::size_t i = 0; ms.size() < 3 || (total < 0.3 && ms.size() < 50);
         ++i) {
      Client& c = clients[i % 9];
      StopWatch sw;
      ProfileScope span(kSpanLocalUpdate);
      ModelParameters out = c.local_update(finals[i % 9], opts.client);
      ms.push_back(sw.millis());
      total += ms.back() * 1e-3;
    }
    m.local_update_ms = median(ms);
  }
  // data: the load stage, which neither workload's set-up runs.
  m.load_s = time_load(w.paper ? exp->data() : fleet_data,
                       a.cache_dir + "/trace_reload");
}

// ------------------------------------------------------------ kernel rows

// Conv layers of FLNet and RouteNet at grid 32 with the 6 feature
// channels (models/flnet.cpp, models/routenet.cpp). The parameter
// count of each model is checked against this table below.
struct ConvLayer {
  const char* name;
  ModelKind model;
  std::int64_t cin, cout, kernel, hw;
};
constexpr ConvLayer kConvLayers[] = {
    {"flnet_input_conv", ModelKind::kFLNet, 6, 64, 9, 32},
    {"flnet_output_conv", ModelKind::kFLNet, 64, 1, 9, 32},
    {"routenet_conv1", ModelKind::kRouteNet, 6, 32, 9, 32},
    {"routenet_conv2", ModelKind::kRouteNet, 32, 64, 7, 32},
    {"routenet_conv3", ModelKind::kRouteNet, 64, 32, 9, 16},
    {"routenet_conv4", ModelKind::kRouteNet, 32, 32, 7, 16},
    {"routenet_output_conv", ModelKind::kRouteNet, 32, 1, 5, 32},
};
// RouteNet's decoder: ConvTranspose2d 32->32, k4 s2 p1, 16x16 -> 32x32.
constexpr std::int64_t kDeconvChannels = 32;
constexpr std::int64_t kDeconvInHw = 16;
constexpr std::int64_t kTrainBatch = 8;

void fill_uniform(Tensor& t, Rng& rng) {
  float* p = t.data();
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    p[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
}

std::int64_t module_param_count(Module& m) {
  std::int64_t n = 0;
  for (Parameter* p : m.parameters()) n += p->value.numel();
  return n;
}

// Single-thread kernel and layer rows on the exact training shapes.
// Returns false when the layer table no longer matches the models.
bool kernel_rows(JsonObject& layer) {
  ThreadPool::reset_global(1);
  Rng rng(2024);
  std::map<ModelKind, std::int64_t> table_params;
  for (const ConvLayer& L : kConvLayers) {
    const std::string tag = L.name;
    ConvGeometry g;
    g.channels = L.cin;
    g.height = g.width = L.hw;
    g.kernel_h = g.kernel_w = L.kernel;
    g.pad_h = g.pad_w = (L.kernel - 1) / 2;
    const std::int64_t rows = g.col_rows();
    const std::int64_t ohw = g.col_cols();
    Tensor image(Shape::of(L.cin, L.hw, L.hw));
    Tensor cols(Shape::of(rows, ohw));
    Tensor weight(Shape::of(L.cout, rows));
    Tensor dy(Shape::of(L.cout, ohw));
    Tensor out(Shape::of(L.cout, ohw));
    Tensor dw(Shape::of(L.cout, rows));
    fill_uniform(image, rng);
    fill_uniform(weight, rng);
    fill_uniform(dy, rng);

    layer.num("tensor.im2col_1t_ms." + tag, time_median_ms([&] {
                ProfileScope s(kSpanIm2col);
                im2col(image.data(), g, cols.data());
              }, 5, 0.02));
    const double flops_fwd = 2.0 * L.cout * rows * ohw;
    auto gflops = [&](double ms) { return ms > 0 ? flops_fwd / ms * 1e-6 : 0; };
    layer.num("tensor.gemm_1t_gflops." + tag + ".fwd",
              gflops(time_median_ms([&] {
                ProfileScope s(kSpanGemm);
                matmul(weight.data(), cols.data(), out.data(), L.cout, rows,
                       ohw);
              }, 3, 0.03)));
    layer.num("tensor.gemm_1t_gflops." + tag + ".dw",
              gflops(time_median_ms([&] {
                ProfileScope s(kSpanGemm);
                matmul_bt(dy.data(), cols.data(), dw.data(), L.cout, ohw,
                          rows, /*accumulate=*/true);
              }, 3, 0.03)));
    layer.num("tensor.gemm_1t_gflops." + tag + ".dx",
              gflops(time_median_ms([&] {
                ProfileScope s(kSpanGemm);
                matmul_at(weight.data(), dy.data(), cols.data(), rows, L.cout,
                          ohw);
              }, 3, 0.03)));
    layer.num("tensor.col2im_1t_ms." + tag, time_median_ms([&] {
                ProfileScope s(kSpanCol2im);
                col2im(cols.data(), g, image.data());
              }, 5, 0.02));

    Conv2dOptions o;
    o.in_channels = L.cin;
    o.out_channels = L.cout;
    o.kernel = L.kernel;
    o.same_padding();
    Conv2d conv(tag, o, rng);
    table_params[L.model] += module_param_count(conv);
    Tensor x(Shape::of(kTrainBatch, L.cin, L.hw, L.hw));
    Tensor gy(Shape::of(kTrainBatch, L.cout, L.hw, L.hw));
    fill_uniform(x, rng);
    fill_uniform(gy, rng);
    layer.num("nn.conv_fwd_1t_ms." + tag, time_median_ms([&] {
                ProfileScope s(kSpanConvFwd);
                conv.forward(x, /*training=*/true);
              }, 3, 0.1));
    layer.num("nn.conv_bwd_1t_ms." + tag, time_median_ms([&] {
                ProfileScope s(kSpanConvBwd);
                conv.backward(gy);
              }, 3, 0.1));
  }
  {
    ConvTranspose2dOptions o;
    o.in_channels = o.out_channels = kDeconvChannels;
    o.kernel = 4;
    o.stride = 2;
    o.padding = 1;
    ConvTranspose2d deconv("routenet_deconv", o, rng);
    table_params[ModelKind::kRouteNet] += module_param_count(deconv);
    Tensor x(Shape::of(kTrainBatch, kDeconvChannels, kDeconvInHw, kDeconvInHw));
    const std::int64_t ohw = o.out_size(kDeconvInHw);
    Tensor gy(Shape::of(kTrainBatch, kDeconvChannels, ohw, ohw));
    fill_uniform(x, rng);
    fill_uniform(gy, rng);
    layer.num("nn.conv_fwd_1t_ms.routenet_deconv", time_median_ms([&] {
                ProfileScope s(kSpanConvFwd);
                deconv.forward(x, /*training=*/true);
              }, 3, 0.1));
    layer.num("nn.conv_bwd_1t_ms.routenet_deconv", time_median_ms([&] {
                ProfileScope s(kSpanConvBwd);
                deconv.backward(gy);
              }, 3, 0.1));
  }
  bool matches = true;
  for (ModelKind kind : {ModelKind::kFLNet, ModelKind::kRouteNet}) {
    Rng model_rng(1);
    RoutabilityModelPtr model = make_model(kind, kNumFeatureChannels, model_rng);
    matches = matches && module_param_count(*model) == table_params[kind];
  }
  return matches;
}

// ------------------------------------------------------------ report

double phase_total_ms(const std::map<std::string, PhaseReport>& ph,
                      const char* name) {
  auto it = ph.find(name);
  return it == ph.end() ? 0.0 : it->second.total_ms;
}

double phase_count(const std::map<std::string, PhaseReport>& ph,
                   const char* name) {
  auto it = ph.find(name);
  return it == ph.end() ? 0.0 : static_cast<double>(it->second.count);
}

double per(double num, double den) { return den > 0 ? num / den : 0.0; }

void print_self_times(const ProfileReport& report) {
  std::printf("%-28s %10s %12s %12s\n", "phase", "count", "total_ms",
              "self_ms");
  for (const PhaseReport& p : report.phases) {
    std::printf("%-28s %10llu %12.3f %12.3f\n", p.name.c_str(),
                static_cast<unsigned long long>(p.count), p.total_ms,
                p.self_ms);
  }
}

int run_main(const Args& a) {
  Profiler::set_enabled(a.traced);
  const WorkloadSpec w = spec_for(a.workload);
  Measured m;
  run_workload(w, a, m);

  const double threads = static_cast<double>(ThreadPool::global().size());
  // parallel_for runs chunks on the pool workers and on the calling
  // thread, so up to threads + 1 clients train at once.
  const double lanes = threads + 1.0;
  JsonObject layer;
  if (a.traced) {
    const auto& ph = m.run_phases;
    const double steps = phase_count(ph, phase::kTrainForward);
    // Profiler totals cover every call; comm and sim stats the last one.
    const double rounds = static_cast<double>(m.rounds) * m.calls;
    const double updates =
        static_cast<double>(m.comm.uplink_messages) * m.calls;
    layer.num("models.forward_ms_per_step",
              per(phase_total_ms(ph, phase::kTrainForward), steps));
    layer.num("models.backward_ms_per_step",
              per(phase_total_ms(ph, phase::kTrainBackward), steps));
    layer.num("models.optimizer_ms_per_step",
              per(phase_total_ms(ph, phase::kTrainOptimizer), steps));
    layer.num("models.pool_acquire_ms",
              per(phase_total_ms(ph, phase::kPoolAcquire),
                  phase_count(ph, phase::kPoolAcquire)));
    layer.num("tensor.kernel_pack_ms_per_step",
              per(phase_total_ms(ph, phase::kKernelPack), steps));
    layer.num("fl.local_update_ms", m.local_update_ms);
    layer.num("fl.aggregate_ms_per_round",
              per(phase_total_ms(ph, phase::kAggregate), rounds));
    double library_self_ms = 0.0;
    for (const auto& [name, p] : ph) {
      if (name.rfind("perfbench/", 0) != 0) library_self_ms += p.self_ms;
    }
    layer.num("fl.unattributed_s",
              m.run_wall_s - library_self_ms * 1e-3 / lanes);
    layer.num("comm.encode_ms_per_update",
              per(phase_total_ms(ph, phase::kCodecEncode), updates));
    layer.num("comm.decode_ms_per_update",
              per(phase_total_ms(ph, phase::kCodecDecode), updates));
    // Thread-summed aggregation + codec time as a share of the run wall:
    // an upper bound on what those layers can add to the round.
    layer.num("fl.agg_comm_share_pct",
              per(100.0 * (phase_total_ms(ph, phase::kAggregate) +
                           phase_total_ms(ph, phase::kCodecEncode) +
                           phase_total_ms(ph, phase::kCodecDecode)),
                  m.run_wall_s * 1e3));
    layer.num("comm.bytes_per_update",
              per(static_cast<double>(m.comm.uplink_bytes),
                  static_cast<double>(m.comm.uplink_messages)));
    layer.num("sim.events_per_round",
              per(static_cast<double>(m.sim.events_processed), m.rounds));
    auto dispatch = ph.find(phase::kEventDispatch);
    layer.num("sim.dispatch_ms_per_round",
              per(dispatch == ph.end() ? 0.0 : dispatch->second.self_ms,
                  rounds));
    layer.num("data.generate_s", m.generate_s);
    layer.num("data.load_s", m.load_s);
    layer.num("data.fleet_build_s", m.fleet_build_s);
    layer.num("metrics.eval_s", m.eval_s);
    const double train_ms = phase_total_ms(ph, phase::kTrainForward) +
                            phase_total_ms(ph, phase::kTrainBackward) +
                            phase_total_ms(ph, phase::kTrainOptimizer);
    layer.num("util.pool_busy_share",
              per(train_ms * 1e-3, m.run_wall_s * lanes));
    layer.num("fl.run_wall_s", m.run_wall_s);
    const bool table_ok = kernel_rows(layer);
    m.checks.push_back({"kernel_layer_table_matches_models", table_ok});
    print_self_times(Profiler::report());
  }

  std::string checks = "[";
  bool all_ok = true;
  for (std::size_t i = 0; i < m.checks.size(); ++i) {
    const CheckResult& c = m.checks[i];
    all_ok = all_ok && c.ok;
    checks += std::string(i ? "," : "") + "{\"name\":\"" + c.name +
              "\",\"ok\":" + (c.ok ? "true" : "false") + "}";
    std::printf("check %-36s %s\n", c.name.c_str(), c.ok ? "ok" : "FAILED");
  }
  checks += "]";
  // A failed check fails every update of the process.
  if (!all_ok) m.failed = m.attempted;

  JsonObject e2e;
  e2e.num("setup_s", median(m.setup_s));
  e2e.num("train_samples_per_s", m.samples_per_s);
  e2e.num("cpu_ms_per_sample", m.cpu_ms_per_sample);
  e2e.num("eval_s", m.eval_s);
  e2e.num("peak_rss_mb", m.peak_rss_mb);
  e2e.num("final_auc", m.final_auc);
  e2e.num("comm_mb_per_round",
          per(m.comm.total_mb(), static_cast<double>(m.rounds)));
  e2e.num("failed_update_share",
          per(static_cast<double>(m.failed), static_cast<double>(m.attempted)));

  JsonObject out;
  out.str("workload", a.workload);
  out.num("seed", static_cast<double>(a.seed));
  out.num("threads", threads);
  out.str("plan", plan_mode() == PlanMode::kReference ? "reference" : "auto");
  out.num("rounds", m.rounds);
  out.num("calls", m.calls);
  out.num("attempted", static_cast<double>(m.attempted));
  out.num("failed", static_cast<double>(m.failed));
  out.raw("checks", checks);
  out.raw("e2e", e2e.dump());
  out.raw("layer", layer.dump());
  std::printf("%s\n", out.dump().c_str());
  std::fflush(stdout);
  return all_ok ? 0 : 1;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(key + " needs a value");
      return argv[++i];
    };
    if (key == "--workload") {
      a.workload = value();
    } else if (key == "--seed") {
      a.seed = std::stoull(value());
    } else if (key == "--seconds") {
      a.seconds = std::stod(value());
    } else if (key == "--cache") {
      a.cache_dir = value();
    } else if (key == "--probe") {
      a.probe = true;
    } else if (key == "--traced") {
      a.traced = true;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.workload.empty() || a.cache_dir.empty()) {
    throw std::invalid_argument("--workload and --cache are required");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_main(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleda_perfbench: %s\n", e.what());
    return 2;
  }
}
