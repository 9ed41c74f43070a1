// Shared setup for the paper-table bench binaries: scale resolution
// (FLEDA_SCALE), dataset caching (FLEDA_CACHE_DIR, default
// .fleda-cache), run knobs that used to be programmatic-only
// (FLEDA_AGG_RULE — aggregation rule by registry name,
// FLEDA_MAX_IN_FLIGHT — the AsyncFedAvg dispatch gate,
// FLEDA_RESET_OPTIMIZER — 0 carries Adam moments across rounds), and
// the per-table run/report driver.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/paper_tables.hpp"
#include "obs/profiler.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"  // Timer alias for the standalone benches

namespace fleda::bench {

inline ExperimentConfig make_config(ModelKind model) {
  ExperimentConfig cfg;
  cfg.model = model;
  cfg.scale = scale_from_env();
  const char* cache = std::getenv("FLEDA_CACHE_DIR");
  cfg.cache_dir = cache != nullptr ? cache : ".fleda-cache";
  // Knobs that were programmatic-only before: every make_config-based
  // bench (tables, figures, ablations) can exercise the
  // robust-aggregation rules, the async dispatch gate, and persistent
  // optimizer moments straight from the environment. micro_sim builds
  // its own adversarial configurations and ignores these.
  if (const char* rule = std::getenv("FLEDA_AGG_RULE")) {
    cfg.aggregation.rule = rule;
  }
  if (const char* gate = std::getenv("FLEDA_MAX_IN_FLIGHT")) {
    cfg.async.max_in_flight = std::atoi(gate);
  }
  if (const char* reset = std::getenv("FLEDA_RESET_OPTIMIZER")) {
    cfg.reset_optimizer = std::atoi(reset) != 0;
  }
  // FLEDA_STREAMING=1 — fold rounds through the rules' native
  // streaming accumulators instead of buffering the cohort (see README
  // "Scaling"). Same result up to float reassociation, NOT
  // bit-identical to the buffered rounds.
  if (const char* streaming = std::getenv("FLEDA_STREAMING")) {
    cfg.aggregation.streaming = std::atoi(streaming) != 0;
  }
  // FLEDA_PARTICIPATION=kind[:C] — cohort policy by name ("full",
  // "uniform" / "uniform_sample", "availability" / "availability_aware",
  // "reputation" / "reputation_weighted", "importance" /
  // "importance_sample" / "importance_loss"), with an optional sample
  // size after a colon (e.g. "uniform:20"). The reputation policy
  // needs detector verdicts, so picking it also enables anomaly
  // detection (a pure observer — it changes no model math).
  // "importance_loss" scales each client's sample-count weight by its
  // last training loss (ParticipationConfig::loss_weighted).
  if (const char* participation = std::getenv("FLEDA_PARTICIPATION")) {
    std::string spec(participation);
    const std::size_t colon = spec.find(':');
    if (colon != std::string::npos) {
      cfg.participation.sample_size = std::atoi(spec.c_str() + colon + 1);
      spec.resize(colon);
    }
    if (spec == "full") {
      cfg.participation.kind = ParticipationKind::kFull;
    } else if (spec == "uniform" || spec == "uniform_sample") {
      cfg.participation.kind = ParticipationKind::kUniformSample;
    } else if (spec == "availability" || spec == "availability_aware") {
      cfg.participation.kind = ParticipationKind::kAvailabilityAware;
    } else if (spec == "reputation" || spec == "reputation_weighted") {
      cfg.participation.kind = ParticipationKind::kReputationWeighted;
      cfg.anomaly.enabled = true;
    } else if (spec == "importance" || spec == "importance_sample" ||
               spec == "importance_loss") {
      cfg.participation.kind = ParticipationKind::kImportanceSample;
      cfg.participation.loss_weighted = spec == "importance_loss";
    } else {
      FLEDA_LOG_ERROR("FLEDA_PARTICIPATION: unknown policy '%s' (expected "
                      "full|uniform|availability|reputation|importance[:C])",
                      spec.c_str());
      std::exit(2);
    }
  }
  // FLEDA_KRUM_F — assumed Byzantine count for the krum / multi_krum
  // rules (pair with FLEDA_AGG_RULE=krum or multi_krum).
  if (const char* krum_f = std::getenv("FLEDA_KRUM_F")) {
    cfg.aggregation.krum_f = std::atoi(krum_f);
  }
  return cfg;
}

// Where the run's time went, phase by phase (empty line-up when the
// profiler is off — FLEDA_PROFILE=0 skips the table entirely).
inline void print_profile_breakdown() {
  const ProfileReport report = Profiler::report();
  if (report.phases.empty()) return;
  std::printf("%-18s %10s %12s %12s\n", "phase", "count", "total_ms",
              "self_ms");
  for (const PhaseReport& p : report.phases) {
    std::printf("%-18s %10llu %12.1f %12.1f\n", p.name.c_str(),
                static_cast<unsigned long long>(p.count), p.total_ms,
                p.self_ms);
  }
}

// Runs all eight table rows for one model and prints the table in the
// paper layout, the headline-claims summary, and the per-phase time
// breakdown from the scoped profiler.
inline int run_accuracy_table(ModelKind model, const std::string& title) {
  ExperimentConfig cfg = make_config(model);
  std::printf("== %s ==\n", title.c_str());
  std::printf("scale=%s grid=%d rounds=%d steps=%d finetune=%d fraction=%.3f\n",
              cfg.scale.name.c_str(), cfg.scale.grid, cfg.scale.rounds,
              cfg.scale.steps_per_round, cfg.scale.finetune_steps,
              cfg.scale.placement_fraction);
  Profiler::reset();
  StopWatch total;
  std::vector<MethodResult> rows;
  {
    ProfileScope bench(phase::kBenchTotal);
    Experiment exp(cfg);
    exp.prepare_data();
    rows = exp.run_paper_table();
  }
  render_accuracy_table(title, rows).print();
  render_headline_summary(rows).print();
  render_comm_table(rows).print();
  print_profile_breakdown();
  std::printf("total time %.1fs\n\n", total.seconds());
  return 0;
}

}  // namespace fleda::bench
