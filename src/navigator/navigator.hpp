// Robustness-aware Pareto navigator: map the whole energy/time frontier of
// a workload on a machine family, then ask the question the paper could
// not — how much of it survives faults?
//
// The §V optimizer answers single-point questions (min E, min T, bounded
// variants). The navigator composes everything the repo has grown since:
//
//   1. closed forms to PRUNE: the analytic AlgModel (Eqs. 1/2 over the
//      Section-IV cost expressions) scores a log-grid over the
//      (p, M, m) space in microseconds per point, seeded with the exact
//      §V core::Optimizer answers so the frontier endpoints reproduce the
//      paper's optima bit-for-bit;
//   2. ghost/folded engine runs to SCORE survivors: executable candidates
//      — (q, c) grid shapes, replication counts, message caps, collective
//      implementations (tree vs ring broadcast, direct vs Bruck
//      all-to-all, Cannon vs SUMMA) — whose closed-form score lands near
//      the model frontier are simulated through engine::SweepRunner in
//      ghost mode (folded where a fold map exists) against the shared
//      result cache;
//   3. chaos to RE-SCORE: every measured frontier point is re-run under
//      seeded fault plans (1% drop / delay / reorder by default) and the
//      points that stay Pareto-optimal under every plan are reported as
//      the *robust* optima, together with where the Fig. 6/7 crossover
//      (75 GFLOPS/W by default) moves when serving energy inflates by the
//      measured fault overhead.
//
// Self-validation is built in (validate()): no reported point may beat
// the core/bounds communication lower bound, every reported point must be
// undominated, the perfect-strong-scaling region edges must equal the
// closed-form p_min/p_max bit-exactly, and the frontier's min-energy /
// min-time endpoints must equal the §V optimizer answers bit-exactly.
// tools/navigator exits nonzero when any of this fails, which is what the
// navigator-smoke CI gate runs.
//
// Everything here is deterministic: no wall clocks, no RNG beyond the
// request's chaos seed, and engine results are bit-identical across
// thread counts — so two navigate() calls with the same request produce
// byte-identical report JSON (property-tested, TSan included).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/algmodel.hpp"
#include "core/opt.hpp"
#include "core/params.hpp"
#include "engine/job.hpp"
#include "support/json.hpp"

namespace alge::navigator {

/// Optional run budgets (the §V-B..E constraint axes). Candidates that
/// violate a budget are discarded before they can reach the frontier.
struct Budgets {
  std::optional<double> t_max;
  std::optional<double> e_max;
  std::optional<double> total_power_max;
  std::optional<double> proc_power_max;

  bool any() const {
    return t_max || e_max || total_power_max || proc_power_max;
  }
};

struct NavRequest {
  // --- workload ---
  std::string model = core::NBodyModel().name();  ///< core::make_model name
  double f = 1.0;               ///< nbody flops per interaction
  double omega0 = core::StrassenModel::kStrassenOmega;
  double n = 1e7;               ///< analytic problem size

  // --- machine family + budgets ---
  core::MachineParams params;   ///< base machine parameters
  core::OptLimits limits;       ///< p_available, M_cap
  Budgets budgets;

  // --- analytic grid resolution ---
  int p_samples = 48;  ///< log-grid samples in p
  int m_samples = 24;  ///< log-grid samples in M per p
  /// Message-size caps (the m axis). The machine's own cap is always
  /// swept; entries here add alternatives (words).
  std::vector<double> msg_caps;

  // --- sim stage (ghost/folded engine scoring of survivors) ---
  bool simulate = false;
  int sim_n = 0;        ///< executable problem size (0 = algs::Entry::sim_n)
  int sim_points = 8;   ///< survivors kept after closed-form pruning
  /// Bundled chaos::FaultPlan names used for the robustness re-score.
  std::vector<std::string> fault_plans = {"drop1", "delay1", "reorder1"};
  std::uint64_t chaos_seed = 1;
  std::string cache_dir;  ///< shared engine result cache ("" = in-memory)
  int threads = 1;

  // --- crossover analysis (Figs. 6/7) ---
  double crossover_target_gflops_per_watt = 75.0;
  int crossover_max_generations = 40;
};

/// One point of the analytic (closed-form) frontier.
struct ModelPoint {
  double p = 0.0;
  double M = 0.0;
  double m = 0.0;  ///< message cap in effect
  double T = 0.0;
  double E = 0.0;
  double words = 0.0;        ///< model W per processor
  double words_bound = 0.0;  ///< core/bounds floor at (n, p, M)
  /// Provenance: "optimizer:<question>" for §V-seeded points, "grid"
  /// for log-grid samples. Seeded points carry the optimizer's exact
  /// doubles, which is what makes the endpoint reproduction bit-exact.
  std::string source;
};

/// Fault re-score of one measured frontier point under one plan.
struct SimRescore {
  std::string plan;
  double makespan = 0.0;
  double energy = 0.0;
  bool still_pareto = false;  ///< undominated among faulted frontier scores
};

/// One executable (engine-scored) frontier point.
struct SimPoint {
  engine::ExperimentSpec spec;  ///< exact spec the engine ran (ghost mode)
  std::string label;            ///< e.g. "mm25d q=8 c=2"
  std::string topology;         ///< grid shape, e.g. "8x8x2"
  std::string impl;             ///< collective impl, e.g. "bcast-ring"
  int p = 0;
  double M_words = 0.0;  ///< measured per-rank memory high-water
  double model_T = 0.0;  ///< closed-form prune score
  double model_E = 0.0;
  double makespan = 0.0;  ///< measured (ghost engine)
  double energy = 0.0;
  double words_per_rank = 0.0;
  double words_bound = 0.0;  ///< 0 = bound not applicable to this alg
  /// Fold execution slots of the scoring run: the fiber count when the
  /// engine folded this point, 0 when it ran one fiber per rank.
  int fold_slots = 0;
  std::vector<SimRescore> rescored;
  bool robust = false;  ///< Pareto-optimal under every requested plan
};

struct NavReport {
  // Echo of the request essentials (everything a reader needs to
  // reproduce the report; deliberately no timestamps).
  std::string model;
  double n = 0.0;

  /// Analytic Pareto frontier, sorted by T ascending (so E descends).
  std::vector<ModelPoint> model_frontier;
  /// The §V answers the frontier endpoints must reproduce bit-exactly.
  core::RunPoint min_energy;
  core::RunPoint min_time;
  /// Perfect-strong-scaling region at the min-energy memory: p_min/p_max
  /// are the closed forms of Section III evaluated at (n, scaling_M).
  double scaling_M = 0.0;
  double scaling_p_min = 0.0;
  double scaling_p_max = 0.0;

  /// Measured (engine-scored) Pareto frontier, sorted by makespan.
  std::vector<SimPoint> measured_frontier;

  // Search statistics.
  int grid_candidates = 0;   ///< analytic points evaluated
  int sim_candidates = 0;    ///< executable configs enumerated
  int sim_pruned = 0;        ///< discarded by the closed-form prune
  int simulated = 0;         ///< engine runs for clean scoring
  int rescore_runs = 0;      ///< engine runs for fault re-scoring
  int cache_hits = 0;        ///< engine result-cache hits, both stages
  // Fold coverage of the clean scoring stage: how many scored survivors
  // took the folded fast path vs one fiber per rank. Folded + fiber =
  // scored survivors (bench/navigator_sweep tracks the split).
  int folded_scored = 0;
  int fiber_scored = 0;

  // Headline metrics (bench/navigator_sweep tracks these).
  double frontier_area = 0.0;           ///< normalized staircase area (lower
                                        ///< = frontier hugs the ideal corner)
  double measured_frontier_area = 0.0;  ///< same, over the measured frontier
  int robust_points = 0;
  double robust_fraction = 1.0;  ///< robust / measured frontier points
  /// Worst measured energy inflation E_faulted/E_clean at the min-energy
  /// measured point, over all plans (1.0 without simulation).
  double fault_energy_inflation = 1.0;
  double crossover_target = 75.0;         ///< GFLOPS/W
  double gflops_per_watt_at_opt = 0.0;    ///< at the min-energy point, gen 0
  int crossover_generations = -1;         ///< Fig. 6/7 halvings to target
  int crossover_generations_faulted = -1; ///< same, energy inflated by faults

  json::Value to_json() const;
};

/// Map the frontier. Deterministic in the request (thread count changes
/// wall-clock only); throws invalid_argument_error on bad requests.
NavReport navigate(const NavRequest& req);

/// Re-derive every self-validation claim from the report (see the header
/// comment). Returns ok=false with one message per violated claim.
struct ValidationResult {
  bool ok = true;
  std::vector<std::string> failures;
};
ValidationResult validate(const NavReport& report, const NavRequest& req);

}  // namespace alge::navigator
