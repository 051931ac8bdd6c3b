// Differential determinism harness: run every distributed algorithm under
// (a) permuted fiber wake orders and (b) seeded fault plans, and compare
// full run signatures — per-rank counters, totals, makespan, Eq. (2)
// energy, numerical error — against the fault-free round-robin baseline.
//
// What must hold, and why:
//  - Schedule permutation (no faults): the simulator is a dataflow machine
//    — each rank's op sequence is fixed and matching is FIFO per (src, tag)
//    flow — so *every* signature field must be bit-identical under any
//    legal wake order. Any difference is a real bug (hidden schedule
//    dependence), which is exactly what this harness exists to catch.
//  - Fault plans: the transport recovers (retry/dedup/resequence), so
//    results and per-rank flops stay bit-identical and numerical output is
//    unchanged; counters may only grow, and must be *exactly* equal for
//    plans that never retransmit (delay/reorder/pause inject time, not
//    traffic). Convergence is part of the contract: bounded retries, no
//    deadlock.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "algs/registry.hpp"
#include "chaos/fault_plan.hpp"
#include "core/costs.hpp"
#include "core/params.hpp"
#include "sim/counters.hpp"
#include "sim/machine.hpp"

namespace alge::chaos {

/// One concrete run: algorithm + requested machine size + problem seed.
/// The run uses the table entry's preset problem for size class `p`
/// (algs::Entry::preset; CAPS, for example, always runs on 7^k ranks), so
/// `p` is a size class, not a promise.
struct CaseSpec {
  std::string alg = "mm25d";  ///< an algs::all() name
  int p = 4;
  std::uint64_t problem_seed = 1;
  core::MachineParams params;
};

/// Chaos knobs for one run. Default = the fault-free round-robin baseline.
struct ChaosConfig {
  /// Nonzero: install a SchedulePermuter with this seed.
  std::uint64_t schedule_seed = 0;
  /// Non-inert: install plan.make_injector(fault_seed, αt).
  FaultPlan plan;
  std::uint64_t fault_seed = 1;
  /// kGhost: run storage-free payloads (sim/payload.hpp). Verification is
  /// off for ghost runs (there is no output); the cost signature must
  /// still be bit-identical to the full-data run.
  sim::DataMode data_mode = sim::DataMode::kFull;
  /// kFolded: collapse fold-congruent ranks onto class representatives
  /// (sim/fold.hpp; ghost mode only). The machine falls back to per-fiber
  /// execution when the algorithm has no fold map or faults are installed,
  /// so any ChaosConfig combination stays runnable.
  sim::ExecMode exec_mode = sim::ExecMode::kFibers;
};

/// Everything observable about a finished run. Compared field-for-field
/// (bitwise on doubles) by the harness.
struct RunSignature {
  std::vector<sim::RankCounters> ranks;
  sim::SimTotals totals;
  double makespan = 0.0;
  core::EnergyBreakdown energy;
  double max_abs_error = 0.0;  ///< vs the sequential reference
  FaultStats faults;           ///< what the injector actually injected

  /// Whether the machine actually ran folded (informational; never part of
  /// a signature comparison — a fallback run must still match bit for bit).
  bool fold_active = false;

  bool identical_to(const RunSignature& o) const;
  /// Bit-identity on everything the cost model observes — per-rank
  /// counters, totals, makespan, energy, injected faults — but not
  /// max_abs_error: ghost runs have no numerical output to compare.
  bool cost_identical_to(const RunSignature& o) const;
};

/// Run one case under the given chaos knobs (verification always on).
/// Throws sim::SimError on divergence (deadlock / retry exhaustion) — the
/// caller decides whether that is expected.
RunSignature run_case(const CaseSpec& spec, const ChaosConfig& chaos);

/// Knobs shared by the three sweeps below.
struct ExploreOptions {
  std::vector<std::string> algs = algs::names();
  std::vector<int> ps = {4, 8};
  /// Schedule and fault seeds per case (explore); fault seeds per
  /// (case, plan) for the pairwise sweeps.
  int seeds = 32;
  /// Bundled plan names to run; "none" is skipped (it is the baseline, and
  /// the pairwise sweeps always run a fault-free pairing).
  std::vector<std::string> plans = FaultPlan::bundled_names();
  std::uint64_t problem_seed = 1;
  bool verbose = false;
  std::ostream* out = nullptr;  ///< progress/failure stream (null = silent)
};

using DiffOptions = ExploreOptions;

struct DiffReport {
  int cases = 0;
  int schedule_runs = 0;
  int fault_runs = 0;
  int mismatches = 0;  ///< signature differences (determinism violations)
  int failures = 0;    ///< unexpected exceptions (deadlock, retry blowup)
  std::string summary;

  bool ok() const { return mismatches == 0 && failures == 0; }
};

/// The full sweep: for every (alg, p), establish the fault-free
/// round-robin baseline, then assert bit-identity under `seeds` schedule
/// permutations and bounded, convergent degradation under every plan.
DiffReport explore(const DiffOptions& opts);

/// Ghost-payload sweep defaults. Fewer seeds than DiffOptions: every
/// comparison is a *pair* of runs.
struct GhostDiffOptions : ExploreOptions {
  GhostDiffOptions() { seeds = 4; }
};

/// Folded-execution sweep defaults. The size classes include an odd
/// perfect square so Cannon (q >= 3) genuinely folds; faulted machines fall
/// back to fibers, so faulted pairs prove the fallback never perturbs the
/// signature.
struct FoldDiffOptions : ExploreOptions {
  FoldDiffOptions() {
    ps = {4, 9};
    seeds = 2;
  }
};

/// Outcome of a pairwise sweep.
struct GhostDiffReport {
  int cases = 0;
  int pairs = 0;       ///< run pairs compared
  int mismatches = 0;  ///< cost signatures that differed
  int failures = 0;    ///< unexpected exceptions in either mode
  std::string summary;

  bool ok() const { return mismatches == 0 && failures == 0; }
};

struct FoldDiffReport : GhostDiffReport {
  int folded_pairs = 0;  ///< pairs whose folded side actually folded
};

/// The ghost differential gate: for every (alg, p), run full-data and
/// ghost mode back to back — fault-free and under every plan × seed — and
/// assert the cost signatures (clocks, F/W/S, energy, injected faults) are
/// bit-identical. Any difference means ghost mode's cost schedule has
/// drifted from the real one. Pass GhostDiffOptions for its defaults.
GhostDiffReport ghost_explore(const ExploreOptions& opts);

/// The fold differential gate: for every (alg, p), run ghost mode per-fiber
/// and folded back to back — fault-free and under every plan × seed — and
/// assert the cost signatures (clocks, F/W/S, energy, injected faults) are
/// bit-identical. Any difference means class replay has drifted from the
/// per-fiber schedule; faulted pairs additionally prove the transparent
/// fiber fallback is exact. Pass FoldDiffOptions for its defaults.
FoldDiffReport fold_explore(const ExploreOptions& opts);

}  // namespace alge::chaos
