// The generic Optimizer must reproduce the paper's closed-form n-body
// answers (Sections V-A..V-F), the corrected Eq. (19)/(20) bounds must
// agree with direct evaluation of the power expressions, and every §V
// answer must be at least as good as the brute-force grid oracle's.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/algmodel.hpp"
#include "core/closed_forms.hpp"
#include "core/codesign.hpp"
#include "core/nbody_opt.hpp"
#include "core/opt.hpp"
#include "opt_oracle.hpp"
#include "support/common.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace alge::core {
namespace {

MachineParams sample_params(Rng& rng) {
  MachineParams mp;
  mp.gamma_t = rng.uniform(1e-12, 1e-10);
  mp.beta_t = rng.uniform(1e-11, 1e-9);
  mp.alpha_t = rng.uniform(1e-8, 1e-6);
  mp.gamma_e = rng.uniform(1e-11, 1e-9);
  mp.beta_e = rng.uniform(1e-10, 1e-8);
  mp.alpha_e = rng.uniform(1e-8, 1e-6);
  mp.delta_e = rng.uniform(1e-10, 1e-8);
  mp.eps_e = rng.uniform(0.0, 1e-3);
  mp.max_msg_words = rng.uniform(256.0, 1e5);
  return mp;
}

class NBodySeeds : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
    mp_ = sample_params(rng);
    f_ = rng.uniform(4.0, 40.0);
    opt_ = std::make_unique<NBodyOptimum>(f_, mp_);
    // Choose n so M0 sits strictly inside [n/p, n/sqrt(p)] for reasonable p.
    n_ = opt_->M0() * rng.uniform(100.0, 1000.0);
  }
  MachineParams mp_;
  double f_ = 0.0;
  double n_ = 0.0;
  std::unique_ptr<NBodyOptimum> opt_;
};

TEST_P(NBodySeeds, OptimizerFindsClosedFormMinimumEnergy) {
  NBodyModel model(f_);
  Optimizer solver(model, n_, mp_);
  const RunPoint best = solver.minimize_energy();
  ASSERT_TRUE(best.feasible);
  // M0 is feasible here, so the answer is the closed form bit for bit.
  EXPECT_EQ(best.E, opt_->min_energy(n_));
  EXPECT_EQ(best.M, opt_->M0());
}

TEST_P(NBodySeeds, MinimumEnergyAttainableAcrossStatedPRange) {
  NBodyModel model(f_);
  const double M0 = opt_->M0();
  const double p_lo = opt_->min_energy_p_lo(n_);
  const double p_hi = opt_->min_energy_p_hi(n_);
  EXPECT_LT(p_lo, p_hi);
  for (double t : {0.0, 0.5, 1.0}) {
    const double p = p_lo * std::pow(p_hi / p_lo, t);
    EXPECT_LT(rel_diff(model.energy(n_, p, M0, mp_), opt_->min_energy(n_)),
              1e-9);
  }
}

TEST_P(NBodySeeds, TimeBoundBelowThresholdForcesSmallerMemory) {
  // Section V-B: a deadline tighter than the threshold forces a 2D run at
  // p_min_for_time; the closed form and the generic optimizer must agree.
  NBodyModel model(f_);
  const double threshold = opt_->time_threshold_for_optimum();
  const double Tmax = threshold / 10.0;
  const double p_need = opt_->p_min_for_time(n_, Tmax);
  // The quadratic solves T(p_need) == Tmax on the 2D line.
  const double t_check =
      closed::nbody_time(n_, p_need, n_ / std::sqrt(p_need), f_, mp_);
  EXPECT_LT(rel_diff(t_check, Tmax), 1e-9);

  Optimizer solver(model, n_, mp_);
  const RunPoint got = solver.min_energy_given_time(Tmax);
  ASSERT_TRUE(got.feasible);
  EXPECT_LE(got.T, Tmax * (1.0 + 1e-9));
  EXPECT_LT(rel_diff(got.E, opt_->min_energy_given_time(n_, Tmax)), 1e-9);
}

TEST_P(NBodySeeds, LooseTimeBoundRecoversGlobalOptimum) {
  const double threshold = opt_->time_threshold_for_optimum();
  EXPECT_LT(rel_diff(opt_->min_energy_given_time(n_, threshold * 10.0),
                     opt_->min_energy(n_)),
            1e-12);
}

TEST_P(NBodySeeds, EnergyBudgetClosedFormMatchesModel) {
  // Section V-C: at the returned p (2D limit), the energy equals the budget.
  const double Emax = opt_->min_energy(n_) * 1.5;
  const double p_star = opt_->max_p_given_energy(n_, Emax);
  const double e_check =
      closed::nbody_energy(n_, n_ / std::sqrt(p_star), f_, mp_);
  EXPECT_LT(rel_diff(e_check, Emax), 1e-8);
  // And the optimizer's best time under the budget matches the closed form
  // (give it a machine at least as large as the closed-form optimum).
  NBodyModel model(f_);
  Optimizer solver(model, n_, mp_);
  OptLimits lim;
  lim.p_available = p_star * 16.0;
  const RunPoint got = solver.min_time_given_energy(Emax, lim);
  ASSERT_TRUE(got.feasible);
  EXPECT_LT(rel_diff(got.T, opt_->min_time_given_energy(n_, Emax)), 5e-3);
}

TEST_P(NBodySeeds, InfeasibleEnergyBudgetThrows) {
  EXPECT_THROW(opt_->max_p_given_energy(n_, opt_->min_energy(n_) * 0.5),
               invalid_argument_error);
}

TEST_P(NBodySeeds, Eq19TotalPowerBoundIsTight) {
  const double M = opt_->M0() * 2.0;
  const double Ptot = 1234.5;
  const double p_star = opt_->max_p_given_total_power(Ptot, M);
  // p_star processors at memory M draw exactly Ptot on average.
  EXPECT_LT(rel_diff(p_star * opt_->proc_power(M), Ptot), 1e-12);
}

TEST_P(NBodySeeds, Eq20ProcPowerBoundIsTight) {
  // The corrected Eq. (20) root must satisfy proc_power(M) == Pmax, and
  // power must be below the cap just inside the root.
  const double M0 = opt_->M0();
  const double Pmax = opt_->proc_power(M0) * 1.7;
  const double M_hi = opt_->max_M_given_proc_power(Pmax);
  ASSERT_GT(M_hi, 0.0);
  EXPECT_LT(rel_diff(opt_->proc_power(M_hi), Pmax), 1e-6);
  EXPECT_LT(opt_->proc_power(M_hi * 0.999), Pmax);
  EXPECT_GT(opt_->proc_power(M_hi * 1.001), Pmax);
}

TEST_P(NBodySeeds, ProcPowerAtM0RangeAllowsGlobalOptimum) {
  // If Pmax admits M0, min-energy is attainable within the power bound
  // (Section V-E discussion).
  const double M0 = opt_->M0();
  const double Pmax = opt_->proc_power(M0) * 1.01;
  EXPECT_GE(opt_->max_M_given_proc_power(Pmax), M0 * 0.999);
}

TEST_P(NBodySeeds, GflopsPerWattIsScaleFree) {
  const double a = opt_->flops_per_joule_at_optimum();
  for (double n : {1e4, 1e6, 1e8}) {
    EXPECT_LT(rel_diff(a, f_ * n * n / opt_->min_energy(n)), 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NBodySeeds, ::testing::Range(0, 12));

TEST(OptimizerMatmul, MinTimeUsesWholeMachineAndAllUsefulMemory) {
  ClassicalMatmulModel model;
  MachineParams mp = MachineParams::unit();
  Optimizer solver(model, 4096.0, mp);
  OptLimits lim;
  lim.p_available = 4096.0;
  lim.M_cap = 1e12;
  const RunPoint best = solver.minimize_time(lim);
  ASSERT_TRUE(best.feasible);
  EXPECT_LT(rel_diff(best.p, lim.p_available), 1e-6);
  EXPECT_LT(rel_diff(best.M, model.max_useful_memory(4096.0, best.p)), 1e-6);
}

TEST(OptimizerMatmul, MemoryCapRestrictsSmallP) {
  // With a per-processor memory cap the problem only fits at p >= n^2/M_cap.
  ClassicalMatmulModel model;
  MachineParams mp = MachineParams::unit();
  const double n = 4096.0;
  Optimizer solver(model, n, mp);
  OptLimits lim;
  lim.M_cap = n * n / 256.0;  // forces p >= 256
  const RunPoint best = solver.minimize_energy(lim);
  ASSERT_TRUE(best.feasible);
  EXPECT_GE(best.p, 255.0);
}

TEST(OptimizerMatmul, InfeasibleWhenMachineTooSmall) {
  ClassicalMatmulModel model;
  MachineParams mp = MachineParams::unit();
  Optimizer solver(model, 1e6, mp);
  OptLimits lim;
  lim.p_available = 4.0;
  lim.M_cap = 1000.0;  // 1e12 words of data will never fit
  const RunPoint best = solver.minimize_energy(lim);
  EXPECT_FALSE(best.feasible);
}

TEST(OptimizerMatmul, EnergyOptimumPrefersSmallestP) {
  // Inside the scaling range E is flat in p; the solver must report the
  // smallest p attaining the optimum.
  ClassicalMatmulModel model;
  MachineParams mp = MachineParams::unit();
  mp.delta_e = 1e-6;  // cheap memory: optimum M is the replication limit
  const double n = 4096.0;
  Optimizer solver(model, n, mp);
  const RunPoint best = solver.minimize_energy();
  ASSERT_TRUE(best.feasible);
  // With the optimum at memory M*, no p below p_min(n, M*) can hold it.
  EXPECT_LT(best.p, model.p_min(n, best.M) * 1.05);
}

TEST(OptimizerGeneric, EvaluateRejectsUnderfullMemory) {
  ClassicalMatmulModel model;
  Optimizer solver(model, 1024.0, MachineParams::unit());
  const RunPoint pt = solver.evaluate(4.0, /*M=*/16.0);
  EXPECT_FALSE(pt.feasible);
}

TEST(OptimizerGeneric, TotalPowerBoundCapsProcessors) {
  NBodyModel model(16.0);
  MachineParams mp = MachineParams::unit();
  mp.max_msg_words = 1e6;
  const double n = 1e5;
  Optimizer solver(model, n, mp);
  NBodyOptimum closed_opt(16.0, mp);
  const double M_ref = closed_opt.M0();
  const double Ptot = closed_opt.proc_power(M_ref) * (n / M_ref) * 4.0;
  const RunPoint fast = solver.min_time_given_total_power(Ptot);
  ASSERT_TRUE(fast.feasible);
  EXPECT_LE(fast.total_power(), Ptot * 1.01);
  // Unconstrained min-time draws more power than the bound allows.
  const RunPoint unbounded = solver.minimize_time();
  EXPECT_GT(unbounded.total_power(), Ptot);
  EXPECT_TRUE(std::isfinite(fast.T));
  EXPECT_GE(fast.T, unbounded.T);
}

// --- The structured solve against the grid oracle ---

double log_uniform(Rng& rng, double lo, double hi) {
  return std::exp(rng.uniform(std::log(lo), std::log(hi)));
}

RunPoint ask(const Optimizer& s, const Optimizer::Question& q,
             const OptLimits& lim) {
  using B = Optimizer::Budget;
  const bool time_obj = q.objective == Optimizer::Objective::kTime;
  switch (q.budget) {
    case B::kNone:
      return time_obj ? s.minimize_time(lim) : s.minimize_energy(lim);
    case B::kTime: return s.min_energy_given_time(q.limit, lim);
    case B::kEnergy: return s.min_time_given_energy(q.limit, lim);
    case B::kTotalPower:
      return time_obj ? s.min_time_given_total_power(q.limit, lim)
                      : s.min_energy_given_total_power(q.limit, lim);
    case B::kProcPower:
      return time_obj ? s.min_time_given_proc_power(q.limit, lim)
                      : s.min_energy_given_proc_power(q.limit, lim);
  }
  return {};
}

class OptimizerOracle : public ::testing::TestWithParam<int> {};

TEST_P(OptimizerOracle, EveryAnswerFeasibleAndAtLeastAsGoodAsTheGrid) {
  using O = Optimizer::Objective;
  using B = Optimizer::Budget;
  constexpr const char* kModels[] = {"nbody",    "classical-mm", "strassen",
                                     "lu-2.5d",  "fft-naive",    "fft-tree"};
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 17);
  for (int draw = 0; draw < 10; ++draw) {
    const std::string name = kModels[rng.next_below(6)];
    const double f = rng.uniform(4.0, 40.0);
    const double omega0 = rng.uniform(2.3, 3.0);
    const auto model = make_model(name, f, omega0);
    const MachineParams mp = sample_params(rng);
    const bool vector_like = name == "nbody" || name.starts_with("fft");
    const double n = vector_like ? log_uniform(rng, 1e4, 1e9)
                                 : log_uniform(rng, 1e2, 1e5);
    OptLimits lim;
    if (rng.next_double() < 0.5) lim.p_available = log_uniform(rng, 1.0, 1e9);
    if (rng.next_double() < 0.5) {
      // Sometimes too small to fit at all.
      lim.M_cap = model->min_memory(n, lim.p_available) *
                  log_uniform(rng, 0.5, 1e4);
    }
    const Optimizer solver(*model, n, mp);
    const RunPoint e_opt = solver.minimize_energy(lim);
    const RunPoint t_opt = solver.minimize_time(lim);
    // Budgets scattered between and just beyond the two unconstrained
    // optima: some bind, some are slack, some are unattainable, and some
    // hug an optimum so closely that the feasible M set is a sliver.
    const auto around = [&](double a, double b) {
      if (!(a > 0.0 && b > 0.0)) return 1.0;
      if (rng.next_double() < 0.2) return a * (1.0 + rng.uniform(-1e-7, 1e-7));
      const double t = rng.uniform(-0.25, 1.25);
      return std::exp(std::log(a) * (1.0 - t) + std::log(b) * t);
    };
    const Optimizer::Question questions[] = {
        {O::kEnergy, B::kNone, 0.0},
        {O::kTime, B::kNone, 0.0},
        {O::kEnergy, B::kTime, around(e_opt.T, t_opt.T)},
        {O::kTime, B::kEnergy, around(e_opt.E, t_opt.E)},
        {O::kTime, B::kTotalPower,
         around(e_opt.total_power(), t_opt.total_power())},
        {O::kEnergy, B::kTotalPower,
         around(e_opt.total_power(), t_opt.total_power())},
        {O::kTime, B::kProcPower,
         around(e_opt.proc_power(), t_opt.proc_power())},
        {O::kEnergy, B::kProcPower,
         around(e_opt.proc_power(), t_opt.proc_power())},
    };
    for (int k = 0; k < 8; ++k) {
      const Optimizer::Question& q = questions[k];
      SCOPED_TRACE(strfmt("draw %d %s n=%.17g p_avail=%.17g M_cap=%.17g "
                          "question %d limit=%.17g",
                          draw, name.c_str(), n, lim.p_available, lim.M_cap,
                          k, q.limit));
      const RunPoint got = ask(solver, q, lim);
      // The grid accepts points up to 1e-9 over a budget. Where the
      // objective is steep in the budget (V-C near E*), that slack alone
      // buys far more than 1e-9, so the oracle gets the budget without it:
      // both then answer the same question.
      Optimizer::Question strict = q;
      strict.limit = q.limit / (1.0 + 1e-9);
      const RunPoint want = oracle::grid_search(*model, n, mp, strict, lim);
      if (want.feasible) {
        EXPECT_TRUE(got.feasible) << "the grid found " << want.p << ", "
                                  << want.M;
      }
      if (!got.feasible) continue;
      EXPECT_GE(got.p, 1.0);
      EXPECT_LE(got.p, lim.p_available * (1.0 + 1e-12));
      EXPECT_LE(got.M, lim.M_cap);
      EXPECT_GE(got.M, model->min_memory(n, got.p) * (1.0 - 1e-9));
      EXPECT_TRUE(Optimizer::satisfies(got, q));
      const RunPoint re = solver.evaluate(got.p, got.M);
      ASSERT_TRUE(re.feasible);
      EXPECT_LT(rel_diff(re.T, got.T), 1e-12);
      EXPECT_LT(rel_diff(re.E, got.E), 1e-12);
      if (want.feasible) {
        const bool time_obj = q.objective == O::kTime;
        EXPECT_LE(time_obj ? got.T : got.E,
                  (time_obj ? want.T : want.E) * (1.0 + 1e-9))
            << "grid " << want.p << ", " << want.M << " vs " << got.p
            << ", " << got.M;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerOracle, ::testing::Range(0, 16));

TEST(Codesign, ScaleSpecOnlyTouchesSelectedParams) {
  MachineParams mp = MachineParams::unit();
  const MachineParams scaled =
      scale_energy_params(mp, ParamScaleSpec::only_beta_e(), 0.25);
  EXPECT_DOUBLE_EQ(scaled.beta_e, 0.25);
  EXPECT_DOUBLE_EQ(scaled.gamma_e, 1.0);
  EXPECT_DOUBLE_EQ(scaled.delta_e, 1.0);
  EXPECT_DOUBLE_EQ(scaled.beta_t, 1.0);
}

TEST(Codesign, JointScalingDominatesSingleParameter) {
  // Figure 6 vs Figure 7: halving everything is at least as good as halving
  // any one parameter, strictly better after a few generations.
  ClassicalMatmulModel model;
  MachineParams mp = MachineParams::unit();
  mp.max_msg_words = 1e6;
  const double n = 4096.0;
  const double p = 64.0;
  const double M = model.min_memory(n, p) * 2.0;
  const auto joint = efficiency_vs_generation(model, n, p, M, mp,
                                              ParamScaleSpec::all(), 6);
  const auto gamma_only = efficiency_vs_generation(
      model, n, p, M, mp, ParamScaleSpec::only_gamma_e(), 6);
  ASSERT_EQ(joint.size(), 7u);
  EXPECT_DOUBLE_EQ(joint[0].gflops_per_watt, gamma_only[0].gflops_per_watt);
  for (std::size_t g = 1; g < joint.size(); ++g) {
    EXPECT_GE(joint[g].gflops_per_watt, gamma_only[g].gflops_per_watt);
  }
  // Joint scaling improves by exactly 2x per generation (energy halves).
  EXPECT_LT(rel_diff(joint[3].gflops_per_watt,
                     8.0 * joint[0].gflops_per_watt),
            1e-9);
  // Single-parameter scaling saturates.
  EXPECT_LT(gamma_only[6].gflops_per_watt,
            8.0 * gamma_only[0].gflops_per_watt);
}

TEST(Codesign, GenerationsToTargetFindsCrossing) {
  ClassicalMatmulModel model;
  MachineParams mp = MachineParams::unit();
  mp.max_msg_words = 1e6;
  const double n = 4096.0;
  const double p = 64.0;
  const double M = model.min_memory(n, p) * 2.0;
  const double base = gflops_per_watt(model, n, p, M, mp);
  const int g = generations_to_target(model, n, p, M, mp,
                                      ParamScaleSpec::all(), base * 10.0, 20);
  EXPECT_EQ(g, 4);  // 2^4 = 16 >= 10
  EXPECT_EQ(generations_to_target(model, n, p, M, mp,
                                  ParamScaleSpec::only_beta_e(), base * 1e6,
                                  20),
            -1);
}

}  // namespace
}  // namespace alge::core
