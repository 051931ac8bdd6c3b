// Property tests: the paper's closed-form optima (Sections IV-V, Eqs.
// 15-20 and the matmul/Strassen limits) against direct numeric
// optimization — dense log-grid scans, bisection, and the generic
// Optimizer — under randomized machine parameters. test_model.cpp pins
// the closed forms to the AlgModel *evaluation*; these tests pin the
// closed-form *optima* to brute force, so a transcription error in either
// the formula or its derivative shows up as a grid point beating the
// "optimum".
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "core/algmodel.hpp"
#include "core/closed_forms.hpp"
#include "core/nbody_opt.hpp"
#include "core/opt.hpp"
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

/// argmin of `f` over a logarithmic grid on [lo, hi].
template <typename F>
double grid_argmin(F f, double lo, double hi, int steps) {
  double best_x = lo;
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i <= steps; ++i) {
    const double x = lo * std::pow(hi / lo, double(i) / steps);
    const double v = f(x);
    if (v < best) {
      best = v;
      best_x = x;
    }
  }
  return best_x;
}

class ClosedFormSeeds : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 11);
    mp_ = sample_params(rng);
    f_ = rng.uniform(4.0, 40.0);
    opt_ = std::make_unique<NBodyOptimum>(f_, mp_);
    // n large enough that M0 sits strictly inside the feasible memory
    // range for a wide band of p.
    n_ = opt_->M0() * rng.uniform(100.0, 1000.0);
    rng_ = std::make_unique<Rng>(rng.next_u64());
  }
  MachineParams mp_;
  double f_ = 0.0;
  double n_ = 0.0;
  std::unique_ptr<NBodyOptimum> opt_;
  std::unique_ptr<Rng> rng_;
};

// --- Eq. (16)/(18): the energy curve's grid minimum is M0 ---

TEST_P(ClosedFormSeeds, NBodyEnergyGridMinimumIsM0) {
  const double M0 = closed::nbody_M0(f_, mp_);
  const double Estar = closed::nbody_min_energy(n_, f_, mp_);
  // Eq. (18) is Eq. (16) evaluated at M0.
  EXPECT_LT(rel_diff(closed::nbody_energy(n_, M0, f_, mp_), Estar), 1e-12);
  // No grid point over four decades around M0 beats the closed form.
  double grid_min = std::numeric_limits<double>::infinity();
  const double bestM = grid_argmin(
      [&](double M) {
        const double e = closed::nbody_energy(n_, M, f_, mp_);
        grid_min = std::min(grid_min, e);
        return e;
      },
      M0 / 100.0, M0 * 100.0, 4000);
  EXPECT_GE(grid_min, Estar * (1.0 - 1e-9));
  EXPECT_LT(rel_diff(bestM, M0), 0.01);
}

TEST_P(ClosedFormSeeds, OptimizerEnergyOptimumLandsInClosedFormPRange) {
  NBodyModel model(f_);
  Optimizer solver(model, n_, mp_);
  const RunPoint best = solver.minimize_energy();
  ASSERT_TRUE(best.feasible);
  EXPECT_EQ(best.E, opt_->min_energy(n_));
  // The attainable-p interval n/M0 <= p <= (n/M0)^2 must contain the
  // solver's choice: its left end, the fewest processors.
  EXPECT_EQ(best.p, opt_->min_energy_p_lo(n_));
  EXPECT_LE(best.p, opt_->min_energy_p_hi(n_));
}

// --- Eq. (15): minimum time uses the whole machine and the 2D limit ---

TEST_P(ClosedFormSeeds, MinTimeMatchesClosedFormAtFullMachine) {
  const double p_avail = rng_->uniform(1e3, 1e6);
  NBodyModel model(f_);
  Optimizer solver(model, n_, mp_);
  OptLimits limits;
  limits.p_available = p_avail;
  const RunPoint fastest = solver.minimize_time(limits);
  ASSERT_TRUE(fastest.feasible);
  const double closed_t = opt_->min_time(n_, p_avail);
  EXPECT_EQ(fastest.T, closed_t);
  // Eq. (15) evaluated at (p_avail, M = n/sqrt(p)) reproduces it exactly.
  EXPECT_LT(rel_diff(closed::nbody_time(n_, p_avail, n_ / std::sqrt(p_avail),
                                        f_, mp_),
                     closed_t),
            1e-12);
}

// --- Eq. (19): total-power bound ---

TEST_P(ClosedFormSeeds, Eq19AgreesWithDirectPowerEvaluation) {
  const double M = opt_->M0() * rng_->uniform(0.2, 5.0);
  // proc power = E / (p T); E is p-free and p·T is exactly p-free for the
  // n-body forms, so any p inside the data-fit range works as the probe.
  const double p_probe = n_ / M * 2.0;
  const double direct = closed::nbody_energy(n_, M, f_, mp_) /
                        (p_probe * closed::nbody_time(n_, p_probe, M, f_, mp_));
  EXPECT_LT(rel_diff(opt_->proc_power(M), direct), 1e-9);
  // Eq. (19): the bound is exactly budget / per-proc power, so running at
  // the bound consumes the whole budget.
  const double budget = direct * rng_->uniform(2.0, 100.0);
  const double p_max = opt_->max_p_given_total_power(budget, M);
  EXPECT_LT(rel_diff(p_max * direct, budget), 1e-9);
}

// --- Eq. (20): per-processor power bound ---

TEST_P(ClosedFormSeeds, Eq20BoundSitsOnThePowerCurve) {
  // proc_power(M) is convex (a + b/M + c·M): find its grid argmin, pick a
  // target on the increasing branch, and ask Eq. (20) to recover it from
  // the power value alone.
  const double M0 = opt_->M0();
  const double M_minpow = grid_argmin(
      [&](double M) { return opt_->proc_power(M); }, M0 / 100.0, M0 * 100.0,
      4000);
  const double M_target = M_minpow * rng_->uniform(3.0, 30.0);
  const double budget = opt_->proc_power(M_target);
  const double M_max = opt_->max_M_given_proc_power(budget);
  EXPECT_LT(rel_diff(M_max, M_target), 1e-6);
  // Boundary is tight: slightly more memory violates the budget, slightly
  // less (still on the increasing branch) satisfies it.
  EXPECT_GT(opt_->proc_power(M_max * 1.01), budget);
  EXPECT_LE(opt_->proc_power(M_max * 0.99), budget);
}

// --- V-B: deadline closed form vs bisection on the 2D line ---

TEST_P(ClosedFormSeeds, DeadlinePMatchesBisection) {
  const double Tmax =
      opt_->time_threshold_for_optimum() / rng_->uniform(2.0, 20.0);
  const double p_closed = opt_->p_min_for_time(n_, Tmax);
  // T on the 2D line M = n/sqrt(p) is strictly decreasing in p: bisect.
  const auto time_2d = [&](double p) {
    return closed::nbody_time(n_, p, n_ / std::sqrt(p), f_, mp_);
  };
  double lo = 1.0;
  double hi = 1.0;
  while (time_2d(hi) > Tmax) hi *= 2.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = std::sqrt(lo * hi);
    (time_2d(mid) > Tmax ? lo : hi) = mid;
  }
  EXPECT_LT(rel_diff(p_closed, hi), 1e-6);
  // And the resulting energy is what min_energy_given_time reports.
  const double e_closed = opt_->min_energy_given_time(n_, Tmax);
  const double e_direct =
      closed::nbody_energy(n_, n_ / std::sqrt(p_closed), f_, mp_);
  EXPECT_LT(rel_diff(e_closed, e_direct), 1e-9);
}

// --- Matmul / Strassen limit forms ---

TEST_P(ClosedFormSeeds, MatmulEnergyGridMinimumMatchesOptimizer) {
  const double n = rng_->uniform(1e3, 1e5);
  // Eq. (10) is p-free: brute-force its minimum over M directly...
  double grid_min = std::numeric_limits<double>::infinity();
  grid_argmin(
      [&](double M) {
        const double e = closed::mm25d_energy(n, M, mp_);
        grid_min = std::min(grid_min, e);
        return e;
      },
      8.0, n * n, 6000);
  // ...and ask the generic solver for the same optimum through the model.
  ClassicalMatmulModel model;
  Optimizer solver(model, n, mp_);
  const RunPoint best = solver.minimize_energy();
  ASSERT_TRUE(best.feasible);
  // At least as good as the brute force, and no better than rounding.
  EXPECT_LE(best.E, grid_min * (1.0 + 1e-12));
  EXPECT_LT(rel_diff(best.E, grid_min), 1e-5);
}

TEST_P(ClosedFormSeeds, LimitFormsAgreeAtTheirMemoryCaps) {
  const double n = rng_->uniform(1e3, 1e5);
  const double p = rng_->uniform(8.0, 4096.0);
  // Eq. (11) is Eq. (10) at the 3D replication limit M = n²/p^(2/3).
  EXPECT_LT(rel_diff(closed::mm3d_energy(n, p, mp_),
                     closed::mm25d_energy(
                         n, n * n / std::pow(p, 2.0 / 3.0), mp_)),
            1e-12);
  // Eq. (14) is Eq. (13) at M = n²/p^(2/ω0).
  const double w0 = StrassenModel::kStrassenOmega;
  EXPECT_LT(rel_diff(closed::strassen_energy_unlimited(n, p, w0, mp_),
                     closed::strassen_energy(
                         n, n * n / std::pow(p, 2.0 / w0), w0, mp_)),
            1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClosedFormSeeds, ::testing::Range(0, 16));

}  // namespace
}  // namespace alge::core
