// Numeric answers to the Section-V optimization questions for ANY AlgModel
// (the paper gives closed forms for the n-body problem and notes that
// matmul/Strassen are "harder to obtain analytically" — this solver is how
// we answer them anyway).
//
// The feasible set is the paper's Figure-4 region:
//   1 ≤ p ≤ limits.p_available,
//   min_memory(n,p) ≤ M ≤ min(limits.M_cap, physically held memory),
// optionally intersected with a time / energy / power budget.
//
// The solve follows the paper's own structure (§V, Eqs. 10, 13, 16).
// Memory beyond max_useful_memory(n,p) never helps (same T, more δe·M·T), so
// only p in [max(1, p_min(M)), min(p_available, p_max(M))] is considered.
// There, at fixed M, F and W scale as 1/p, so
//   T = A/p + B·p   and   E = E0 + E2·p²,
// with B = E2 = 0 for the perfectly scaling models (E flat in p, T = T1/p)
// and B, E2 > 0 for LU, whose critical-path latency grows with p. Each
// budget cuts that p interval in closed form (V-B: p ≥ T1/Tmax, V-C: a
// condition on M alone, V-D: p ≤ Pmax·T1/E1, V-E: E1/T1 ≤ Pmax; LU's roots
// are quadratic, or a cubic's found by bisection), and the objective takes
// the smallest feasible p for energy, the one nearest √(A/B) for time. What
// remains is 1-D in log M: a log-spaced scan, golden section around every
// local minimum, and bisection at every edge of the feasible M set. FFT's p
// interval is the single point p = n/M, so there the solve is 1-D in p.
//
// For n-body, whenever the energy-optimal M0 lies inside the limits, V-A,
// V-B and V-C are answered from NBodyOptimum (nbody_opt.hpp), bit for bit.
#pragma once

#include "core/algmodel.hpp"

namespace alge::core {

struct OptLimits {
  double p_available = 1e15;  ///< largest machine we may use
  double M_cap = 1e18;        ///< physical memory per processor (words)
};

struct RunPoint {
  bool feasible = false;
  double p = 0.0;
  double M = 0.0;
  double T = 0.0;
  double E = 0.0;
  double total_power() const { return T > 0.0 ? E / T : 0.0; }
  double proc_power() const { return p > 0.0 ? total_power() / p : 0.0; }
};

class Optimizer {
 public:
  Optimizer(const AlgModel& model, double n, const MachineParams& mp);

  /// V-A: unconstrained minimum energy. Within the strong-scaling region E
  /// is independent of p; the returned point uses the *smallest* p that
  /// attains the optimum (ties broken toward fewer processors).
  RunPoint minimize_energy(const OptLimits& limits = {}) const;

  /// V-A: unconstrained minimum time (use every processor, all the memory
  /// that helps).
  RunPoint minimize_time(const OptLimits& limits = {}) const;

  /// V-B: min energy subject to T ≤ Tmax.
  RunPoint min_energy_given_time(double Tmax,
                                 const OptLimits& limits = {}) const;

  /// V-C: min time subject to E ≤ Emax.
  RunPoint min_time_given_energy(double Emax,
                                 const OptLimits& limits = {}) const;

  /// V-D: min time / min energy subject to total average power E/T ≤ Pmax.
  RunPoint min_time_given_total_power(double Pmax,
                                      const OptLimits& limits = {}) const;
  RunPoint min_energy_given_total_power(double Pmax,
                                        const OptLimits& limits = {}) const;

  /// V-E: min time / min energy subject to per-processor power ≤ Pmax.
  RunPoint min_time_given_proc_power(double Pmax,
                                     const OptLimits& limits = {}) const;
  RunPoint min_energy_given_proc_power(double Pmax,
                                       const OptLimits& limits = {}) const;

  /// Evaluate one candidate (p, M); infeasible if M is out of range.
  RunPoint evaluate(double p, double M) const;

  enum class Objective { kTime, kEnergy };
  enum class Budget { kNone, kTime, kEnergy, kTotalPower, kProcPower };
  /// One §V question: minimize `objective` subject to `budget` ≤ `limit`.
  struct Question {
    Objective objective = Objective::kEnergy;
    Budget budget = Budget::kNone;
    double limit = 0.0;
  };

  /// Whether `pt` meets q's budget, with the 1e-9 relative slack every
  /// answer is held to.
  static bool satisfies(const RunPoint& pt, const Question& q);

 private:
  RunPoint solve(const Question& q, const OptLimits& limits) const;
  /// n-body V-A..V-C from NBodyOptimum, or infeasible when q is not one of
  /// them or its closed-form point falls outside the limits.
  RunPoint nbody_closed_form(const Question& q,
                             const OptLimits& limits) const;

  const AlgModel& model_;
  double n_;
  MachineParams mp_;
};

}  // namespace alge::core
