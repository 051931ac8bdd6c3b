// Brute-force oracle for core::Optimizer: a logarithmic grid over (p, M)
// with iterative zoom — 5 rounds × 96 p × 64 M model evaluations per
// question. It knows nothing of the strong-scaling structure the optimizer
// exploits, so the property tests hold the structured answers against it:
// every answer at least as good, infeasible only where the grid is too.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/algmodel.hpp"
#include "core/opt.hpp"

namespace alge::core::oracle {

namespace detail {
constexpr int kRounds = 5;      // zoom iterations
constexpr int kPSamples = 96;   // log-grid points in p per round
constexpr int kMSamples = 64;   // log-grid points in M per round
// Improvements smaller than this are treated as ties (and ties go to the
// run with fewer processors): the energy objective is exactly flat in p
// inside the strong-scaling region, so the argmin in p is otherwise grid
// noise.
constexpr double kImproveTol = 1.0 - 1e-9;

/// Log-spaced samples including both endpoints.
inline void log_grid(double lo, double hi, int count,
                     std::vector<double>& out) {
  out.clear();
  if (lo > hi) return;
  if (lo == hi || count <= 1) {
    out.push_back(lo);
    return;
  }
  const double llo = std::log(lo);
  const double lhi = std::log(hi);
  for (int i = 0; i < count; ++i) {
    const double t = static_cast<double>(i) / (count - 1);
    out.push_back(std::exp(llo + t * (lhi - llo)));
  }
}
}  // namespace detail

/// The grid answer to question q for `model` at size n on machine mp.
inline RunPoint grid_search(const AlgModel& model, double n,
                            const MachineParams& mp,
                            const Optimizer::Question& q,
                            const OptLimits& limits = {}) {
  using namespace detail;
  const Optimizer solver(model, n, mp);
  // Smallest p whose minimum footprint fits under the memory cap. All our
  // models have min_memory monotone non-increasing in p, so bisect.
  double p_lo = 1.0;
  const double p_hi = limits.p_available;
  if (model.min_memory(n, p_hi) > limits.M_cap) return RunPoint{};
  if (model.min_memory(n, p_lo) > limits.M_cap) {
    double bad = p_lo;
    double good = p_hi;
    for (int i = 0; i < 200 && good / bad > 1.0 + 1e-12; ++i) {
      const double mid = std::sqrt(bad * good);
      (model.min_memory(n, mid) > limits.M_cap ? bad : good) = mid;
    }
    p_lo = good;
  }
  const bool time_obj = q.objective == Optimizer::Objective::kTime;

  RunPoint best;
  double obj_best = std::numeric_limits<double>::infinity();
  double zoom_p_lo = p_lo;
  double zoom_p_hi = p_hi;
  std::vector<double> ps;
  std::vector<double> ms;
  for (int round = 0; round < kRounds; ++round) {
    log_grid(zoom_p_lo, zoom_p_hi, kPSamples, ps);
    RunPoint round_best;
    double round_obj = std::numeric_limits<double>::infinity();
    for (double p : ps) {
      const double m_lo = model.min_memory(n, p);
      const double m_hi = std::min(
          limits.M_cap, std::max(m_lo, model.max_useful_memory(n, p)));
      log_grid(m_lo, m_hi, kMSamples, ms);
      for (double M : ms) {
        const RunPoint pt = solver.evaluate(p, M);
        if (!Optimizer::satisfies(pt, q)) continue;
        const double v = time_obj ? pt.T : pt.E;
        const bool better = v < round_obj * kImproveTol;
        const bool tie = !better && round_best.feasible &&
                         v <= round_obj * (1.0 + 1e-9) && pt.p < round_best.p;
        if (better || tie) {
          round_obj = std::min(v, round_obj);
          round_best = pt;
        }
      }
    }
    if (!round_best.feasible) break;
    const bool better = round_obj < obj_best * kImproveTol;
    const bool tie = !better && best.feasible &&
                     round_obj <= obj_best * (1.0 + 1e-9) &&
                     round_best.p < best.p;
    if (better || tie || !best.feasible) {
      best = round_best;
      obj_best = std::min(round_obj, obj_best);
    }
    // Zoom the p window around the incumbent (keep within the full range).
    const double span = std::pow(zoom_p_hi / zoom_p_lo, 1.0 / 6.0);
    zoom_p_lo = std::max(p_lo, best.p / span);
    zoom_p_hi = std::min(p_hi, best.p * span);
  }

  if (best.feasible && !time_obj) {
    // Energy is flat in p across the strong-scaling region: slide left to
    // the smallest p that can still hold M. (Not std::clamp: a grid p can
    // sit an ulp under p_lo, and clamp's bounds must be ordered.)
    const double want = best.p * model.min_memory(n, best.p) / best.M;
    const double p_slide =
        want < p_lo ? p_lo : (best.p < want ? best.p : want);
    const RunPoint slid = solver.evaluate(p_slide, best.M);
    if (Optimizer::satisfies(slid, q) && slid.E <= best.E * (1.0 + 1e-9)) {
      best = slid;
    }
  }
  return best;
}

}  // namespace alge::core::oracle
