#include "core/opt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/closed_forms.hpp"
#include "core/nbody_opt.hpp"
#include "support/common.hpp"

namespace alge::core {

namespace {
using Budget = Optimizer::Budget;
using Objective = Optimizer::Objective;

constexpr double kInf = std::numeric_limits<double>::infinity();
// Answers may exceed a budget by this relative hair, so boundary-exact
// optima (e.g. T == Tmax) survive rounding.
constexpr double kSlack = 1.0 + 1e-9;
// Budgets are solved against a little less than that, so the re-evaluated
// answer still passes satisfies() whatever the rounding.
constexpr double kSolveSlack = 1.0 + 0.999e-9;
constexpr int kScan = 64;             // log-spaced M samples before refining
constexpr int kMaxSteps = 100;        // cap on bisection / golden steps
constexpr double kGoldenTol = 1e-12;  // final bracket width in log M

/// The model at fixed M, for p inside the strong-scaling region:
/// T(p) = A/p + B·p and E(p) = E0 + E2·p² (B = E2 = 0 unless the latency
/// grows with p).
struct Shape {
  double A = 0.0;
  double B = 0.0;
  double E0 = 0.0;
  double E2 = 0.0;
  double T(double p) const { return A / p + B * p; }
  double E(double p) const { return E0 + E2 * p * p; }
  /// The budgeted quantity at p.
  double of(Budget b, double p) const {
    switch (b) {
      case Budget::kTime: return T(p);
      case Budget::kEnergy: return E(p);
      case Budget::kTotalPower: return E(p) / T(p);
      case Budget::kProcPower: return E(p) / (p * T(p));
      case Budget::kNone: break;
    }
    return 0.0;
  }
};

/// Positive roots of a·x² + b·x + c, ascending; returns how many.
int positive_roots(double a, double b, double c, double r[2]) {
  int k = 0;
  if (a == 0.0) {
    if (b != 0.0 && -c / b > 0.0) r[k++] = -c / b;
    return k;
  }
  const double disc = b * b - 4.0 * a * c;
  if (disc < 0.0) return 0;
  // Cancellation-free pair: q = -(b + sign(b)·√disc)/2, roots q/a and c/q.
  const double q = -0.5 * (b + std::copysign(std::sqrt(disc), b));
  double x[2] = {q / a, q != 0.0 ? c / q : 0.0};
  if (x[0] > x[1]) std::swap(x[0], x[1]);
  for (const double v : x) {
    if (v > 0.0 && std::isfinite(v)) r[k++] = v;
  }
  return k;
}

/// Disjoint sub-intervals [a_i, b_i] of the p range, ascending.
struct PSet {
  int count = 0;
  double a[3] = {};
  double b[3] = {};
  void add(double lo, double hi) {
    if (count > 0 && lo <= b[count - 1]) {
      b[count - 1] = std::max(b[count - 1], hi);
    } else if (count < 3) {
      a[count] = lo;
      b[count] = hi;
      ++count;
    }
  }
};

/// Adds {p in [lo, hi] : q(p) <= 0} to out, for q monotone on [lo, hi].
template <class Q>
void monotone_part(const Q& q, double lo, double hi, PSet& out) {
  const bool ok_lo = q(lo) <= 0.0;
  const bool ok_hi = q(hi) <= 0.0;
  if (ok_lo && ok_hi) {
    out.add(lo, hi);
    return;
  }
  if (!ok_lo && !ok_hi) return;
  double good = ok_lo ? lo : hi;
  double bad = ok_lo ? hi : lo;
  for (int i = 0; i < kMaxSteps; ++i) {
    const double mid = std::sqrt(good * bad);  // p >= 1
    if (mid == good || mid == bad) break;
    (q(mid) <= 0.0 ? good : bad) = mid;
  }
  if (ok_lo) {
    out.add(lo, good);
  } else {
    out.add(good, hi);
  }
}

/// The p in [lo, hi] that keep the budgeted quantity at or under L.
PSet budget_set(const Shape& s, Budget budget, double L, double lo,
                double hi) {
  PSet out;
  const auto clip = [&](double r1, double r2) {
    r1 = std::max(lo, r1);
    r2 = std::min(hi, r2);
    if (r1 <= r2) out.add(r1, r2);
  };
  switch (budget) {
    case Budget::kNone:
      clip(lo, hi);
      break;
    case Budget::kTime: {  // B·p² − L·p + A ≤ 0
      if (s.B == 0.0) {
        clip(s.A / L, kInf);
        break;
      }
      const double disc = L * L - 4.0 * s.A * s.B;
      if (disc < 0.0) break;
      const double r = std::sqrt(disc);
      clip(2.0 * s.A / (L + r), (L + r) / (2.0 * s.B));
      break;
    }
    case Budget::kEnergy:  // E2·p² ≤ L − E0
      if (s.E0 <= L) {
        clip(lo, s.E2 == 0.0 ? kInf : std::sqrt((L - s.E0) / s.E2));
      }
      break;
    case Budget::kProcPower: {  // (E2 − L·B)·p² ≤ L·A − E0
      const double a = s.E2 - L * s.B;
      const double c = L * s.A - s.E0;
      if (a > 0.0) {
        if (c >= 0.0) clip(lo, std::sqrt(c / a));
      } else if (c >= 0.0) {
        clip(lo, hi);
      } else if (a < 0.0) {
        clip(std::sqrt(c / a), kInf);
      }
      break;
    }
    case Budget::kTotalPower: {  // E2·p³ − L·B·p² + E0·p − L·A ≤ 0
      if (s.B == 0.0 && s.E2 == 0.0) {
        clip(lo, L * s.A / s.E0);
        break;
      }
      const auto q = [&](double p) {
        return ((s.E2 * p - L * s.B) * p + s.E0) * p - L * s.A;
      };
      // The cubic is monotone between its stationary points.
      double cuts[4] = {lo};
      int k = 1;
      double r[2];
      for (int i = 0, m = positive_roots(3.0 * s.E2, -2.0 * L * s.B, s.E0, r);
           i < m; ++i) {
        if (r[i] > lo && r[i] < hi) cuts[k++] = r[i];
      }
      cuts[k++] = hi;
      for (int i = 0; i + 1 < k; ++i) {
        monotone_part(q, cuts[i], cuts[i + 1], out);
      }
      break;
    }
  }
  return out;
}

/// Smallest budgeted quantity over p in [lo, hi], relative to `limit`:
/// at most 1 (up to the slack) exactly where some p meets the budget.
double min_ratio(const Shape& s, Budget budget, double limit, double lo,
                 double hi) {
  double best = std::min(s.of(budget, lo), s.of(budget, hi));
  double r[2];
  int m = 0;
  if (budget == Budget::kTime && s.B > 0.0) {
    r[m++] = std::sqrt(s.A / s.B);
  } else if (budget == Budget::kTotalPower) {
    // Stationary points of p·(E0 + E2·p²)/(A + B·p²), a quadratic in p².
    m = positive_roots(s.E2 * s.B, 3.0 * s.E2 * s.A - s.E0 * s.B,
                       s.E0 * s.A, r);
    for (int i = 0; i < m; ++i) r[i] = std::sqrt(r[i]);
  }
  for (int i = 0; i < m; ++i) {
    if (r[i] > lo && r[i] < hi) best = std::min(best, s.of(budget, r[i]));
  }
  return best / limit;
}

/// The best p at one M, for one question.
struct Slice {
  double x = 0.0;     ///< log M
  double M = 0.0;
  bool ok = false;    ///< some p meets the budget
  double p = 0.0;     ///< the objective's choice among those p
  double obj = kInf;  ///< objective at p (kInf unless ok)
  double viol = kInf; ///< min_ratio (0 with no budget)
};

struct Solver {
  const AlgModel& model;
  double n;
  const MachineParams& mp;
  const OptLimits& lim;
  const Optimizer::Question& q;
  double M_lo;
  double M_hi;

  Slice at(double x) const {
    Slice s;
    s.x = x;
    s.M = std::clamp(std::exp(x), M_lo, M_hi);
    const double M = s.M;
    double lo = std::max(1.0, model.p_min(n, M));
    double hi = std::min(lim.p_available, model.p_max(n, M));
    if (lo > hi) {
      if (lo > hi * (1.0 + 1e-12)) return s;
      lo = hi = std::max(1.0, hi);  // a rounding hair at a region edge
    }
    // One cost evaluation at the low edge gives the whole p dependence.
    const Costs c = model.costs(n, lo, M, mp.max_msg_words);
    const double F1 = c.F * lo;
    const double W1 = c.W * lo;
    const double hold = mp.delta_e * M + mp.eps_e;  // δe·M + εe
    Shape sh;
    if (model.latency_grows_with_p()) {
      const double S2 = c.S / lo;
      sh.A = mp.gamma_t * F1 + mp.beta_t * W1;
      sh.B = mp.alpha_t * S2;
      sh.E0 = mp.gamma_e * F1 + mp.beta_e * W1 + hold * sh.A;
      sh.E2 = mp.alpha_e * S2 + hold * sh.B;
    } else {
      const double S1 = c.S * lo;
      sh.A = mp.gamma_t * F1 + mp.beta_t * W1 + mp.alpha_t * S1;
      sh.E0 = mp.gamma_e * F1 + mp.beta_e * W1 + mp.alpha_e * S1 +
              hold * sh.A;
    }
    s.viol = q.budget == Budget::kNone
                 ? 0.0
                 : min_ratio(sh, q.budget, q.limit, lo, hi);
    const PSet set = budget_set(sh, q.budget, q.limit * kSolveSlack, lo, hi);
    if (set.count == 0) return s;
    s.ok = true;
    if (q.objective == Objective::kEnergy) {
      s.p = set.a[0];  // E never falls as p grows
      s.obj = sh.E(s.p);
      return s;
    }
    // T is convex in p with its minimum at √(A/B).
    const double p_fast = sh.B > 0.0 ? std::sqrt(sh.A / sh.B) : kInf;
    for (int i = 0; i < set.count; ++i) {
      const double p = std::clamp(p_fast, set.a[i], set.b[i]);
      if (sh.T(p) < s.obj) {
        s.obj = sh.T(p);
        s.p = p;
      }
    }
    return s;
  }

  /// Golden section on key(at(x)) over [a, b]; the best slice it visits.
  template <class Key>
  Slice golden(double a, double b, const Key& key) const {
    constexpr double kR = 0.6180339887498949;
    double c = b - kR * (b - a);
    double d = a + kR * (b - a);
    Slice sc = at(c);
    Slice sd = at(d);
    Slice best = key(sc) <= key(sd) ? sc : sd;
    for (int i = 0;
         i < kMaxSteps && b - a > kGoldenTol * (1.0 + std::abs(a)); ++i) {
      const Slice* fresh;
      if (key(sc) <= key(sd)) {
        b = d;
        d = c;
        sd = sc;
        c = b - kR * (b - a);
        sc = at(c);
        fresh = &sc;
      } else {
        a = c;
        c = d;
        sc = sd;
        d = a + kR * (b - a);
        sd = at(d);
        fresh = &sd;
      }
      if (key(*fresh) < key(best)) best = *fresh;
    }
    return best;
  }

  /// Bisects between a feasible and an infeasible slice; the feasible end.
  Slice edge(Slice good, Slice bad) const {
    for (int i = 0; i < kMaxSteps; ++i) {
      const double mid = 0.5 * (good.x + bad.x);
      if (mid == good.x || mid == bad.x) break;
      Slice m = at(mid);
      (m.ok ? good : bad) = m;
    }
    return good;
  }
};

/// Moves `more` into s, ordered by x, one slice per x: a refinement
/// bracket is the span between neighbours, so a twin would collapse it.
void merge(std::vector<Slice>& s, std::vector<Slice>& more) {
  s.insert(s.end(), more.begin(), more.end());
  more.clear();
  std::sort(s.begin(), s.end(),
            [](const Slice& a, const Slice& b) { return a.x < b.x; });
  s.erase(std::unique(s.begin(), s.end(),
                      [](const Slice& a, const Slice& b) {
                        return b.x - a.x <= 1e-13 * (1.0 + std::abs(a.x));
                      }),
          s.end());
}
}  // namespace

Optimizer::Optimizer(const AlgModel& model, double n, const MachineParams& mp)
    : model_(model), n_(n), mp_(mp) {
  ALGE_REQUIRE(n >= 1.0 && std::isfinite(n), "problem size n=%g invalid", n);
  mp_.validate();
}

RunPoint Optimizer::evaluate(double p, double M) const {
  RunPoint pt;
  pt.p = p;
  pt.M = M;
  if (p < 1.0 || M <= 0.0) return pt;
  if (M < model_.min_memory(n_, p) * (1.0 - 1e-12)) return pt;
  const Costs c = model_.costs(n_, p, M, mp_.max_msg_words);
  pt.T = time_of(c, mp_);
  pt.E = energy_of(c, p, M, pt.T, mp_);
  pt.feasible = std::isfinite(pt.T) && std::isfinite(pt.E);
  return pt;
}

bool Optimizer::satisfies(const RunPoint& pt, const Question& q) {
  if (!pt.feasible) return false;
  const double cap = q.limit * kSlack;
  switch (q.budget) {
    case Budget::kNone: return true;
    case Budget::kTime: return pt.T <= cap;
    case Budget::kEnergy: return pt.E <= cap;
    case Budget::kTotalPower: return pt.total_power() <= cap;
    case Budget::kProcPower: return pt.proc_power() <= cap;
  }
  return false;
}

RunPoint Optimizer::nbody_closed_form(const Question& q,
                                      const OptLimits& limits) const {
  const auto* nbody = dynamic_cast<const NBodyModel*>(&model_);
  if (nbody == nullptr) return {};
  const double f = nbody->interaction_flops();
  const NBodyOptimum opt(f, mp_);
  const double n = n_;
  const double M0 = opt.M0();
  if (!(M0 >= n / limits.p_available && M0 <= std::min(limits.M_cap, n))) {
    return {};
  }
  const auto point = [&](double p, double M, double T, double E) {
    return RunPoint{true, p, M, T, E};
  };
  // On the 2D line M = n/√p, the closed forms hold while p fits.
  const auto fits_2d = [&](double p) {
    return p >= 1.0 && p <= limits.p_available &&
           n / std::sqrt(p) <= limits.M_cap;
  };
  const double p0 = std::max(1.0, opt.min_energy_p_lo(n));
  const bool time_obj = q.objective == Objective::kTime;
  if (q.budget == Budget::kNone && !time_obj) {
    return point(p0, M0, closed::nbody_time(n, p0, M0, f, mp_),
                 opt.min_energy(n));
  }
  if (q.budget == Budget::kNone) {
    const double p = limits.p_available;
    if (!fits_2d(p)) return {};
    const double M = n / std::sqrt(p);
    return point(p, M, opt.min_time(n, p),
                 closed::nbody_energy(n, M, f, mp_));
  }
  if (q.budget == Budget::kTime && !time_obj) {  // V-B
    const double E = opt.min_energy_given_time(n, q.limit);
    if (q.limit >= opt.time_threshold_for_optimum()) {
      const double p =
          std::max(p0, closed::nbody_time(n, 1.0, M0, f, mp_) / q.limit);
      if (p > limits.p_available) return {};
      return point(p, M0, closed::nbody_time(n, p, M0, f, mp_), E);
    }
    const double p = opt.p_min_for_time(n, q.limit);
    if (!fits_2d(p)) return {};
    const double M = n / std::sqrt(p);
    return point(p, M, closed::nbody_time(n, p, M, f, mp_), E);
  }
  if (q.budget == Budget::kEnergy && time_obj) {  // V-C
    if (q.limit < opt.min_energy(n)) return {};
    double p = 0.0;
    try {
      p = opt.max_p_given_energy(n, q.limit);
    } catch (const invalid_argument_error&) {
      return {};  // a rounding hair above E*: the generic solve decides
    }
    if (!fits_2d(p)) return {};
    const double M = n / std::sqrt(p);
    return point(p, M, opt.min_time_given_energy(n, q.limit),
                 closed::nbody_energy(n, M, f, mp_));
  }
  return {};
}

RunPoint Optimizer::solve(const Question& q, const OptLimits& limits) const {
  ALGE_REQUIRE(limits.p_available >= 1.0, "need at least one processor");
  ALGE_REQUIRE(limits.M_cap > 0.0, "memory cap must be positive");
  if (const RunPoint closed = nbody_closed_form(q, limits); closed.feasible) {
    return closed;
  }

  // Every M that fits on p_available processors and helps on one.
  const double M_lo = model_.min_memory(n_, limits.p_available);
  const double M_hi =
      std::min(limits.M_cap, model_.max_useful_memory(n_, 1.0));
  if (!(M_lo <= M_hi)) return {};
  const Solver sv{model_, n_, mp_, limits, q, M_lo, M_hi};
  const double x_lo = std::log(M_lo);
  const double x_hi = std::log(M_hi);

  std::vector<Slice> s;
  s.reserve(4 * kScan);
  for (int i = 0; i < kScan; ++i) {
    const double t = static_cast<double>(i) / (kScan - 1);
    s.push_back(sv.at(x_lo * (1.0 - t) + x_hi * t));
  }
  // Kinks: where p_min(M) reaches 1 and where p_max(M) reaches p_available.
  std::vector<Slice> more;
  for (const double M : {model_.min_memory(n_, 1.0),
                         model_.max_useful_memory(n_, limits.p_available)}) {
    if (M > M_lo && M < M_hi) more.push_back(sv.at(std::log(M)));
  }
  merge(s, more);

  // Narrow feasible windows: refine each basin of the budget ratio that
  // no sample satisfies.
  if (q.budget != Budget::kNone) {
    for (std::size_t i = 0; i < s.size(); ++i) {
      const double v = s[i].viol;
      if (s[i].ok || !std::isfinite(v)) continue;
      if ((i > 0 && s[i - 1].viol <= v) ||
          (i + 1 < s.size() && s[i + 1].viol < v)) {
        continue;
      }
      const Slice w =
          sv.golden(s[i > 0 ? i - 1 : i].x,
                    s[i + 1 < s.size() ? i + 1 : i].x,
                    [](const Slice& t) { return t.viol; });
      if (w.ok) more.push_back(w);
    }
    merge(s, more);
  }
  // Edges of the feasible M set.
  for (std::size_t i = 0; i + 1 < s.size(); ++i) {
    if (s[i].ok != s[i + 1].ok) {
      more.push_back(s[i].ok ? sv.edge(s[i], s[i + 1])
                             : sv.edge(s[i + 1], s[i]));
    }
  }
  merge(s, more);
  // Local minima of the objective, refined between feasible neighbours.
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (!s[i].ok) continue;
    const bool left = i > 0 && s[i - 1].ok;
    const bool right = i + 1 < s.size() && s[i + 1].ok;
    if ((left && s[i - 1].obj <= s[i].obj) ||
        (right && s[i + 1].obj < s[i].obj) || (!left && !right)) {
      continue;
    }
    more.push_back(sv.golden(s[left ? i - 1 : i].x, s[right ? i + 1 : i].x,
                             [](const Slice& t) { return t.obj; }));
  }
  merge(s, more);

  // Best objective, ties to fewer processors; re-evaluated through the
  // model, and held to the budget.
  while (true) {
    std::size_t best = s.size();
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (s[i].ok && (best == s.size() || s[i].obj < s[best].obj ||
                      (s[i].obj == s[best].obj && s[i].p < s[best].p))) {
        best = i;
      }
    }
    if (best == s.size()) return {};
    const RunPoint pt = evaluate(s[best].p, s[best].M);
    if (satisfies(pt, q)) return pt;
    s[best].ok = false;
  }
}

RunPoint Optimizer::minimize_energy(const OptLimits& limits) const {
  return solve({Objective::kEnergy, Budget::kNone, 0.0}, limits);
}

RunPoint Optimizer::minimize_time(const OptLimits& limits) const {
  return solve({Objective::kTime, Budget::kNone, 0.0}, limits);
}

RunPoint Optimizer::min_energy_given_time(double Tmax,
                                          const OptLimits& limits) const {
  ALGE_REQUIRE(Tmax > 0.0, "Tmax must be positive");
  return solve({Objective::kEnergy, Budget::kTime, Tmax}, limits);
}

RunPoint Optimizer::min_time_given_energy(double Emax,
                                          const OptLimits& limits) const {
  ALGE_REQUIRE(Emax > 0.0, "Emax must be positive");
  return solve({Objective::kTime, Budget::kEnergy, Emax}, limits);
}

RunPoint Optimizer::min_time_given_total_power(double Pmax,
                                               const OptLimits& limits) const {
  ALGE_REQUIRE(Pmax > 0.0, "Pmax must be positive");
  return solve({Objective::kTime, Budget::kTotalPower, Pmax}, limits);
}

RunPoint Optimizer::min_energy_given_total_power(
    double Pmax, const OptLimits& limits) const {
  ALGE_REQUIRE(Pmax > 0.0, "Pmax must be positive");
  return solve({Objective::kEnergy, Budget::kTotalPower, Pmax}, limits);
}

RunPoint Optimizer::min_time_given_proc_power(double Pmax,
                                              const OptLimits& limits) const {
  ALGE_REQUIRE(Pmax > 0.0, "Pmax must be positive");
  return solve({Objective::kTime, Budget::kProcPower, Pmax}, limits);
}

RunPoint Optimizer::min_energy_given_proc_power(
    double Pmax, const OptLimits& limits) const {
  ALGE_REQUIRE(Pmax > 0.0, "Pmax must be positive");
  return solve({Objective::kEnergy, Budget::kProcPower, Pmax}, limits);
}

}  // namespace alge::core
