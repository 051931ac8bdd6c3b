#include "navigator/navigator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "algs/nbody/nbody.hpp"
#include "core/bounds.hpp"
#include "core/codesign.hpp"
#include "engine/runner.hpp"
#include "support/common.hpp"

namespace alge::navigator {

namespace {

// Same slack conventions as core::Optimizer: budgets tolerate a hair of
// overshoot so boundary optima survive, and dominance/duplicate tests use a
// relative epsilon so FP noise cannot evict an analytically-equal point.
constexpr double kSlack = 1.0 + 1e-9;
constexpr double kEps = 1e-9;

// Closed-form prune margin: an executable candidate survives unless some
// other candidate is better in BOTH time and energy by more than this
// factor. Generous on purpose — the model omits constants, the engine
// doesn't, so near-frontier candidates deserve a real run.
constexpr double kPruneMargin = 1.25;

bool within_budgets(double T, double E, double p, const Budgets& b) {
  if (b.t_max && T > *b.t_max * kSlack) return false;
  if (b.e_max && E > *b.e_max * kSlack) return false;
  if (b.total_power_max && T > 0.0 && E / T > *b.total_power_max * kSlack) {
    return false;
  }
  if (b.proc_power_max && T > 0.0 && p > 0.0 &&
      E / T / p > *b.proc_power_max * kSlack) {
    return false;
  }
  return true;
}

int active_budgets(const Budgets& b) {
  return (b.t_max ? 1 : 0) + (b.e_max ? 1 : 0) + (b.total_power_max ? 1 : 0) +
         (b.proc_power_max ? 1 : 0);
}

/// a dominates b in (T, E) when it is no worse in both (exactly — FP noise
/// in the aggressor direction must not evict analytically-tied points) and
/// meaningfully better in at least one.
bool dominates(double aT, double aE, double bT, double bE) {
  return aT <= bT && aE <= bE &&
         (aT < bT * (1.0 - kEps) || aE < bE * (1.0 - kEps));
}

struct Cand {
  ModelPoint pt;
  int priority = 1;  ///< 0 = optimizer-seeded (wins duplicate ties)
};

/// Exact skyline of one message-cap group, then a fuzzy dedupe pass that
/// prefers optimizer-seeded points over eps-identical grid points (so the
/// §V answers survive verbatim into the frontier).
std::vector<ModelPoint> pareto_group(std::vector<Cand> cands) {
  std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
    if (a.pt.T != b.pt.T) return a.pt.T < b.pt.T;
    if (a.pt.E != b.pt.E) return a.pt.E < b.pt.E;
    if (a.priority != b.priority) return a.priority < b.priority;
    return a.pt.p < b.pt.p;
  });
  std::vector<Cand> sky;
  double best_e = std::numeric_limits<double>::infinity();
  for (const Cand& c : cands) {
    // Seeded points tolerate an eps tie so FP noise in the flat valley
    // cannot evict an optimizer answer; grid points must strictly improve.
    const bool keep =
        c.priority == 0 ? c.pt.E < best_e * (1.0 + kEps) : c.pt.E < best_e;
    if (keep) {
      sky.push_back(c);
      best_e = std::min(best_e, c.pt.E);
    }
  }
  std::vector<ModelPoint> out;
  for (const Cand& c : sky) {
    if (!out.empty()) {
      ModelPoint& prev = out.back();
      const bool same = std::abs(c.pt.T - prev.T) <= kEps * prev.T &&
                        std::abs(c.pt.E - prev.E) <= kEps * prev.E;
      if (same) {
        const bool prev_seeded = prev.source.rfind("optimizer:", 0) == 0;
        if (c.priority == 0 && !prev_seeded) {
          prev = c.pt;  // the seeded twin replaces its grid double
          continue;
        }
        // Two seeded points may legitimately coincide up to FP noise
        // (e.g. a corner meeting min-time at p_available): keep both so
        // each stays on the frontier verbatim.
        if (!(c.priority == 0 && prev_seeded)) continue;
      }
      if (dominates(prev.T, prev.E, c.pt.T, c.pt.E)) continue;
    }
    out.push_back(c.pt);
  }
  return out;
}

/// Normalized staircase area between a (T, E) frontier and its own ideal
/// corner (min T, min E): 0 when the frontier collapses to a point, grows
/// with the size of the time/energy trade-off region. Lower = better.
double staircase_area(const std::vector<std::pair<double, double>>& pts) {
  if (pts.size() < 2) return 0.0;
  const double t0 = pts.front().first;     // min T (sorted ascending)
  const double e0 = pts.back().second;     // min E (E descends along T)
  if (t0 <= 0.0 || e0 <= 0.0) return 0.0;
  double area = 0.0;
  for (std::size_t i = 0; i + 1 < pts.size(); ++i) {
    area += (pts[i + 1].first - pts[i].first) / t0 *
            (pts[i].second - e0) / e0;
  }
  return area;
}

double geom(double lo, double hi, int i, int count) {
  if (count <= 1 || hi <= lo) return lo;
  const double t = static_cast<double>(i) / static_cast<double>(count - 1);
  return lo * std::pow(hi / lo, t);
}

ModelPoint make_model_point(const core::AlgModel& model, double n, double p,
                            double M, double m, const std::string& omega_name,
                            double omega0, std::string source) {
  ModelPoint pt;
  pt.p = p;
  pt.M = M;
  pt.m = m;
  pt.words = model.costs(n, p, M, m).W;
  pt.words_bound = words_lower_bound(omega_name, omega0, n, p, M);
  pt.source = std::move(source);
  return pt;
}

/// One executable configuration awaiting a closed-form score.
struct ExecCand {
  engine::ExperimentSpec spec;
  std::string label;
  std::string topology;
  std::string impl;
  double model_M = 0.0;  ///< memory fed to the analytic model (model units)
  double bound_words = 0.0;
  double model_T = 0.0;
  double model_E = 0.0;
};

int default_sim_n(const std::string& model) {
  if (model == "strassen") return 392;  // CAPS share-aligned for k <= 3
  if (model == "nbody" || model.rfind("fft", 0) == 0) return 4096;
  return 192;  // classical-mm, lu-2.5d
}

/// Enumerate every executable candidate the harness accepts for this
/// model: topology (grid shape / replication), and collective
/// implementation axes. Deterministic order.
std::vector<ExecCand> enumerate_exec(const NavRequest& req, int n) {
  std::vector<ExecCand> out;
  const double p_avail = req.limits.p_available;
  auto push = [&](engine::ExperimentSpec spec, std::string label,
                  std::string topology, std::string impl, double model_M,
                  double bound_words) {
    spec.params = req.params;
    spec.n = n;
    spec.data_mode = sim::DataMode::kGhost;
    spec.exec_mode = sim::ExecMode::kFolded;  // transparent fiber fallback
    ExecCand c;
    c.spec = std::move(spec);
    c.label = std::move(label);
    c.topology = std::move(topology);
    c.impl = std::move(impl);
    c.model_M = model_M;
    c.bound_words = bound_words;
    out.push_back(std::move(c));
  };

  if (req.model == "classical-mm") {
    for (int q = 2; static_cast<double>(q) * q <= p_avail; q *= 2) {
      if (n % q != 0) continue;
      for (int c = 1; c <= q; c *= 2) {
        const double p = static_cast<double>(q) * q * c;
        if (q % c != 0 || p > p_avail) continue;
        const double M = 3.0 * n * n * c / p;  // A, B, C blocks
        for (const bool ring : {false, true}) {
          engine::ExperimentSpec s;
          s.alg = engine::Alg::kMm25d;
          s.q = q;
          s.c = c;
          s.ring_replication = ring;
          push(std::move(s), strfmt("mm25d q=%d c=%d %s", q, c,
                                    ring ? "ring" : "tree"),
               strfmt("%dx%dx%d", q, q, c), ring ? "bcast-ring" : "bcast-tree",
               M, core::bounds::matmul_words(n, p, M));
        }
      }
      // SUMMA: same 2D footprint, panel-broadcast pipeline instead of
      // Cannon shifts.
      const double p2 = static_cast<double>(q) * q;
      const double M2 = 3.0 * n * n / p2;
      engine::ExperimentSpec s;
      s.alg = engine::Alg::kSumma;
      s.q = q;
      push(std::move(s), strfmt("summa q=%d", q), strfmt("%dx%d", q, q),
           "summa-pipeline", M2, core::bounds::matmul_words(n, p2, M2));
    }
  } else if (req.model == "strassen") {
    for (int k = 1; k <= 10; ++k) {
      double p = 1.0;
      for (int i = 0; i < k; ++i) p *= 7.0;
      if (p > p_avail) break;
      // All-BFS share alignment: n divisible by 2^k * 7^ceil(k/2).
      long long align = 1LL << k;
      for (int i = 0; i < (k + 1) / 2; ++i) align *= 7;
      if (align == 0 || n % align != 0) continue;
      const double M = 7.0 * n * n / (4.0 * p) * 3.0;  // BFS working set
      engine::ExperimentSpec s;
      s.alg = engine::Alg::kCaps;
      s.k = k;
      push(std::move(s), strfmt("caps k=%d", k), strfmt("7^%d", k),
           "caps-bfs", M,
           core::bounds::strassen_words(n, p, M, req.omega0));
    }
  } else if (req.model == "nbody") {
    for (int p = 2; static_cast<double>(p) <= std::min(p_avail, 256.0);
         p *= 2) {
      for (int c = 1; c * c <= p; c *= 2) {
        if (p % c != 0 || n % (p / c) != 0) continue;
        const int blocks = p / c;
        const double M = static_cast<double>(n) * c / p;  // particles/rank
        // The ring circulates blocks-1 of the blocks the bound charges
        // for; fold that Ω-constant in so "measured >= bound" is exact.
        const double ring_factor =
            static_cast<double>(blocks - 1) / static_cast<double>(blocks);
        engine::ExperimentSpec s;
        s.alg = engine::Alg::kNBody;
        s.p = p;
        s.c = c;
        push(std::move(s), strfmt("nbody p=%d c=%d", p, c),
             strfmt("%d blocks x%d replicas", blocks, c), "team-ring", M,
             core::bounds::nbody_words(n, p, M) * algs::kParticleWords *
                 ring_factor);
      }
    }
  } else if (req.model == "lu-2.5d") {
    const int nb = n % 12 == 0 ? 12 : 4;
    for (int q = 2; static_cast<double>(q) * q <= p_avail; q *= 2) {
      if (n % nb != 0 || (n / nb) % q != 0) continue;
      for (int c = 1; c <= q; c *= 2) {
        const double p = static_cast<double>(q) * q * c;
        if (q % c != 0 || p > p_avail) continue;
        const double M = static_cast<double>(n) * n * c / p;
        engine::ExperimentSpec s;
        s.alg = engine::Alg::kLu;
        s.nb = nb;
        s.q = q;
        s.c = c;
        push(std::move(s), strfmt("lu q=%d c=%d", q, c),
             strfmt("%dx%dx%d", q, q, c), "block-cyclic", M,
             core::bounds::matmul_words(n, p, M) / 3.0);  // n³/3 flops
      }
    }
  } else if (req.model == "fft-naive" || req.model == "fft-tree") {
    int r_dim = 1;
    while (r_dim * r_dim < n) r_dim *= 2;
    const int c_dim = n / r_dim;
    ALGE_REQUIRE(r_dim * c_dim == n && (n & (n - 1)) == 0,
                 "fft sim_n=%d must be a power of two", n);
    const int dim_min = std::min(r_dim, c_dim);
    for (int p = 2; p <= dim_min && static_cast<double>(p) <= p_avail;
         p *= 2) {
      const double M = static_cast<double>(n) / p;
      for (const bool bruck : {false, true}) {
        engine::ExperimentSpec s;
        s.alg = engine::Alg::kFft;
        s.r_dim = r_dim;
        s.c_dim = c_dim;
        s.p = p;
        s.fft_bruck = bruck;
        push(std::move(s), strfmt("fft p=%d %s", p, bruck ? "bruck" : "direct"),
             strfmt("%dx%d", r_dim, c_dim),
             bruck ? "a2a-bruck" : "a2a-direct", M, 0.0);
      }
    }
  } else {
    throw invalid_argument_error(
        strfmt("model \"%s\" has no executable candidates",
               req.model.c_str()));
  }
  return out;
}

json::Value run_point_json(const core::RunPoint& pt) {
  json::Value o = json::Value::object();
  o.set("feasible", pt.feasible)
      .set("p", pt.p)
      .set("M", pt.M)
      .set("T", pt.T)
      .set("E", pt.E);
  return o;
}

}  // namespace

double words_lower_bound(const std::string& model, double omega0, double n,
                         double p, double M) {
  // One processor is never forced to communicate: the per-processor
  // parallel bounds of Section III assume p >= 2.
  if (p < 2.0) return 0.0;
  if (model == "classical-mm") return core::bounds::matmul_words(n, p, M);
  if (model == "strassen") {
    return core::bounds::strassen_words(n, p, M, omega0);
  }
  if (model == "nbody") return core::bounds::nbody_words(n, p, M);
  // LU does n³/3 useful flops; its W bound is the matmul bound at a third.
  if (model == "lu-2.5d") return core::bounds::matmul_words(n, p, M) / 3.0;
  return 0.0;  // FFT: no parallel per-processor bound in core/bounds
}

NavReport navigate(const NavRequest& req) {
  ALGE_REQUIRE(req.n >= 1.0 && std::isfinite(req.n), "bad n=%g", req.n);
  ALGE_REQUIRE(req.p_samples >= 2 && req.m_samples >= 1,
               "need p_samples >= 2, m_samples >= 1 (got %d, %d)",
               req.p_samples, req.m_samples);
  ALGE_REQUIRE(req.sim_points >= 1, "sim_points must be >= 1");
  req.params.validate();
  const std::unique_ptr<core::AlgModel> model =
      core::make_model(req.model, req.f, req.omega0);

  NavReport rep;
  rep.model = req.model;
  rep.n = req.n;
  rep.crossover_target = req.crossover_target_gflops_per_watt;

  // --- analytic stage: seeded + gridded candidates, one group per m ---
  std::vector<double> caps = {req.params.max_msg_words};
  for (const double m : req.msg_caps) {
    ALGE_REQUIRE(m > 0.0 && std::isfinite(m), "bad msg cap %g", m);
    if (std::find(caps.begin(), caps.end(), m) == caps.end()) {
      caps.push_back(m);
    }
  }

  for (const double m : caps) {
    core::MachineParams mp = req.params;
    mp.max_msg_words = m;
    const core::Optimizer solver(*model, req.n, mp);

    std::vector<std::pair<std::string, core::RunPoint>> seeds;
    seeds.emplace_back("min_energy", solver.minimize_energy(req.limits));
    seeds.emplace_back("min_time", solver.minimize_time(req.limits));
    if (req.budgets.t_max) {
      seeds.emplace_back(
          "min_energy_given_time",
          solver.min_energy_given_time(*req.budgets.t_max, req.limits));
    }
    if (req.budgets.e_max) {
      seeds.emplace_back(
          "min_time_given_energy",
          solver.min_time_given_energy(*req.budgets.e_max, req.limits));
    }
    if (req.budgets.total_power_max) {
      seeds.emplace_back("min_time_given_total_power",
                         solver.min_time_given_total_power(
                             *req.budgets.total_power_max, req.limits));
      seeds.emplace_back("min_energy_given_total_power",
                         solver.min_energy_given_total_power(
                             *req.budgets.total_power_max, req.limits));
    }
    if (req.budgets.proc_power_max) {
      seeds.emplace_back("min_time_given_proc_power",
                         solver.min_time_given_proc_power(
                             *req.budgets.proc_power_max, req.limits));
      seeds.emplace_back("min_energy_given_proc_power",
                         solver.min_energy_given_proc_power(
                             *req.budgets.proc_power_max, req.limits));
    }

    // Per-group §V minima (the optimizer breaks flat-valley ties toward
    // fewer processors, so the min-energy answer sits at the slow end of
    // the perfect-scaling valley; the *frontier* endpoint is its V-B/V-C
    // corner — min time among points no worse in energy, and vice versa —
    // seeded below so both reproduce optimizer answers bit-exactly).
    core::RunPoint group_min_e;
    core::RunPoint group_min_t;
    for (const auto& [question, pt] : seeds) {
      if (!pt.feasible || !within_budgets(pt.T, pt.E, pt.p, req.budgets)) {
        continue;
      }
      if (question.rfind("min_energy", 0) == 0 &&
          (!group_min_e.feasible || pt.E < group_min_e.E ||
           (pt.E == group_min_e.E && pt.p < group_min_e.p))) {
        group_min_e = pt;
      }
      if (question.rfind("min_time", 0) == 0 &&
          (!group_min_t.feasible || pt.T < group_min_t.T ||
           (pt.T == group_min_t.T && pt.p < group_min_t.p))) {
        group_min_t = pt;
      }
    }
    if (group_min_e.feasible) {
      seeds.emplace_back(
          "corner_min_time_given_energy",
          solver.min_time_given_energy(group_min_e.E, req.limits));
    }
    if (group_min_t.feasible) {
      seeds.emplace_back(
          "corner_min_energy_given_time",
          solver.min_energy_given_time(group_min_t.T, req.limits));
    }

    std::vector<Cand> cands;
    for (const auto& [question, pt] : seeds) {
      if (!pt.feasible || !within_budgets(pt.T, pt.E, pt.p, req.budgets)) {
        continue;
      }
      Cand c;
      c.pt = make_model_point(*model, req.n, pt.p, pt.M, m, req.model,
                              req.omega0, "optimizer:" + question);
      // Carry the optimizer's doubles verbatim — bit-exact reproduction.
      c.pt.T = pt.T;
      c.pt.E = pt.E;
      c.priority = 0;
      cands.push_back(std::move(c));
      ++rep.grid_candidates;
    }

    // The machine's own cap defines the headline §V answers.
    if (m == req.params.max_msg_words) {
      rep.min_energy = group_min_e;
      rep.min_time = group_min_t;
    }

    for (int i = 0; i < req.p_samples; ++i) {
      const double p = geom(1.0, req.limits.p_available, i, req.p_samples);
      const double M_lo = model->min_memory(req.n, p);
      if (M_lo > req.limits.M_cap * kSlack) continue;  // does not fit
      const double M_hi = std::max(
          M_lo, std::min(req.limits.M_cap,
                         model->max_useful_memory(req.n, p)));
      const int m_count = M_hi > M_lo * kSlack ? req.m_samples : 1;
      for (int j = 0; j < m_count; ++j) {
        const double M = geom(M_lo, M_hi, j, m_count);
        Cand c;
        c.pt = make_model_point(*model, req.n, p, M, m, req.model,
                                req.omega0, "grid");
        c.pt.T = model->time(req.n, p, M, mp);
        c.pt.E = model->energy(req.n, p, M, mp);
        ++rep.grid_candidates;
        if (!within_budgets(c.pt.T, c.pt.E, p, req.budgets)) continue;
        cands.push_back(std::move(c));
      }
    }

    std::vector<ModelPoint> frontier = pareto_group(std::move(cands));
    rep.model_frontier.insert(rep.model_frontier.end(), frontier.begin(),
                              frontier.end());
  }

  if (rep.min_energy.feasible) {
    rep.scaling_M = rep.min_energy.M;
    rep.scaling_p_min = model->p_min(req.n, rep.scaling_M);
    rep.scaling_p_max = model->p_max(req.n, rep.scaling_M);
    rep.gflops_per_watt_at_opt = core::gflops_per_watt(
        *model, req.n, rep.min_energy.p, rep.min_energy.M, req.params);
  }

  {
    std::vector<std::pair<double, double>> pts;
    for (const ModelPoint& pt : rep.model_frontier) {
      if (pt.m == req.params.max_msg_words) pts.emplace_back(pt.T, pt.E);
    }
    rep.frontier_area = staircase_area(pts);
  }

  // --- sim stage: score survivors with the ghost/folded engine ---
  double inflation = 1.0;
  if (req.simulate) {
    const int n = req.sim_n > 0 ? req.sim_n : default_sim_n(req.model);
    std::vector<ExecCand> cands = enumerate_exec(req, n);
    rep.sim_candidates = static_cast<int>(cands.size());
    for (ExecCand& c : cands) {
      // Closed-form prune score at the candidate's replication memory.
      const double pp = algs::find(engine::to_string(c.spec.alg))
                            .ranks(engine::problem_of(c.spec));
      const double model_M =
          std::max(c.model_M, model->min_memory(n, pp));
      c.model_T = model->time(n, pp, model_M, req.params);
      c.model_E = model->energy(n, pp, model_M, req.params);
    }

    // Prune: drop candidates beaten by > kPruneMargin in both objectives,
    // then thin to sim_points spread across the surviving score range.
    std::vector<ExecCand> kept;
    for (const ExecCand& c : cands) {
      bool beaten = false;
      for (const ExecCand& o : cands) {
        if (&o == &c) continue;
        if (o.model_T * kPruneMargin < c.model_T &&
            o.model_E * kPruneMargin < c.model_E) {
          beaten = true;
          break;
        }
      }
      if (!beaten) kept.push_back(c);
    }
    std::sort(kept.begin(), kept.end(), [](const ExecCand& a,
                                           const ExecCand& b) {
      if (a.model_T != b.model_T) return a.model_T < b.model_T;
      if (a.model_E != b.model_E) return a.model_E < b.model_E;
      return a.label < b.label;
    });
    if (static_cast<int>(kept.size()) > req.sim_points) {
      std::vector<ExecCand> thinned;
      const int want = req.sim_points;
      for (int i = 0; i < want; ++i) {
        const std::size_t idx =
            want == 1 ? 0
                      : static_cast<std::size_t>(i) * (kept.size() - 1) /
                            (want - 1);
        if (thinned.empty() || thinned.back().label != kept[idx].label) {
          thinned.push_back(kept[idx]);
        }
      }
      kept = std::move(thinned);
    }
    rep.sim_pruned = rep.sim_candidates - static_cast<int>(kept.size());

    engine::SweepOptions sopts;
    sopts.threads = req.threads;
    sopts.cache_dir = req.cache_dir;
    engine::SweepRunner runner(sopts);

    std::vector<engine::ExperimentSpec> specs;
    specs.reserve(kept.size());
    for (const ExecCand& c : kept) specs.push_back(c.spec);
    const std::vector<engine::ExperimentResult> results = runner.run(specs);
    rep.simulated += runner.stats().executed;
    rep.cache_hits += runner.stats().cache_hits;

    std::vector<SimPoint> scored;
    for (std::size_t i = 0; i < kept.size(); ++i) {
      SimPoint sp;
      sp.spec = kept[i].spec;
      sp.label = kept[i].label;
      sp.topology = kept[i].topology;
      sp.impl = kept[i].impl;
      sp.p = results[i].p;
      sp.M_words = static_cast<double>(results[i].totals.mem_highwater_max);
      sp.model_T = kept[i].model_T;
      sp.model_E = kept[i].model_E;
      sp.makespan = results[i].makespan;
      sp.energy = results[i].energy_total();
      sp.words_per_rank = results[i].words_per_proc();
      sp.words_bound = kept[i].bound_words;
      sp.fold_slots = results[i].fold_slots;
      if (sp.fold_slots > 0) {
        ++rep.folded_scored;
      } else {
        ++rep.fiber_scored;
      }
      scored.push_back(std::move(sp));
    }

    // Measured Pareto frontier over (makespan, energy).
    std::sort(scored.begin(), scored.end(),
              [](const SimPoint& a, const SimPoint& b) {
                if (a.makespan != b.makespan) return a.makespan < b.makespan;
                if (a.energy != b.energy) return a.energy < b.energy;
                return a.label < b.label;
              });
    for (const SimPoint& sp : scored) {
      bool dominated = false;
      for (const SimPoint& o : scored) {
        if (&o == &sp) continue;
        if (dominates(o.makespan, o.energy, sp.makespan, sp.energy)) {
          dominated = true;
          break;
        }
      }
      if (!dominated) rep.measured_frontier.push_back(sp);
    }

    {
      std::vector<std::pair<double, double>> pts;
      for (const SimPoint& sp : rep.measured_frontier) {
        pts.emplace_back(sp.makespan, sp.energy);
      }
      rep.measured_frontier_area = staircase_area(pts);
    }

    // --- chaos stage: re-score the frontier under each fault plan ---
    if (!req.fault_plans.empty() && !rep.measured_frontier.empty()) {
      std::vector<engine::ExperimentSpec> fspecs;
      for (const SimPoint& sp : rep.measured_frontier) {
        for (const std::string& plan : req.fault_plans) {
          engine::ExperimentSpec s = sp.spec;
          s.fault_plan = plan;
          s.chaos_seed = req.chaos_seed;
          fspecs.push_back(std::move(s));
        }
      }
      const std::vector<engine::ExperimentResult> fres = runner.run(fspecs);
      rep.rescore_runs += runner.stats().executed;
      rep.cache_hits += runner.stats().cache_hits;

      const std::size_t n_plans = req.fault_plans.size();
      for (std::size_t i = 0; i < rep.measured_frontier.size(); ++i) {
        for (std::size_t j = 0; j < n_plans; ++j) {
          const engine::ExperimentResult& r = fres[i * n_plans + j];
          SimRescore rs;
          rs.plan = req.fault_plans[j];
          rs.makespan = r.makespan;
          rs.energy = r.energy_total();
          rep.measured_frontier[i].rescored.push_back(std::move(rs));
        }
      }
      // A point is robust when its *faulted* score is still undominated
      // among the faulted scores of the whole frontier, for every plan.
      for (std::size_t j = 0; j < n_plans; ++j) {
        for (SimPoint& a : rep.measured_frontier) {
          bool dominated = false;
          for (const SimPoint& b : rep.measured_frontier) {
            if (&b == &a) continue;
            if (dominates(b.rescored[j].makespan, b.rescored[j].energy,
                          a.rescored[j].makespan, a.rescored[j].energy)) {
              dominated = true;
              break;
            }
          }
          a.rescored[j].still_pareto = !dominated;
        }
      }
      for (SimPoint& sp : rep.measured_frontier) {
        sp.robust = true;
        for (const SimRescore& rs : sp.rescored) {
          sp.robust = sp.robust && rs.still_pareto;
        }
        if (sp.robust) ++rep.robust_points;
      }
      rep.robust_fraction =
          static_cast<double>(rep.robust_points) /
          static_cast<double>(rep.measured_frontier.size());

      // Energy inflation at the measured min-energy point: the factor by
      // which faults move the efficiency crossover.
      const SimPoint* min_e = &rep.measured_frontier.front();
      for (const SimPoint& sp : rep.measured_frontier) {
        if (sp.energy < min_e->energy) min_e = &sp;
      }
      for (const SimRescore& rs : min_e->rescored) {
        if (min_e->energy > 0.0) {
          inflation = std::max(inflation, rs.energy / min_e->energy);
        }
      }
      rep.fault_energy_inflation = inflation;
    }
  }

  // --- crossover: Fig. 6/7 generations-to-target, clean and faulted ---
  if (rep.min_energy.feasible) {
    rep.crossover_generations = core::generations_to_target(
        *model, req.n, rep.min_energy.p, rep.min_energy.M, req.params,
        core::ParamScaleSpec::all(), rep.crossover_target,
        req.crossover_max_generations);
    // Faults inflate delivered energy by `inflation`, so hitting the same
    // delivered GFLOPS/W needs the clean efficiency target scaled up.
    rep.crossover_generations_faulted = core::generations_to_target(
        *model, req.n, rep.min_energy.p, rep.min_energy.M, req.params,
        core::ParamScaleSpec::all(), rep.crossover_target * inflation,
        req.crossover_max_generations);
  }
  return rep;
}

json::Value NavReport::to_json() const {
  json::Value o = json::Value::object();
  o.set("model", model).set("n", n);

  json::Value mf = json::Value::array();
  for (const ModelPoint& pt : model_frontier) {
    json::Value e = json::Value::object();
    e.set("p", pt.p)
        .set("M", pt.M)
        .set("m", pt.m)
        .set("T", pt.T)
        .set("E", pt.E)
        .set("words", pt.words)
        .set("words_bound", pt.words_bound)
        .set("source", pt.source);
    mf.push_back(std::move(e));
  }
  o.set("model_frontier", std::move(mf))
      .set("min_energy", run_point_json(min_energy))
      .set("min_time", run_point_json(min_time))
      .set("scaling_M", scaling_M)
      .set("scaling_p_min", scaling_p_min)
      .set("scaling_p_max", scaling_p_max);

  json::Value sf = json::Value::array();
  for (const SimPoint& sp : measured_frontier) {
    json::Value e = json::Value::object();
    e.set("label", sp.label)
        .set("topology", sp.topology)
        .set("impl", sp.impl)
        .set("p", sp.p)
        .set("M_words", sp.M_words)
        .set("model_T", sp.model_T)
        .set("model_E", sp.model_E)
        .set("makespan", sp.makespan)
        .set("energy", sp.energy)
        .set("words_per_rank", sp.words_per_rank)
        .set("words_bound", sp.words_bound)
        .set("fold_slots", sp.fold_slots)
        .set("robust", sp.robust)
        .set("spec", sp.spec.to_json());
    json::Value rs = json::Value::array();
    for (const SimRescore& r : sp.rescored) {
      json::Value re = json::Value::object();
      re.set("plan", r.plan)
          .set("makespan", r.makespan)
          .set("energy", r.energy)
          .set("still_pareto", r.still_pareto);
      rs.push_back(std::move(re));
    }
    e.set("rescored", std::move(rs));
    sf.push_back(std::move(e));
  }
  o.set("measured_frontier", std::move(sf));

  json::Value stats = json::Value::object();
  stats.set("grid_candidates", grid_candidates)
      .set("sim_candidates", sim_candidates)
      .set("sim_pruned", sim_pruned)
      .set("simulated", simulated)
      .set("rescore_runs", rescore_runs)
      .set("cache_hits", cache_hits)
      .set("folded_scored", folded_scored)
      .set("fiber_scored", fiber_scored);
  o.set("stats", std::move(stats))
      .set("frontier_area", frontier_area)
      .set("measured_frontier_area", measured_frontier_area)
      .set("robust_points", robust_points)
      .set("robust_fraction", robust_fraction)
      .set("fault_energy_inflation", fault_energy_inflation)
      .set("crossover_target", crossover_target)
      .set("gflops_per_watt_at_opt", gflops_per_watt_at_opt)
      .set("crossover_generations", crossover_generations)
      .set("crossover_generations_faulted", crossover_generations_faulted);
  return o;
}

ValidationResult validate(const NavReport& rep, const NavRequest& req) {
  ValidationResult out;
  auto fail = [&](std::string msg) {
    out.ok = false;
    out.failures.push_back(std::move(msg));
  };
  const std::unique_ptr<core::AlgModel> model =
      core::make_model(req.model, req.f, req.omega0);
  const double machine_m = req.params.max_msg_words;

  // 1. §V endpoint reproduction. The optimizer answers single constraints;
  //    with two or more simultaneous budgets the composite optimum may
  //    legitimately lie off every seeded point, so the reproduction claims
  //    are scoped: bit-exact recomputation with no budgets, never-beaten
  //    endpoints with at most one.
  const bool endpoint_claims = active_budgets(req.budgets) <= 1;
  if (!req.budgets.any() && rep.min_energy.feasible) {
    const core::Optimizer solver(*model, rep.n, req.params);
    auto same = [](const core::RunPoint& a, const core::RunPoint& b) {
      return a.p == b.p && a.M == b.M && a.T == b.T && a.E == b.E;
    };
    const core::RunPoint want_e = solver.minimize_energy(req.limits);
    const core::RunPoint want_t = solver.minimize_time(req.limits);
    if (!same(rep.min_energy, want_e)) {
      fail("reported min-energy point is not the optimizer answer "
           "bit-exactly");
    }
    if (!same(rep.min_time, want_t)) {
      fail("reported min-time point is not the optimizer answer "
           "bit-exactly");
    }
    // The frontier endpoints are the V-B/V-C corners of those optima;
    // recompute them and demand verbatim membership.
    const core::RunPoint corner_e =
        solver.min_time_given_energy(want_e.E, req.limits);
    const core::RunPoint corner_t =
        solver.min_energy_given_time(want_t.T, req.limits);
    bool found_e = !corner_e.feasible;
    bool found_t = !corner_t.feasible;
    for (const ModelPoint& pt : rep.model_frontier) {
      if (pt.m != machine_m) continue;
      if (pt.p == corner_e.p && pt.M == corner_e.M && pt.T == corner_e.T &&
          pt.E == corner_e.E) {
        found_e = true;
      }
      if (pt.p == corner_t.p && pt.M == corner_t.M && pt.T == corner_t.T &&
          pt.E == corner_t.E) {
        found_t = true;
      }
    }
    if (!found_e) {
      fail("min-time-given-energy corner is not on the frontier "
           "bit-exactly");
    }
    if (!found_t) {
      fail("min-energy-given-time corner is not on the frontier "
           "bit-exactly");
    }
  }
  if (endpoint_claims && rep.min_energy.feasible) {
    for (const ModelPoint& pt : rep.model_frontier) {
      if (pt.m != machine_m) continue;
      if (pt.E < rep.min_energy.E * (1.0 - kEps)) {
        fail(strfmt("frontier point p=%g beats the optimizer min-energy "
                    "answer (E=%g < %g)",
                    pt.p, pt.E, rep.min_energy.E));
      }
      if (pt.T < rep.min_time.T * (1.0 - kEps)) {
        fail(strfmt("frontier point p=%g beats the optimizer min-time "
                    "answer (T=%g < %g)",
                    pt.p, pt.T, rep.min_time.T));
      }
    }
  }

  // 2. Undominated within each message-cap group.
  for (std::size_t i = 0; i < rep.model_frontier.size(); ++i) {
    const ModelPoint& a = rep.model_frontier[i];
    for (std::size_t j = 0; j < rep.model_frontier.size(); ++j) {
      const ModelPoint& b = rep.model_frontier[j];
      if (i == j || a.m != b.m) continue;
      if (dominates(a.T, a.E, b.T, b.E)) {
        fail(strfmt("frontier point (p=%g, M=%g, m=%g) is dominated by "
                    "(p=%g, M=%g)",
                    b.p, b.M, b.m, a.p, a.M));
      }
    }
  }

  // 3. No model point may beat the communication lower bound.
  for (const ModelPoint& pt : rep.model_frontier) {
    const double bound =
        words_lower_bound(req.model, req.omega0, rep.n, pt.p, pt.M);
    if (pt.words < bound * (1.0 - kEps)) {
      fail(strfmt("frontier point (p=%g, M=%g) beats the lower bound: "
                  "W=%g < %g",
                  pt.p, pt.M, pt.words, bound));
    }
  }

  // 4. Perfect-strong-scaling region edges match the closed forms
  //    bit-exactly (they are evaluated from the same expressions).
  if (rep.min_energy.feasible) {
    if (rep.scaling_M != rep.min_energy.M) {
      fail("scaling_M does not equal the min-energy memory");
    }
    if (rep.scaling_p_min != model->p_min(rep.n, rep.scaling_M) ||
        rep.scaling_p_max != model->p_max(rep.n, rep.scaling_M)) {
      fail(strfmt("scaling region [%g, %g] does not match the closed forms "
                  "[%g, %g] bit-exactly",
                  rep.scaling_p_min, rep.scaling_p_max,
                  model->p_min(rep.n, rep.scaling_M),
                  model->p_max(rep.n, rep.scaling_M)));
    }
  }

  // 5. Measured frontier: undominated, above its bound, fully re-scored.
  for (std::size_t i = 0; i < rep.measured_frontier.size(); ++i) {
    const SimPoint& a = rep.measured_frontier[i];
    for (std::size_t j = 0; j < rep.measured_frontier.size(); ++j) {
      if (i == j) continue;
      const SimPoint& b = rep.measured_frontier[j];
      if (dominates(b.makespan, b.energy, a.makespan, a.energy)) {
        fail(strfmt("measured point %s is dominated by %s", a.label.c_str(),
                    b.label.c_str()));
      }
    }
    if (a.words_bound > 0.0 && a.p >= 2 &&
        a.words_per_rank < a.words_bound * (1.0 - kEps)) {
      fail(strfmt("measured point %s beats its lower bound: W/rank=%g < %g",
                  a.label.c_str(), a.words_per_rank, a.words_bound));
    }
    if (req.simulate && !req.fault_plans.empty() &&
        a.rescored.size() != req.fault_plans.size()) {
      fail(strfmt("measured point %s is missing fault re-scores",
                  a.label.c_str()));
    }
  }
  if (req.simulate && !req.fault_plans.empty() &&
      !rep.measured_frontier.empty() && rep.robust_points == 0) {
    fail("no measured frontier point is robust under all fault plans");
  }
  return out;
}

}  // namespace alge::navigator
