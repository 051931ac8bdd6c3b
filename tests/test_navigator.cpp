// Tests for src/navigator: Pareto/bounds property tests over the reported
// frontiers, bit-exact reproduction of the §V optimizer answers at the
// frontier endpoints, closed-form scaling-region cross-checks, and
// byte-identical report determinism across engine thread counts (the chaos
// re-score included) — the last one is what the TSan CI job re-runs.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/algmodel.hpp"
#include "core/opt.hpp"
#include "machines/db.hpp"
#include "navigator/navigator.hpp"
#include "support/common.hpp"

namespace alge {
namespace {

core::MachineParams case_study_no_mem() {
  core::MachineParams mp = machines::CaseStudyMachine{}.params();
  mp.mem_words = 0.0;  // the optimizer chooses M (bench/sec5_optimizer)
  return mp;
}

navigator::NavRequest analytic_request(const std::string& model,
                                       double n = 1e6) {
  navigator::NavRequest req;
  req.model = model;
  req.n = n;
  req.params = case_study_no_mem();
  req.p_samples = 16;
  req.m_samples = 8;
  return req;
}

/// Strict Pareto dominance on (T, E) as the property tests state it: at
/// least as good in both, strictly better in at least one.
bool dominates(double at, double ae, double bt, double be) {
  return at <= bt && ae <= be && (at < bt || ae < be);
}

// --- Pareto / bounds properties ------------------------------------------

TEST(NavigatorProperties, FrontierPointsAreUndominatedPerMsgCapGroup) {
  for (const char* model : {"nbody", "classical-mm", "strassen", "lu-2.5d",
                            "fft-tree"}) {
    const navigator::NavReport rep =
        navigator::navigate(analytic_request(model));
    ASSERT_FALSE(rep.model_frontier.empty()) << model;
    for (std::size_t i = 0; i < rep.model_frontier.size(); ++i) {
      for (std::size_t j = 0; j < rep.model_frontier.size(); ++j) {
        if (i == j) continue;
        const navigator::ModelPoint& a = rep.model_frontier[i];
        const navigator::ModelPoint& b = rep.model_frontier[j];
        // Different message caps are different machines; dominance is
        // only meaningful within one cap group.
        if (a.m != b.m) continue;
        EXPECT_FALSE(dominates(a.T, a.E, b.T, b.E))
            << model << ": p=" << a.p << " dominates p=" << b.p;
      }
    }
  }
}

TEST(NavigatorProperties, NoPointBeatsTheCommunicationLowerBound) {
  for (const char* model : {"nbody", "classical-mm", "strassen", "lu-2.5d"}) {
    navigator::NavRequest req = analytic_request(model);
    const navigator::NavReport rep = navigator::navigate(req);
    const std::unique_ptr<core::AlgModel> alg =
        core::make_model(req.model, req.f, req.omega0);
    for (const navigator::ModelPoint& pt : rep.model_frontier) {
      const double bound = alg->words_lower_bound(req.n, pt.p, pt.M);
      EXPECT_GE(pt.words, bound * (1.0 - 1e-9))
          << model << " p=" << pt.p << " M=" << pt.M;
      // The report's own recorded bound must be the same recomputation.
      EXPECT_EQ(pt.words_bound, bound) << model << " p=" << pt.p;
    }
  }
}

TEST(NavigatorProperties, ValidateAcceptsRealReportsAndRejectsTampering) {
  navigator::NavRequest req = analytic_request("nbody");
  navigator::NavReport rep = navigator::navigate(req);
  EXPECT_TRUE(navigator::validate(rep, req).ok);

  // A dominated interior point must be caught...
  navigator::NavReport bad = rep;
  navigator::ModelPoint pt = bad.model_frontier.front();
  pt.T += 1.0;
  pt.E += 1.0;
  bad.model_frontier.push_back(pt);
  EXPECT_FALSE(navigator::validate(bad, req).ok);

  // ...and so must a point that claims to beat the lower bound.
  navigator::NavReport cheat = rep;
  cheat.model_frontier.front().words =
      cheat.model_frontier.front().words_bound * 0.5;
  EXPECT_FALSE(navigator::validate(cheat, req).ok);

  // ...and a shifted scaling-region edge.
  navigator::NavReport shifted = rep;
  shifted.scaling_p_max *= 2.0;
  EXPECT_FALSE(navigator::validate(shifted, req).ok);
}

// --- §V bit-exact endpoint reproduction ----------------------------------

TEST(NavigatorSectionV, EndpointsEqualOptimizerAnswersBitExactly) {
  for (const char* name : {"nbody", "classical-mm", "strassen"}) {
    navigator::NavRequest req = analytic_request(name, 1e7);
    const navigator::NavReport rep = navigator::navigate(req);

    const std::unique_ptr<core::AlgModel> model =
        core::make_model(req.model, req.f, req.omega0);
    const core::Optimizer solver(*model, req.n, req.params);
    const core::RunPoint want_e = solver.minimize_energy(req.limits);
    const core::RunPoint want_t = solver.minimize_time(req.limits);

    // Bit-exact: the report carries the optimizer's doubles verbatim.
    EXPECT_EQ(rep.min_energy.p, want_e.p) << name;
    EXPECT_EQ(rep.min_energy.M, want_e.M) << name;
    EXPECT_EQ(rep.min_energy.T, want_e.T) << name;
    EXPECT_EQ(rep.min_energy.E, want_e.E) << name;
    EXPECT_EQ(rep.min_time.T, want_t.T) << name;
    EXPECT_EQ(rep.min_time.E, want_t.E) << name;

    // The frontier's true endpoints are the V-B/V-C corners: min_energy
    // itself ties toward fewest processors — the SLOW end of the flat-E
    // valley — so when E is bit-flat it is dominated by the corner with
    // the same E and less T. Both corners must appear bit-exactly (the
    // seeds carry the optimizer's doubles verbatim).
    const core::RunPoint corner_e =
        solver.min_time_given_energy(want_e.E, req.limits);
    const core::RunPoint corner_t =
        solver.min_energy_given_time(want_t.T, req.limits);
    bool has_corner_e = false;
    bool has_corner_t = false;
    double best_e = rep.model_frontier.front().E;
    double best_t = rep.model_frontier.front().T;
    for (const navigator::ModelPoint& pt : rep.model_frontier) {
      has_corner_e =
          has_corner_e || (pt.p == corner_e.p && pt.M == corner_e.M &&
                           pt.T == corner_e.T && pt.E == corner_e.E);
      has_corner_t =
          has_corner_t || (pt.p == corner_t.p && pt.M == corner_t.M &&
                           pt.T == corner_t.T && pt.E == corner_t.E);
      best_e = std::min(best_e, pt.E);
      best_t = std::min(best_t, pt.T);
    }
    EXPECT_TRUE(has_corner_e) << name;
    EXPECT_TRUE(has_corner_t) << name;
    // And nothing on the frontier beats the §V optima beyond FP noise (a
    // grid point may sit an ULP below; anything more is a real violation).
    EXPECT_GE(best_e, want_e.E * (1.0 - 1e-9)) << name;
    EXPECT_LE(best_e, want_e.E) << name;
    EXPECT_GE(best_t, corner_t.T * (1.0 - 1e-9)) << name;
    EXPECT_LE(best_t, corner_t.T) << name;
  }
}

TEST(NavigatorSectionV, ScalingRegionEdgesMatchClosedForms) {
  navigator::NavRequest req = analytic_request("nbody", 1e7);
  const navigator::NavReport rep = navigator::navigate(req);
  const std::unique_ptr<core::AlgModel> model =
      core::make_model(req.model, req.f, req.omega0);
  EXPECT_EQ(rep.scaling_M, rep.min_energy.M);
  EXPECT_EQ(rep.scaling_p_min, model->p_min(req.n, rep.scaling_M));
  EXPECT_EQ(rep.scaling_p_max, model->p_max(req.n, rep.scaling_M));
  // The perfect-strong-scaling region is non-degenerate on this machine.
  EXPECT_LT(rep.scaling_p_min, rep.scaling_p_max);
}

// --- simulate + chaos re-score -------------------------------------------

navigator::NavRequest sim_request() {
  navigator::NavRequest req = analytic_request("classical-mm", 1e5);
  req.simulate = true;
  req.limits.p_available = 256.0;
  req.sim_points = 4;
  return req;
}

TEST(NavigatorSim, MeasuredFrontierRespectsBoundsAndRescoresEveryPlan) {
  navigator::NavRequest req = sim_request();
  const navigator::NavReport rep = navigator::navigate(req);
  ASSERT_FALSE(rep.measured_frontier.empty());
  EXPECT_TRUE(navigator::validate(rep, req).ok);
  for (const navigator::SimPoint& sp : rep.measured_frontier) {
    if (sp.words_bound > 0.0 && sp.p >= 2) {
      EXPECT_GE(sp.words_per_rank, sp.words_bound * (1.0 - 1e-9))
          << sp.label;
    }
    ASSERT_EQ(sp.rescored.size(), req.fault_plans.size()) << sp.label;
    for (std::size_t j = 0; j < sp.rescored.size(); ++j) {
      EXPECT_EQ(sp.rescored[j].plan, req.fault_plans[j]);
      // Faults never make the simulated run cheaper or faster.
      EXPECT_GE(sp.rescored[j].makespan, sp.makespan * (1.0 - 1e-12))
          << sp.label;
      EXPECT_GE(sp.rescored[j].energy, sp.energy * (1.0 - 1e-12))
          << sp.label;
    }
  }
  EXPECT_GE(rep.robust_points, 1);
  EXPECT_GE(rep.fault_energy_inflation, 1.0);
}

// Byte-identical reports across engine thread counts, chaos re-score
// included. TSan re-runs exactly these (NavigatorDeterminism.*) to prove
// the parallel sweep and the re-score batches race-free.
TEST(NavigatorDeterminism, ReportBytesIdenticalAcrossThreadCounts) {
  navigator::NavRequest req = sim_request();
  req.threads = 1;
  const std::string one = navigator::navigate(req).to_json().dump();
  req.threads = 4;
  const std::string four = navigator::navigate(req).to_json().dump();
  EXPECT_EQ(one, four);
}

TEST(NavigatorDeterminism, RepeatedNavigateIsByteStable) {
  navigator::NavRequest req = sim_request();
  req.threads = 2;
  const std::string a = navigator::navigate(req).to_json().dump();
  const std::string b = navigator::navigate(req).to_json().dump();
  EXPECT_EQ(a, b);
}

// Every model's sim stage, pinned byte for byte: the candidate each entry
// enumerates, its bound and its spec (the engine cache key) all reach the
// report. The goldens are `tools/navigator --model=<m> --n=1e5
// --p-available=64 --simulate=true --sim-points=4 --p-samples=8
// --m-samples=4 --out=<m>.json` on the case-study machine.
TEST(NavigatorGolden, SimStageReportsAreByteIdentical) {
  for (const char* model : {"nbody", "classical-mm", "strassen", "lu-2.5d",
                            "fft-naive", "fft-tree"}) {
    navigator::NavRequest req = analytic_request(model, 1e5);
    req.simulate = true;
    req.limits.p_available = 64.0;
    req.sim_points = 4;
    req.p_samples = 8;
    req.m_samples = 4;
    const std::string path =
        std::string(ALGE_GOLDEN_DIR) + "/navigator/" + model + ".json";
    std::ifstream f(path, std::ios::binary);
    ASSERT_TRUE(f.good()) << path;
    std::stringstream want;
    want << f.rdbuf();
    EXPECT_EQ(navigator::navigate(req).to_json().dump() + "\n", want.str())
        << model;
  }
}

// --- request validation ---------------------------------------------------

TEST(NavigatorRequests, BadRequestsThrow) {
  navigator::NavRequest req = analytic_request("no-such-model");
  EXPECT_THROW(navigator::navigate(req), invalid_argument_error);
  req = analytic_request("nbody");
  req.n = -1.0;
  EXPECT_THROW(navigator::navigate(req), invalid_argument_error);
  req = analytic_request("nbody");
  req.simulate = true;
  req.fault_plans = {"no-such-plan"};
  EXPECT_THROW(navigator::navigate(req), invalid_argument_error);
}

// The FFT candidates split n by its exponent: a doubling loop in int used
// to overflow to 0 for sizes above 2^30 and never return.
TEST(NavigatorRequests, OversizedFftSimSizeIsRefused) {
  for (const char* model : {"fft-naive", "fft-tree"}) {
    for (const int sim_n : {1073741825, 2000000000}) {
      navigator::NavRequest req = analytic_request(model);
      req.simulate = true;
      req.sim_n = sim_n;
      req.limits.p_available = 16.0;
      EXPECT_THROW(navigator::navigate(req), invalid_argument_error)
          << model << " sim_n=" << sim_n;
    }
  }
}

// Grid edges stop at n: doubling them up to sqrt(p_available) used to
// overflow int and divide by zero once p_available passed ~4.6e18.
TEST(NavigatorSim, HugeMachineEnumeratesWithoutOverflow) {
  for (const auto& [model, sim_n] :
       {std::pair{"classical-mm", 16}, std::pair{"lu-2.5d", 48}}) {
    navigator::NavRequest req = analytic_request(model, 1e5);
    req.simulate = true;
    req.sim_n = sim_n;
    req.limits.p_available = 1e30;
    req.sim_points = 2;
    req.fault_plans.clear();
    const navigator::NavReport rep = navigator::navigate(req);
    EXPECT_GT(rep.sim_candidates, 0) << model;
    EXPECT_TRUE(navigator::validate(rep, req).ok) << model;
  }
}

}  // namespace
}  // namespace alge
