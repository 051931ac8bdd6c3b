// The algorithm table is what the engine, chaos, the transports, the
// benches and the examples all run; check every entry × size preset end to
// end: verified full-data runs are sane, the engine and the transport
// simulator backend run the same closure to bit-identical costs, and bad
// names and dimensions are refused up front.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "algs/registry.hpp"
#include "core/algmodel.hpp"
#include "core/opt.hpp"
#include "engine/runner.hpp"
#include "support/common.hpp"
#include "transport/programs.hpp"
#include "transport/run.hpp"

namespace alge::algs {
namespace {

core::MachineParams test_params() {
  return {.gamma_t = 1.0, .beta_t = 2.0, .alpha_t = 10.0, .gamma_e = 1.0,
          .beta_e = 4.0, .alpha_e = 20.0, .delta_e = 1e-4, .eps_e = 1e-2,
          .max_msg_words = 64};
}

struct Case {
  std::string name;
  Problem problem;
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

/// Every entry at size classes 4, 8 and 9, plus the option variants the
/// presets do not reach: CAPS's local Strassen recursion and the Bruck FFT
/// transpose.
std::vector<Case> cases() {
  std::vector<Case> out;
  for (const Entry& e : all()) {
    for (int p : {4, 8, 9}) {
      out.push_back({strfmt("%s_p%d", std::string(e.name).c_str(), p),
                     e.preset(p)});
    }
  }
  out.push_back(
      {"caps_cutoff4", {.alg = "caps", .n = 14, .k = 1, .caps_cutoff = 4}});
  out.push_back({"fft_bruck_p4",
                 {.alg = "fft", .p = 4, .r_dim = 8, .c_dim = 8,
                  .fft_bruck = true}});
  return out;
}

class AlgTable : public ::testing::TestWithParam<Case> {
 protected:
  const Problem& problem() const { return GetParam().problem; }
};

TEST_P(AlgTable, VerifiedRunIsSane) {
  const RunResult r = run(problem(), test_params(), /*verify=*/true);
  EXPECT_EQ(r.p, find(problem().alg).make(problem()).p);
  EXPECT_TRUE(r.verified);
  EXPECT_LT(r.max_abs_error, 1e-8);
  EXPECT_GT(r.makespan, 0.0);
  EXPECT_GT(r.totals.flops_total, 0.0);
  EXPECT_GT(r.words_per_proc(), 0.0);
  EXPECT_GT(r.energy.total(), 0.0);
  // Energy breakdown must be internally consistent.
  const auto& b = r.energy.breakdown;
  EXPECT_NEAR(b.total(),
              b.flops + b.words + b.messages + b.memory + b.leakage, 1e-9);
  EXPECT_DOUBLE_EQ(r.energy.makespan, r.makespan);
}

// One closure on every backend: the engine's simulator path and the
// transport layer's simulator backend run the same program to the same
// costs and the same Eq. (2) energy, bit for bit. (The real backends meet
// the transport simulator's totals in test_transport_conformance.)
TEST_P(AlgTable, EngineAndTransportSimAgreeBitForBit) {
  engine::ExperimentSpec spec = engine::spec_of(problem());
  spec.params = test_params();
  const engine::ExperimentResult via_engine = engine::execute(spec);
  const transport::AlgProgram ap = transport::make_program(problem());
  transport::RunOptions opts;
  opts.p = ap.p;
  opts.params = test_params();
  const transport::RunReport via_transport =
      transport::run(transport::Backend::kSim, opts, ap.program);
  EXPECT_EQ(via_engine.p, via_transport.p);
  EXPECT_TRUE(via_engine.totals == via_transport.totals());
  EXPECT_EQ(via_engine.makespan, via_transport.makespan());
  EXPECT_TRUE(via_engine.energy ==
              via_transport.energy(test_params()).breakdown);
}

INSTANTIATE_TEST_SUITE_P(Presets, AlgTable, ::testing::ValuesIn(cases()),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           return info.param.name;
                         });

TEST(AlgTable, RejectsUnknownNamesAndNonDividingDimensions) {
  EXPECT_THROW(find("qrjob"), invalid_argument_error);
  EXPECT_THROW(run({.alg = "qrjob"}, test_params()), invalid_argument_error);
  const Problem bad[] = {
      {.alg = "mm25d", .n = 10, .q = 4, .c = 1},      // q ∤ n
      {.alg = "mm25d", .n = 12, .q = 3, .c = 2},      // c ∤ q
      {.alg = "summa", .n = 10, .q = 4},              // q ∤ n
      {.alg = "caps", .n = 15, .k = 1},               // share misaligned
      {.alg = "nbody", .n = 10, .c = 2, .p = 8},      // p/c ∤ n
      {.alg = "nbody", .n = 8, .c = 3, .p = 8},       // c ∤ p
      {.alg = "lu", .n = 10, .q = 2, .c = 1, .nb = 4},  // nb ∤ n
      {.alg = "lu", .n = 12, .q = 2, .c = 1, .nb = 4},  // q ∤ n/nb
      {.alg = "fft", .p = 8, .r_dim = 4, .c_dim = 4},   // p ∤ dims
      {.alg = "tsqr", .n = 2, .p = 4, .nb = 4},         // rows_local < b
  };
  for (const Problem& pb : bad) {
    EXPECT_THROW(find(pb.alg).make(pb), invalid_argument_error)
        << pb.alg << " n=" << pb.n;
  }
}

// --- the table is consistent: models, candidates and programs meet ------

TEST(AlgTable, ModelNamesResolveBothWays) {
  for (const Entry& e : all()) {
    for (const std::string_view model : e.models) {
      EXPECT_NO_THROW(core::make_model(std::string(model)))
          << e.name << " names " << model;
    }
  }
  for (const std::string& name : core::model_names()) {
    EXPECT_NO_THROW(core::make_model(name)) << name;
    // Served by at least one entry; entries that share a model enumerate
    // at one default size, since the navigator compares their candidates.
    std::set<int> sim_ns;
    for (const Entry& e : all()) {
      if (std::find(e.models.begin(), e.models.end(), name) !=
          e.models.end()) {
        sim_ns.insert(e.sim_n);
      }
    }
    EXPECT_EQ(sim_ns.size(), 1u) << name;
  }
}

TEST(AlgTable, EveryCandidateIsAValidProblem) {
  const double p_available = core::OptLimits{}.p_available;
  std::map<std::string_view, std::set<std::string>> labels;  // per model
  for (const Entry& e : all()) {
    const std::vector<Candidate> cands = e.candidates(e.sim_n, p_available);
    EXPECT_EQ(cands.empty(), e.models.empty()) << e.name;
    for (const Candidate& c : cands) {
      EXPECT_EQ(c.problem.alg, e.name) << c.label;
      EXPECT_GE(e.make(c.problem).p, 2) << c.label;
      EXPECT_GT(c.model_M, 0.0) << c.label;
      EXPECT_GT(c.words_scale, 0.0) << c.label;
      for (const std::string_view model : e.models) {
        EXPECT_TRUE(labels[model].insert(c.label).second)
            << "duplicate label " << c.label;
      }
      // spec_of inverts problem_of: the spec (the engine cache key)
      // survives the round trip unchanged.
      const engine::ExperimentSpec spec = engine::spec_of(c.problem);
      EXPECT_EQ(engine::spec_of(engine::problem_of(spec)).canonical_json(),
                spec.canonical_json());
    }
  }
}

TEST(Harness, DeterministicAcrossCalls) {
  const Problem pb{.alg = "mm25d", .n = 16, .q = 2, .c = 2, .seed = 9};
  const auto a = run(pb, test_params());
  const auto b = run(pb, test_params());
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.totals.words_total, b.totals.words_total);
  EXPECT_DOUBLE_EQ(a.energy.total(), b.energy.total());
}

TEST(Harness, SeedChangesDataNotCosts) {
  // Different random inputs, identical communication structure.
  Problem pb{.alg = "mm25d", .n = 16, .q = 2, .c = 2, .seed = 1};
  const auto a = run(pb, test_params());
  pb.seed = 2;
  const auto b = run(pb, test_params());
  EXPECT_DOUBLE_EQ(a.totals.words_total, b.totals.words_total);
  EXPECT_DOUBLE_EQ(a.totals.msgs_total, b.totals.msgs_total);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

TEST(Harness, UnverifiedRunSkipsReference) {
  const auto r = run({.alg = "nbody", .n = 64, .c = 2, .p = 8}, test_params(),
                     /*verify=*/false);
  EXPECT_FALSE(r.verified);
  EXPECT_DOUBLE_EQ(r.max_abs_error, 0.0);
}

}  // namespace
}  // namespace alge::algs
