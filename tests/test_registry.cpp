// The algorithm table is what the engine, chaos, the transports, the
// benches and the examples all run; check every entry × size preset end to
// end: verified full-data runs are sane, the engine and the transport
// simulator backend run the same closure to bit-identical costs, and bad
// names and dimensions are refused up front.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "algs/registry.hpp"
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

engine::ExperimentSpec spec_of(const Problem& pb) {
  return {.alg = engine::alg_from_string(pb.alg), .params = test_params(),
          .n = pb.n, .q = pb.q, .c = pb.c, .p = pb.p, .k = pb.k, .nb = pb.nb,
          .r_dim = pb.r_dim, .c_dim = pb.c_dim,
          .ring_replication = pb.ring_replication,
          .caps_schedule = pb.caps_schedule, .caps_cutoff = pb.caps_cutoff,
          .fft_bruck = pb.fft_bruck, .seed = pb.seed, .fault_plan = {},
          .transport = {}};
}

class AlgTable : public ::testing::TestWithParam<Case> {
 protected:
  const Problem& problem() const { return GetParam().problem; }
};

TEST_P(AlgTable, VerifiedRunIsSane) {
  const RunResult r = run(problem(), test_params(), /*verify=*/true);
  EXPECT_EQ(r.p, find(problem().alg).ranks(problem()));
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
// costs, bit for bit.
TEST_P(AlgTable, EngineAndTransportSimAgreeBitForBit) {
  const engine::ExperimentResult via_engine =
      engine::execute(spec_of(problem()));
  const transport::AlgProgram ap = transport::make_program(problem());
  transport::RunOptions opts;
  opts.p = ap.p;
  opts.params = test_params();
  const transport::RunReport via_transport =
      transport::run(transport::Backend::kSim, opts, ap.program);
  EXPECT_EQ(via_engine.p, via_transport.p);
  EXPECT_TRUE(via_engine.totals == via_transport.totals());
  EXPECT_EQ(via_engine.makespan, via_transport.makespan());
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
