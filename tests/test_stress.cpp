// Stress sweep: every algorithm family executed under randomized machine
// parameters, always verified against its sequential reference and always
// satisfying the energy-ledger identities. Machine parameters must never
// affect *results* — only clocks and joules.
#include <gtest/gtest.h>

#include <cmath>

#include "algs/registry.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace alge::algs {
namespace {

core::MachineParams random_machine(std::uint64_t seed) {
  Rng rng(seed);
  core::MachineParams mp;
  mp.gamma_t = rng.uniform(1e-3, 1e2);
  mp.beta_t = rng.uniform(1e-3, 1e2);
  mp.alpha_t = rng.uniform(1e-3, 1e3);
  mp.gamma_e = rng.uniform(1e-3, 1e2);
  mp.beta_e = rng.uniform(1e-3, 1e2);
  mp.alpha_e = rng.uniform(1e-3, 1e3);
  mp.delta_e = rng.uniform(1e-9, 1e-3);
  mp.eps_e = rng.uniform(0.0, 1.0);
  mp.max_msg_words = std::floor(rng.uniform(4.0, 4096.0));
  return mp;
}

class StressSeeds : public ::testing::TestWithParam<int> {
 protected:
  const std::uint64_t seed_ = static_cast<std::uint64_t>(GetParam());
  core::MachineParams mp_ = random_machine(seed_ * 7907 + 11);

  /// Run `pb` with this seed's inputs on this seed's machine, verified.
  void check(Problem pb) const {
    pb.seed = seed_;
    const RunResult r = run(pb, mp_, /*verify=*/true);
    EXPECT_TRUE(r.verified);
    EXPECT_LT(r.max_abs_error, 1e-7);
    EXPECT_GT(r.makespan, 0.0);
    const auto& b = r.energy.breakdown;
    EXPECT_GT(b.total(), 0.0);
    EXPECT_NEAR(b.total(),
                b.flops + b.words + b.messages + b.memory + b.leakage,
                1e-9 * b.total());
  }
};

TEST_P(StressSeeds, Matmul25D) {
  check({.alg = "mm25d", .n = 24, .q = 2, .c = 2});
}

TEST_P(StressSeeds, Summa) { check({.alg = "summa", .n = 24, .q = 3}); }

TEST_P(StressSeeds, Caps) {
  check({.alg = "caps", .n = 14, .k = 1, .caps_cutoff = 4});
}

TEST_P(StressSeeds, NBody) {
  check({.alg = "nbody", .n = 48, .c = 2, .p = 8});
}

TEST_P(StressSeeds, Lu25D) {
  check({.alg = "lu", .n = 16, .q = 2, .c = 2, .nb = 2});
}

TEST_P(StressSeeds, Fft) {
  check({.alg = "fft", .p = 4, .r_dim = 16, .c_dim = 16, .fft_bruck = true});
}

TEST_P(StressSeeds, ResultsIndependentOfMachineParameters) {
  // The same seed must give bit-identical *data* under any machine: only
  // the clocks and joules may differ.
  const Problem pb{.alg = "mm25d", .n = 16, .q = 2, .c = 2, .seed = 99};
  const auto a = run(pb, mp_, true);
  const auto b = run(pb, core::MachineParams::unit(), true);
  EXPECT_DOUBLE_EQ(a.max_abs_error, b.max_abs_error);
  EXPECT_DOUBLE_EQ(a.totals.flops_total, b.totals.flops_total);
  EXPECT_DOUBLE_EQ(a.totals.words_total, b.totals.words_total);
}

INSTANTIATE_TEST_SUITE_P(Machines, StressSeeds, ::testing::Range(0, 6));

}  // namespace
}  // namespace alge::algs
