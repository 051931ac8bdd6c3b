// Cross-module invariants: properties that must hold for ANY simulated
// program on ANY machine parameters, checked on real algorithm runs.
#include <gtest/gtest.h>

#include <cmath>

#include "algs/registry.hpp"
#include "algs/nbody/nbody.hpp"
#include "core/algmodel.hpp"
#include "core/bounds.hpp"
#include "sim/comm.hpp"
#include "sim/machine.hpp"
#include "support/common.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace alge {
namespace {

core::MachineParams random_machine(Rng& rng) {
  core::MachineParams mp;
  mp.gamma_t = rng.uniform(0.1, 10.0);
  mp.beta_t = rng.uniform(0.1, 10.0);
  mp.alpha_t = rng.uniform(0.1, 100.0);
  mp.gamma_e = rng.uniform(0.1, 10.0);
  mp.beta_e = rng.uniform(0.1, 10.0);
  mp.alpha_e = rng.uniform(0.1, 100.0);
  mp.delta_e = rng.uniform(1e-6, 1e-3);
  mp.eps_e = rng.uniform(0.0, 0.1);
  mp.max_msg_words = std::floor(rng.uniform(8.0, 512.0));
  return mp;
}

class RandomMachines : public ::testing::TestWithParam<int> {};

TEST_P(RandomMachines, ClockDecomposesExactlyAsEq1PlusIdle) {
  // Per-rank invariant of the simulator: the final clock equals
  // γt·F + βt·W_sent + αt·(hop-weighted S) + idle. This is Eq. (1) with
  // waiting made explicit — and it must hold for every rank of every run.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  const core::MachineParams mp = random_machine(rng);
  const auto r = algs::run({.alg = "mm25d", .n = 16, .q = 2, .c = 2}, mp);
  (void)r;
  // Re-run at machine level to inspect per-rank counters.
  sim::MachineConfig cfg;
  cfg.p = 8;
  cfg.params = mp;
  sim::Machine m(cfg);
  m.run([&](sim::Comm& comm) {
    // A mixed workload: compute, collectives, point-to-point.
    comm.compute(100.0 * (comm.rank() + 1));
    std::vector<double> buf(33, 1.0);
    comm.allreduce_sum(buf, sim::Group::world(8));
    if (comm.rank() % 2 == 0) {
      comm.send((comm.rank() + 1) % 8, buf);
    } else {
      comm.recv((comm.rank() + 7) % 8, buf);
    }
    comm.barrier();
  });
  for (int rank = 0; rank < 8; ++rank) {
    const auto& c = m.rank_counters(rank);
    const double expect = mp.gamma_t * c.flops + mp.beta_t * c.words_sent +
                          mp.alpha_t * c.msgs_hops + c.idle_time;
    EXPECT_LT(rel_diff(c.clock, expect), 1e-12) << "rank " << rank;
  }
}

TEST_P(RandomMachines, WordsConservedAcrossTheNetwork) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 17 + 3);
  const core::MachineParams mp = random_machine(rng);
  sim::MachineConfig cfg;
  cfg.p = 9;
  cfg.params = mp;
  sim::Machine m(cfg);
  m.run([&](sim::Comm& comm) {
    std::vector<double> buf(17, 1.0);
    std::vector<double> out(17 * 9);
    comm.allgather(buf, out, sim::Group::world(9));
    comm.allreduce_sum(buf, sim::Group::world(9));
  });
  double sent = 0.0;
  double received = 0.0;
  for (int r = 0; r < 9; ++r) {
    sent += m.rank_counters(r).words_sent;
    received += m.rank_counters(r).words_recv;
  }
  EXPECT_DOUBLE_EQ(sent, received);
}

TEST_P(RandomMachines, SimulatedMatmulEnergyTracksModelWithinBand) {
  // The end-to-end story: Eq. (2) evaluated on the measured run must stay
  // within a small constant of the analytic model across random machines
  // (collective log-factors and block constants are the gap).
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 101 + 13);
  const core::MachineParams mp = random_machine(rng);
  const int n = 32;
  const int q = 4;
  const int c = 2;
  const auto r = algs::run({.alg = "mm25d", .n = n, .q = q, .c = c}, mp);
  core::ClassicalMatmulModel model;
  const double p = static_cast<double>(q) * q * c;
  const double M = static_cast<double>(n) * n * c / p;
  const double e_model = model.energy(n, p, M, mp);
  const double ratio = r.energy.total() / e_model;
  EXPECT_GT(ratio, 0.5) << mp.to_string();
  EXPECT_LT(ratio, 12.0) << mp.to_string();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMachines, ::testing::Range(0, 10));

TEST(BoundsCheck, MeasuredTrafficAttainsLowerBounds) {
  // Communication optimality, asserted: measured W/rank within a small
  // constant of the Section-III lower bound, for every algorithm family.
  const core::MachineParams mp = core::MachineParams::unit();
  {
    const int n = 48;
    for (auto [q, c] : {std::pair{4, 1}, {4, 2}, {4, 4}}) {
      const double p = static_cast<double>(q) * q * c;
      const double M = 3.0 * n * n * c / p;
      const auto r = algs::run({.alg = "mm25d", .n = n, .q = q, .c = c}, mp);
      const double bound = core::bounds::matmul_words(n, p, M);
      const double ratio = r.words_per_proc() / bound;
      EXPECT_GT(ratio, 0.8) << "q=" << q << " c=" << c;
      EXPECT_LT(ratio, 16.0) << "q=" << q << " c=" << c;
    }
  }
  {
    const int n = 128;
    for (auto [p, c] : {std::pair{8, 1}, {16, 2}}) {
      const double M = static_cast<double>(n) * c / p;
      const auto r = algs::run({.alg = "nbody", .n = n, .c = c, .p = p}, mp);
      const double bound =
          core::bounds::nbody_words(n, p, M) * algs::kParticleWords;
      const double ratio = r.words_per_proc() / bound;
      EXPECT_GT(ratio, 0.5);
      EXPECT_LT(ratio, 16.0);
    }
  }
}

TEST(BoundsCheck, FormulasMatchHandValues) {
  // Eq. (3): max(I+O, F/sqrt(M)).
  EXPECT_DOUBLE_EQ(core::bounds::sequential_words(1000.0, 25.0, 10.0, 20.0),
                   200.0);
  EXPECT_DOUBLE_EQ(core::bounds::sequential_words(10.0, 25.0, 10.0, 20.0),
                   30.0);
  // Eq. (4) divides by m.
  EXPECT_DOUBLE_EQ(
      core::bounds::sequential_messages(1000.0, 25.0, 4.0, 0.0, 0.0), 50.0);
  // Eq. (5) clamps at zero.
  EXPECT_DOUBLE_EQ(core::bounds::parallel_words(10.0, 100.0, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(core::bounds::parallel_words(1000.0, 100.0, 50.0), 50.0);
  // Memory-independent floors kick in at the strong-scaling limit.
  const double n = 1024.0;
  const double M = 4096.0;
  const double p_limit = n * n * n / std::pow(M, 1.5);
  EXPECT_LT(
      rel_diff(core::bounds::matmul_words(n, p_limit, M),
               n * n / std::pow(p_limit, 2.0 / 3.0)),
      1e-9);
  EXPECT_THROW(core::bounds::matmul_words(0.0, 1.0, 1.0),
               invalid_argument_error);
}

TEST(RingBcast, DeliversAndSavesRootBandwidth) {
  const int p = 8;
  sim::MachineConfig cfg;
  cfg.p = p;
  cfg.params = core::MachineParams::unit();
  const std::size_t k = 64;

  auto run = [&](bool ring) {
    sim::Machine m(cfg);
    std::vector<std::vector<double>> got(static_cast<std::size_t>(p));
    m.run([&](sim::Comm& comm) {
      std::vector<double> data(k, 0.0);
      if (comm.rank() == 2) {
        for (std::size_t i = 0; i < k; ++i) data[i] = static_cast<double>(i);
      }
      if (ring) {
        comm.bcast_ring(data, 2, sim::Group::world(p));
      } else {
        comm.bcast(data, 2, sim::Group::world(p));
      }
      got[static_cast<std::size_t>(comm.rank())] = data;
    });
    for (int r = 0; r < p; ++r) {
      EXPECT_DOUBLE_EQ(got[static_cast<std::size_t>(r)][10], 10.0)
          << "rank " << r;
    }
    return std::pair{m.rank_counters(2).words_sent,
                     m.totals().words_sent_max};
  };
  const auto [ring_root, ring_max] = run(true);
  const auto [tree_root, tree_max] = run(false);
  // Ring: the root (and every forwarder) sends exactly k words.
  EXPECT_DOUBLE_EQ(ring_root, static_cast<double>(k));
  EXPECT_DOUBLE_EQ(ring_max, static_cast<double>(k));
  // Binomial root sends log2(p) copies.
  EXPECT_DOUBLE_EQ(tree_root, k * std::log2(p));
}

TEST(RingBcast, WorksOnSubgroupsAndTinyPayloads) {
  sim::MachineConfig cfg;
  cfg.p = 7;
  cfg.params = core::MachineParams::unit();
  sim::Machine m(cfg);
  std::vector<double> results(7, -1.0);
  m.run([&](sim::Comm& comm) {
    if (comm.rank() < 2) return;  // group of 5
    sim::Group g = sim::Group::strided(2, 5, 1);
    std::vector<double> x = {comm.rank() == 4 ? 42.0 : 0.0};
    comm.bcast_ring(x, g.index_of(4), g, /*segments=*/3);
    results[static_cast<std::size_t>(comm.rank())] = x[0];
  });
  for (int r = 2; r < 7; ++r) {
    EXPECT_DOUBLE_EQ(results[static_cast<std::size_t>(r)], 42.0);
  }
}

}  // namespace
}  // namespace alge
