#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "algs/kernels.hpp"
#include "algs/matmul/local.hpp"  // max_abs_diff
#include "algs/nbody/nbody.hpp"
#include "sim/comm.hpp"
#include "sim/machine.hpp"
#include "sim_test_util.hpp"
#include "support/common.hpp"
#include "support/rng.hpp"
#include "topo/grid.hpp"

namespace alge::algs {
namespace {

sim::MachineConfig unit_config(int p) {
  sim::MachineConfig cfg;
  cfg.p = p;
  cfg.params = core::MachineParams::unit();
  return cfg;
}

TEST(NBodyKernel, NewtonThirdLawOnPair) {
  // Two particles pull each other with equal and opposite force.
  std::vector<double> parts = {0.0, 0.0, 0.0, 2.0,   //
                               1.0, 0.0, 0.0, 3.0};
  const auto f = direct_forces(parts);
  ASSERT_EQ(f.size(), 6u);
  EXPECT_GT(f[0], 0.0);             // particle 0 pulled toward +x
  EXPECT_NEAR(f[0], -f[3], 1e-12);  // equal and opposite
  EXPECT_NEAR(f[1], 0.0, 1e-15);
  EXPECT_NEAR(f[2], 0.0, 1e-15);
}

TEST(NBodyKernel, TotalForceIsZero) {
  // Internal forces of an isolated system sum to zero (softening preserves
  // antisymmetry).
  Rng rng(31);
  const auto parts = random_particles(50, rng);
  const auto f = direct_forces(parts);
  double sx = 0.0;
  double sy = 0.0;
  double sz = 0.0;
  for (std::size_t i = 0; i < f.size(); i += 3) {
    sx += f[i];
    sy += f[i + 1];
    sz += f[i + 2];
  }
  EXPECT_NEAR(sx, 0.0, 1e-9);
  EXPECT_NEAR(sy, 0.0, 1e-9);
  EXPECT_NEAR(sz, 0.0, 1e-9);
}

TEST(NBodyKernel, InteractionCountExcludesSelfPairs) {
  Rng rng(1);
  const auto parts = random_particles(10, rng);
  std::vector<double> forces(30, 0.0);
  EXPECT_DOUBLE_EQ(accumulate_forces(parts, parts, forces, true), 90.0);
  std::vector<double> forces2(30, 0.0);
  EXPECT_DOUBLE_EQ(accumulate_forces(parts, parts, forces2, false), 100.0);
}

TEST(NBodyKernel, BlockDecompositionMatchesDirect) {
  // Summing one-sided block contributions reproduces the all-pairs result.
  Rng rng(17);
  const int n = 24;
  const auto parts = random_particles(n, rng);
  const auto ref = direct_forces(parts);
  const int nb = 8;
  std::vector<double> forces(static_cast<std::size_t>(n) * 3, 0.0);
  for (int bt = 0; bt < n / nb; ++bt) {
    auto targets = std::span<const double>(parts).subspan(
        static_cast<std::size_t>(bt) * nb * 4, static_cast<std::size_t>(nb) * 4);
    auto out = std::span<double>(forces).subspan(
        static_cast<std::size_t>(bt) * nb * 3, static_cast<std::size_t>(nb) * 3);
    for (int bs = 0; bs < n / nb; ++bs) {
      auto sources = std::span<const double>(parts).subspan(
          static_cast<std::size_t>(bs) * nb * 4,
          static_cast<std::size_t>(nb) * 4);
      accumulate_forces(targets, sources, out, bt == bs);
    }
  }
  EXPECT_LT(max_abs_diff(forces, ref), 1e-11);
}

// The scalar loop the lane kernels replaced: every variant must match it
// bit for bit. Returns the interaction count it evaluates.
[[gnu::optimize("fp-contract=off")]] double scalar_forces(
    const std::vector<double>& t, const std::vector<double>& s,
    std::vector<double>& f, bool same_block) {
  const std::size_t nt = t.size() / kParticleWords;
  const std::size_t ns = s.size() / kParticleWords;
  double interactions = 0.0;
  for (std::size_t i = 0; i < nt; ++i) {
    const double* ti = t.data() + i * kParticleWords;
    double fx = 0.0;
    double fy = 0.0;
    double fz = 0.0;
    for (std::size_t j = 0; j < ns; ++j) {
      if (same_block && i == j) continue;
      const double* sj = s.data() + j * kParticleWords;
      const double dx = sj[0] - ti[0];
      const double dy = sj[1] - ti[1];
      const double dz = sj[2] - ti[2];
      const double r2 = dx * dx + dy * dy + dz * dz + 1e-4;
      const double inv_r = 1.0 / std::sqrt(r2);
      const double w = 1.0 * ti[3] * sj[3] * inv_r * inv_r * inv_r;
      fx += w * dx;
      fy += w * dy;
      fz += w * dz;
      interactions += 1.0;
    }
    f[i * kForceWords + 0] += fx;
    f[i * kForceWords + 1] += fy;
    f[i * kForceWords + 2] += fz;
  }
  return interactions;
}

TEST(NBodyKernel, EveryIsaVariantBitIdenticalToScalar) {
  // Target counts below, at and past one vector of every width, and a
  // production-sized block; forces start non-zero to check accumulation.
  Rng rng(77);
  for (const int nt : {0, 1, 7, 9, 4096}) {
    for (const bool same_block : {true, false}) {
      const auto t = random_particles(nt, rng);
      const auto s = same_block ? t : random_particles(nt + 3, rng);
      std::vector<double> f0(static_cast<std::size_t>(nt) * kForceWords);
      rng.fill_uniform(f0, -1.0, 1.0);
      std::vector<double> want = f0;
      const double pairs = scalar_forces(t, s, want, same_block);
      std::vector<double> got = f0;
      EXPECT_EQ(accumulate_forces(t, s, got, same_block), pairs);
      EXPECT_TRUE(testutil::same_bits(got, want))
          << "active " << kernels::active().name << " nt=" << nt;
      for (const kernels::Isa& isa : kernels::isas()) {
        if (!isa.supported()) continue;
        got = f0;
        isa.forces(t.data(), t.size() / kParticleWords, s.data(),
                   s.size() / kParticleWords, got.data(), same_block);
        EXPECT_TRUE(testutil::same_bits(got, want))
            << isa.name << " nt=" << nt << " same_block=" << same_block;
      }
    }
  }
}

// --- Parallel algorithm, parameterized over (p, c, n) ---

class NBodyRuns
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(NBodyRuns, MatchesDirectReference) {
  const auto [p, c, n] = GetParam();
  topo::TeamGrid grid(p, c);
  Rng rng(1234);
  const auto parts = random_particles(n, rng);
  const auto ref = direct_forces(parts);
  const int P = grid.cols();
  const int nb = n / P;

  sim::Machine m(unit_config(p));
  std::vector<std::vector<double>> force_blocks(static_cast<std::size_t>(P));
  m.run([&](sim::Comm& comm) {
    const int i = grid.row_of(comm.rank());
    const int j = grid.col_of(comm.rank());
    if (i == 0) {
      auto mine = std::span<const double>(parts).subspan(
          static_cast<std::size_t>(j) * nb * 4,
          static_cast<std::size_t>(nb) * 4);
      std::vector<double> f(static_cast<std::size_t>(nb) * 3, 0.0);
      nbody_replicated(comm, grid, n, mine, f);
      force_blocks[static_cast<std::size_t>(j)] = std::move(f);
    } else {
      nbody_replicated(comm, grid, n, {}, {});
    }
  });

  std::vector<double> forces;
  for (const auto& blk : force_blocks) {
    forces.insert(forces.end(), blk.begin(), blk.end());
  }
  ASSERT_EQ(forces.size(), ref.size());
  EXPECT_LT(max_abs_diff(forces, ref), 1e-10 * n);
}

INSTANTIATE_TEST_SUITE_P(
    GridsAndSizes, NBodyRuns,
    ::testing::Values(std::tuple{1, 1, 12},    // serial
                      std::tuple{4, 1, 16},    // classical ring
                      std::tuple{4, 2, 16},    // 2 teams of 2
                      std::tuple{8, 2, 16},    //
                      std::tuple{9, 3, 18},    // c² = p ("2D limit")
                      std::tuple{16, 4, 32},   //
                      std::tuple{6, 2, 24},    // c does not divide p/c
                      std::tuple{12, 4, 24},   // c > sqrt(p)
                      std::tuple{8, 8, 16}));  // fully replicated

TEST(NBodyCosts, ReplicationCutsPerRankWords) {
  // Eq. 15's W = n²/(p·M): with M = c·(n/p) the per-rank traffic of the
  // shift phase drops by c.
  const int n = 64;
  auto w_max = [&](int p, int c) {
    topo::TeamGrid grid(p, c);
    sim::Machine m(unit_config(p));
    Rng rng(7);
    const auto parts = random_particles(n, rng);
    const int nb = n / grid.cols();
    m.run([&](sim::Comm& comm) {
      const int i = grid.row_of(comm.rank());
      const int j = grid.col_of(comm.rank());
      if (i == 0) {
        auto mine = std::span<const double>(parts).subspan(
            static_cast<std::size_t>(j) * nb * 4,
            static_cast<std::size_t>(nb) * 4);
        std::vector<double> f(static_cast<std::size_t>(nb) * 3, 0.0);
        nbody_replicated(comm, grid, n, mine, f);
      } else {
        nbody_replicated(comm, grid, n, {}, {});
      }
    });
    return m.totals().words_sent_max;
  };
  // Same machine size; replication trades memory for words. The team
  // broadcast/reduce overhead is Θ(log c) blocks, so the c-fold drop in the
  // shift phase needs p/c >> c to show through; p=64, c=4 suffices.
  const double w_c1 = w_max(64, 1);
  const double w_c4 = w_max(64, 4);
  EXPECT_LT(w_c4, w_c1 / 2.0);
}

TEST(NBodyCosts, FlopsAreBalancedAcrossTeams) {
  const int n = 32;
  const int p = 8;
  const int c = 2;
  topo::TeamGrid grid(p, c);
  sim::Machine m(unit_config(p));
  Rng rng(5);
  const auto parts = random_particles(n, rng);
  const int nb = n / grid.cols();
  m.run([&](sim::Comm& comm) {
    const int i = grid.row_of(comm.rank());
    const int j = grid.col_of(comm.rank());
    if (i == 0) {
      auto mine = std::span<const double>(parts).subspan(
          static_cast<std::size_t>(j) * nb * 4,
          static_cast<std::size_t>(nb) * 4);
      std::vector<double> f(static_cast<std::size_t>(nb) * 3, 0.0);
      nbody_replicated(comm, grid, n, mine, f);
    } else {
      nbody_replicated(comm, grid, n, {}, {});
    }
  });
  // Total interactions = n² - n (self-pairs skipped), each charged
  // kInteractionFlops; the reduce adds a few more flops.
  const double interaction_flops = kInteractionFlops * (n * n - n);
  EXPECT_GE(m.totals().flops_total, interaction_flops);
  EXPECT_LT(m.totals().flops_total, interaction_flops * 1.05);
  // No rank does more than ~2x its fair share (offsets split unevenly only
  // by one step).
  EXPECT_LT(m.totals().flops_max, 2.0 * interaction_flops / p);
}

TEST(NBodyRejects, BadBlockCount) {
  topo::TeamGrid grid(4, 2);  // P=2 blocks
  sim::Machine m(unit_config(4));
  auto run = [&] {
    m.run([&](sim::Comm& comm) {
      std::vector<double> parts(4 * 7, 0.0);  // n=7 not divisible by P=2
      std::vector<double> f(3 * 7, 0.0);
      std::span<const double> in;
      std::span<double> out;
      if (grid.row_of(comm.rank()) == 0) {
        in = parts;
        out = f;
      }
      nbody_replicated(comm, grid, 7, in, out);
    });
  };
  EXPECT_THROW(run(), alge::invalid_argument_error);
}

}  // namespace
}  // namespace alge::algs
