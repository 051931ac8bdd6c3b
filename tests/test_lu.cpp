#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "algs/lu/distributed.hpp"
#include "algs/lu/local.hpp"
#include "algs/matmul/local.hpp"  // max_abs_diff
#include "sim/comm.hpp"
#include "sim/machine.hpp"
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

/// Scatter the matrix into per-rank block-cyclic buffers.
std::vector<std::vector<double>> scatter_block_cyclic(
    const std::vector<double>& a, const BlockCyclic& bc) {
  const int q = bc.q;
  std::vector<std::vector<double>> local(
      static_cast<std::size_t>(q) * q,
      std::vector<double>(bc.local_words(), 0.0));
  for (int I = 0; I < bc.nt(); ++I) {
    for (int J = 0; J < bc.nt(); ++J) {
      auto& dst = local[static_cast<std::size_t>(I % q) * q + (J % q)];
      for (int r = 0; r < bc.nb; ++r) {
        for (int cidx = 0; cidx < bc.nb; ++cidx) {
          dst[bc.local_offset(I, J) + static_cast<std::size_t>(r) * bc.nb +
              cidx] = a[static_cast<std::size_t>(I * bc.nb + r) * bc.n +
                        (J * bc.nb + cidx)];
        }
      }
    }
  }
  return local;
}

std::vector<double> gather_block_cyclic(
    const std::vector<std::vector<double>>& local, const BlockCyclic& bc) {
  const int q = bc.q;
  std::vector<double> a(static_cast<std::size_t>(bc.n) * bc.n, 0.0);
  for (int I = 0; I < bc.nt(); ++I) {
    for (int J = 0; J < bc.nt(); ++J) {
      const auto& src = local[static_cast<std::size_t>(I % q) * q + (J % q)];
      for (int r = 0; r < bc.nb; ++r) {
        for (int cidx = 0; cidx < bc.nb; ++cidx) {
          a[static_cast<std::size_t>(I * bc.nb + r) * bc.n +
            (J * bc.nb + cidx)] =
              src[bc.local_offset(I, J) +
                  static_cast<std::size_t>(r) * bc.nb + cidx];
        }
      }
    }
  }
  return a;
}

TEST(LuLocal, FactorReconstructsMatrix) {
  Rng rng(3);
  for (int n : {1, 2, 5, 16, 33}) {
    const auto a = diagonally_dominant_matrix(n, rng);
    auto lu = a;
    lu_factor_inplace(lu, n);
    EXPECT_LT(max_abs_diff(lu_reconstruct(lu, n), a), 1e-9 * n) << n;
  }
}

TEST(LuLocal, TrsmLowerLeftSolves) {
  Rng rng(5);
  const int n = 12;
  const auto a = diagonally_dominant_matrix(n, rng);
  auto lu = a;
  lu_factor_inplace(lu, n);
  const auto b = random_matrix(n, n, rng);
  auto x = b;
  trsm_lower_left(lu, x, n);
  // L·X must equal B (L unit lower from lu).
  std::vector<double> lx(static_cast<std::size_t>(n) * n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k <= i; ++k) {
      const double lik = k == i ? 1.0 : lu[static_cast<std::size_t>(i) * n + k];
      for (int j = 0; j < n; ++j) {
        lx[static_cast<std::size_t>(i) * n + j] +=
            lik * x[static_cast<std::size_t>(k) * n + j];
      }
    }
  }
  EXPECT_LT(max_abs_diff(lx, b), 1e-10);
}

TEST(LuLocal, TrsmUpperRightSolves) {
  Rng rng(6);
  const int n = 12;
  const auto a = diagonally_dominant_matrix(n, rng);
  auto lu = a;
  lu_factor_inplace(lu, n);
  const auto b = random_matrix(n, n, rng);
  auto x = b;
  trsm_upper_right(lu, x, n);
  // X·U must equal B.
  std::vector<double> xu(static_cast<std::size_t>(n) * n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < n; ++k) {
      const double xik = x[static_cast<std::size_t>(i) * n + k];
      for (int j = k; j < n; ++j) {
        xu[static_cast<std::size_t>(i) * n + j] +=
            xik * lu[static_cast<std::size_t>(k) * n + j];
      }
    }
  }
  EXPECT_LT(max_abs_diff(xu, b), 1e-10);
}

TEST(LuLocal, ZeroPivotRejected) {
  std::vector<double> a = {0.0, 1.0, 1.0, 0.0};
  EXPECT_THROW(lu_factor_inplace(a, 2), invalid_argument_error);
}

class Lu2DRuns : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(Lu2DRuns, MatchesSerialFactorization) {
  const auto [q, nb, nt_per] = GetParam();
  const int n = nb * q * nt_per;
  BlockCyclic bc{n, nb, q};
  topo::Grid2D grid(q);
  Rng rng(91);
  const auto A = diagonally_dominant_matrix(n, rng);
  auto serial = A;
  lu_factor_inplace(serial, n);

  auto local = scatter_block_cyclic(A, bc);
  sim::Machine m(unit_config(grid.p()));
  m.run([&](sim::Comm& comm) {
    lu_2d(comm, grid, bc, local[static_cast<std::size_t>(comm.rank())]);
  });
  const auto dist = gather_block_cyclic(local, bc);
  EXPECT_LT(max_abs_diff(dist, serial), 1e-9 * n);
}

INSTANTIATE_TEST_SUITE_P(GridsAndSizes, Lu2DRuns,
                         ::testing::Values(std::tuple{1, 4, 2},
                                           std::tuple{2, 2, 1},
                                           std::tuple{2, 4, 2},
                                           std::tuple{3, 3, 2},
                                           std::tuple{4, 4, 2}));

class Lu25DRuns
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(Lu25DRuns, MatchesSerialFactorization) {
  const auto [q, c, nb, nt_per] = GetParam();
  const int n = nb * q * nt_per;
  BlockCyclic bc{n, nb, q};
  topo::Grid3D grid(q, c);
  Rng rng(92);
  const auto A = diagonally_dominant_matrix(n, rng);
  auto serial = A;
  lu_factor_inplace(serial, n);

  auto local = scatter_block_cyclic(A, bc);  // layer-0 layout
  sim::Machine m(unit_config(grid.p()));
  m.run([&](sim::Comm& comm) {
    const int l = grid.layer_of(comm.rank());
    if (l == 0) {
      const int r = grid.row_of(comm.rank());
      const int cc = grid.col_of(comm.rank());
      lu_25d(comm, grid, bc, local[static_cast<std::size_t>(r) * q + cc]);
    } else {
      lu_25d(comm, grid, bc, {});
    }
  });
  const auto dist = gather_block_cyclic(local, bc);
  EXPECT_LT(max_abs_diff(dist, serial), 1e-9 * n);
}

INSTANTIATE_TEST_SUITE_P(GridsAndSizes, Lu25DRuns,
                         ::testing::Values(std::tuple{2, 1, 4, 2},
                                           std::tuple{2, 2, 2, 2},
                                           std::tuple{2, 2, 4, 2},
                                           std::tuple{3, 2, 3, 2},
                                           std::tuple{4, 2, 2, 2},
                                           std::tuple{2, 4, 2, 4},
                                           // Neither of q, c divides the
                                           // other, and nt is not a
                                           // multiple of lcm(q, c) = 12.
                                           std::tuple{4, 3, 2, 2},
                                           std::tuple{6, 4, 2, 3}));

/// lu_25d at (q, c, nb, nt_per) on a full-data and a ghost machine: the
/// cost state — per-rank counters, totals, makespan, energy — must be
/// bit-identical, so the owned-block loops walk the same schedule whether
/// or not there is data.
void expect_lu25d_cost_parity(int q, int c, int nb, int nt_per) {
  const int n = nb * q * nt_per;
  BlockCyclic bc{n, nb, q};
  topo::Grid3D grid(q, c);
  Rng rng(93);
  const auto local = scatter_block_cyclic(diagonally_dominant_matrix(n, rng),
                                          bc);
  auto program = [&](sim::Comm& comm) {
    const int r = comm.rank();
    if (grid.layer_of(r) != 0) {
      lu_25d(comm, grid, bc, {});
      return;
    }
    sim::Buffer blocks = comm.alloc(bc.local_words());
    if (!comm.ghost()) {
      const auto& mine = local[static_cast<std::size_t>(grid.row_of(r)) * q +
                               grid.col_of(r)];
      std::copy(mine.begin(), mine.end(), blocks.data());
    }
    lu_25d(comm, grid, bc, blocks.view());
  };
  sim::MachineConfig cfg = unit_config(grid.p());
  sim::Machine full(cfg);
  cfg.data_mode = sim::DataMode::kGhost;
  sim::Machine ghost(cfg);
  full.run(program);
  ghost.run(program);
  for (int r = 0; r < grid.p(); ++r) {
    EXPECT_EQ(full.rank_counters(r), ghost.rank_counters(r)) << "rank " << r;
  }
  EXPECT_EQ(full.totals(), ghost.totals());
  EXPECT_EQ(full.makespan(), ghost.makespan());
  EXPECT_EQ(full.energy().breakdown, ghost.energy().breakdown);
}

TEST(LuCosts, GhostMatchesFullWhereGridsDoNotNest) {
  expect_lu25d_cost_parity(4, 3, 2, 2);  // nt = 8 against lcm(4, 3) = 12
  expect_lu25d_cost_parity(6, 4, 2, 3);  // nt = 18 against lcm(6, 4) = 12
  expect_lu25d_cost_parity(3, 2, 3, 2);  // c does not divide q
  expect_lu25d_cost_parity(4, 2, 2, 2);  // c divides q
}

TEST(LuCosts, LatencyGrowsWithReplication) {
  // Section IV: unlike matmul, 2.5D LU's critical-path message count does
  // not shrink with replication — the per-panel synchronization adds
  // depth-broadcast rounds, so S grows with c.
  auto msgs = [&](int q, int c, int nb, int nt_per) {
    const int n = nb * q * nt_per;
    BlockCyclic bc{n, nb, q};
    topo::Grid3D grid(q, c);
    Rng rng(17);
    const auto A = diagonally_dominant_matrix(n, rng);
    auto local = scatter_block_cyclic(A, bc);
    sim::Machine m(unit_config(grid.p()));
    m.run([&](sim::Comm& comm) {
      const int l = grid.layer_of(comm.rank());
      if (l == 0) {
        const int r = grid.row_of(comm.rank());
        const int cc = grid.col_of(comm.rank());
        lu_25d(comm, grid, bc, local[static_cast<std::size_t>(r) * q + cc]);
      } else {
        lu_25d(comm, grid, bc, {});
      }
    });
    return m.totals().msgs_sent_max;
  };
  // Replication must NOT buy the c-fold drop in per-rank messages that it
  // buys matmul (cf. MatmulCosts.ReplicationCutsPerRankBandwidth): the
  // per-panel critical path keeps S pinned near its 2D value.
  const double s_c1 = msgs(2, 1, 2, 4);
  const double s_c2 = msgs(2, 2, 2, 4);
  const double s_c4 = msgs(2, 4, 2, 4);
  EXPECT_GE(s_c2, s_c1 * 0.9);
  EXPECT_GE(s_c4, s_c1 * 0.75);
}

TEST(LuCosts, MoreBlocksMoreMessages) {
  // S grows with the panel count nt = n/nb (the critical path), matching
  // S = Θ(√(cp)) when nb is chosen as n/√(cp).
  auto msgs = [&](int nb, int nt_per) {
    const int q = 2;
    const int n = nb * q * nt_per;
    BlockCyclic bc{n, nb, q};
    topo::Grid2D grid(q);
    Rng rng(19);
    const auto A = diagonally_dominant_matrix(n, rng);
    auto local = scatter_block_cyclic(A, bc);
    sim::Machine m(unit_config(grid.p()));
    m.run([&](sim::Comm& comm) {
      lu_2d(comm, grid, bc, local[static_cast<std::size_t>(comm.rank())]);
    });
    return m.totals().msgs_sent_max;
  };
  // Same n = 16: fine blocks mean more panels and more messages.
  EXPECT_GT(msgs(2, 4), msgs(4, 2));
  EXPECT_GT(msgs(4, 2), msgs(8, 1));
}

TEST(LuRejects, BadBlocking) {
  BlockCyclic bc{10, 3, 2};
  EXPECT_THROW(bc.validate(), invalid_argument_error);
  BlockCyclic bc2{12, 2, 4};  // nt=6 not divisible by q=4
  EXPECT_THROW(bc2.validate(), invalid_argument_error);
}

}  // namespace
}  // namespace alge::algs
