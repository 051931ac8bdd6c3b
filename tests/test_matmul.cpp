#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "algs/kernels.hpp"
#include "algs/matmul/distributed.hpp"
#include "algs/matmul/local.hpp"
#include "sim/comm.hpp"
#include "sim/machine.hpp"
#include "sim_test_util.hpp"
#include "support/rng.hpp"
#include "topo/grid.hpp"

namespace alge::algs {
namespace {

using testutil::block_of;
using testutil::reference_matmul;
using testutil::same_bits;
using testutil::set_block;

sim::MachineConfig unit_config(int p) {
  sim::MachineConfig cfg;
  cfg.p = p;
  cfg.params = core::MachineParams::unit();
  return cfg;
}

// The scalar ikj loop the kernels replaced: every variant must match it bit
// for bit. Contraction is off so the reference stays unfused even in a
// build that targets an FMA machine.
[[gnu::optimize("fp-contract=off")]] void naive_matmul(
    const double* a, const double* b, double* c, int m, int k, int n,
    bool subtract) {
  for (int i = 0; i < m; ++i) {
    for (int l = 0; l < k; ++l) {
      const double ail = a[static_cast<std::size_t>(i) * k + l];
      const double* brow = b + static_cast<std::size_t>(l) * n;
      double* crow = c + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) {
        if (subtract) {
          crow[j] -= ail * brow[j];
        } else {
          crow[j] += ail * brow[j];
        }
      }
    }
  }
}

TEST(LocalMatmul, MatchesNaiveOnRectangles) {
  Rng rng(42);
  for (auto [m, k, n] : {std::tuple{3, 5, 7}, {16, 16, 16}, {1, 9, 2},
                         {65, 33, 17}}) {
    const auto a = random_matrix(m, k, rng);
    const auto b = random_matrix(k, n, rng);
    std::vector<double> c1(static_cast<std::size_t>(m) * n, 0.0);
    std::vector<double> c2(static_cast<std::size_t>(m) * n, 0.0);
    matmul_add(a.data(), b.data(), c1.data(), m, k, n);
    naive_matmul(a.data(), b.data(), c2.data(), m, k, n, false);
    EXPECT_TRUE(same_bits(c1, c2)) << m << "x" << k << "x" << n;
  }
}

TEST(LocalMatmul, EveryIsaVariantBitIdenticalToNaive) {
  // Fixed shapes hit the edges (empty, 1, one full 4×24 tile and k-block,
  // one past each); seeded random ones in [0, 300] hit every mix of row,
  // vector, scalar-column and k-block remainders.
  std::vector<std::tuple<int, int, int>> shapes = {
      {0, 0, 0},   {0, 7, 5},    {5, 0, 7},    {5, 7, 0},    {1, 1, 1},
      {1, 300, 1}, {4, 128, 24}, {5, 129, 25}, {3, 257, 23}, {300, 1, 300}};
  Rng rng(2024);
  const auto dim = [&rng] { return static_cast<int>(rng.next_below(301)); };
  for (int t = 0; t < 40; ++t) {
    const int m = dim();
    const int k = dim();
    shapes.emplace_back(m, k, dim());
  }
  for (const auto& [m, k, n] : shapes) {
    const auto a = random_matrix(m, k, rng);
    const auto b = random_matrix(k, n, rng);
    const auto c0 = random_matrix(m, n, rng);
    for (const bool subtract : {false, true}) {
      std::vector<double> want = c0;
      naive_matmul(a.data(), b.data(), want.data(), m, k, n, subtract);
      for (const kernels::Isa& isa : kernels::isas()) {
        if (!isa.supported()) continue;
        std::vector<double> got = c0;
        isa.matmul(a.data(), b.data(), got.data(), m, k, n, subtract);
        EXPECT_TRUE(same_bits(got, want))
            << isa.name << " " << m << "x" << k << "x" << n
            << (subtract ? " subtract" : " add");
      }
    }
  }
}

TEST(LocalMatmul, AccumulatesIntoC) {
  Rng rng(7);
  const int n = 8;
  const auto a = random_matrix(n, n, rng);
  const auto b = random_matrix(n, n, rng);
  std::vector<double> c(static_cast<std::size_t>(n) * n, 1.0);
  matmul_add(a.data(), b.data(), c.data(), n, n, n);
  auto expect = reference_matmul(a, b, n);
  for (auto& x : expect) x += 1.0;
  EXPECT_LT(max_abs_diff(c, expect), 1e-12);
}

// --- 2D algorithms, parameterized over grid size ---

class MatmulGrids : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MatmulGrids, CannonMatchesReference) {
  const auto [q, n] = GetParam();
  topo::Grid2D grid(q);
  Rng rng(1234);
  const auto A = random_matrix(n, n, rng);
  const auto B = random_matrix(n, n, rng);
  sim::Machine m(unit_config(grid.p()));
  std::vector<std::vector<double>> c_blocks(
      static_cast<std::size_t>(grid.p()));
  m.run([&](sim::Comm& comm) {
    const int i = grid.row_of(comm.rank());
    const int j = grid.col_of(comm.rank());
    const auto a = block_of(A, n, q, i, j);
    const auto b = block_of(B, n, q, i, j);
    std::vector<double> c(a.size(), 0.0);
    cannon_2d(comm, grid, n, a, b, c);
    c_blocks[static_cast<std::size_t>(comm.rank())] = std::move(c);
  });
  std::vector<double> C(static_cast<std::size_t>(n) * n, 0.0);
  for (int r = 0; r < grid.p(); ++r) {
    set_block(C, n, q, grid.row_of(r), grid.col_of(r),
              c_blocks[static_cast<std::size_t>(r)]);
  }
  EXPECT_LT(max_abs_diff(C, reference_matmul(A, B, n)), 1e-10 * n);
}

TEST_P(MatmulGrids, SummaMatchesReference) {
  const auto [q, n] = GetParam();
  topo::Grid2D grid(q);
  Rng rng(99);
  const auto A = random_matrix(n, n, rng);
  const auto B = random_matrix(n, n, rng);
  sim::Machine m(unit_config(grid.p()));
  std::vector<std::vector<double>> c_blocks(
      static_cast<std::size_t>(grid.p()));
  m.run([&](sim::Comm& comm) {
    const int i = grid.row_of(comm.rank());
    const int j = grid.col_of(comm.rank());
    const auto a = block_of(A, n, q, i, j);
    const auto b = block_of(B, n, q, i, j);
    std::vector<double> c(a.size(), 0.0);
    summa_2d(comm, grid, n, a, b, c);
    c_blocks[static_cast<std::size_t>(comm.rank())] = std::move(c);
  });
  std::vector<double> C(static_cast<std::size_t>(n) * n, 0.0);
  for (int r = 0; r < grid.p(); ++r) {
    set_block(C, n, q, grid.row_of(r), grid.col_of(r),
              c_blocks[static_cast<std::size_t>(r)]);
  }
  EXPECT_LT(max_abs_diff(C, reference_matmul(A, B, n)), 1e-10 * n);
}

INSTANTIATE_TEST_SUITE_P(GridsAndSizes, MatmulGrids,
                         ::testing::Values(std::tuple{1, 8}, std::tuple{2, 8},
                                           std::tuple{2, 16},
                                           std::tuple{3, 12},
                                           std::tuple{4, 16},
                                           std::tuple{4, 32},
                                           std::tuple{5, 20}));

// --- 2.5D, parameterized over (q, c, n) ---

class Matmul25D
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(Matmul25D, MatchesReference) {
  const auto [q, c, n] = GetParam();
  topo::Grid3D grid(q, c);
  Rng rng(4321);
  const auto A = random_matrix(n, n, rng);
  const auto B = random_matrix(n, n, rng);
  sim::Machine m(unit_config(grid.p()));
  std::vector<std::vector<double>> c_blocks(
      static_cast<std::size_t>(grid.p()));
  m.run([&](sim::Comm& comm) {
    const int i = grid.row_of(comm.rank());
    const int j = grid.col_of(comm.rank());
    const int l = grid.layer_of(comm.rank());
    if (l == 0) {
      const auto a = block_of(A, n, q, i, j);
      const auto b = block_of(B, n, q, i, j);
      std::vector<double> cb(a.size(), 0.0);
      mm_25d(comm, grid, n, a, b, cb);
      c_blocks[static_cast<std::size_t>(comm.rank())] = std::move(cb);
    } else {
      mm_25d(comm, grid, n, {}, {}, {});
    }
  });
  std::vector<double> C(static_cast<std::size_t>(n) * n, 0.0);
  for (int i = 0; i < q; ++i) {
    for (int j = 0; j < q; ++j) {
      set_block(C, n, q, i, j,
                c_blocks[static_cast<std::size_t>(grid.rank_of(i, j, 0))]);
    }
  }
  EXPECT_LT(max_abs_diff(C, reference_matmul(A, B, n)), 1e-10 * n);
}

INSTANTIATE_TEST_SUITE_P(
    GridsAndSizes, Matmul25D,
    ::testing::Values(std::tuple{2, 1, 8},   // degenerates to Cannon
                      std::tuple{2, 2, 8},   // 3D cube p=8
                      std::tuple{4, 1, 16},  //
                      std::tuple{4, 2, 16},  // true 2.5D, p=32
                      std::tuple{4, 2, 32},  //
                      std::tuple{4, 4, 16},  // 3D cube p=64
                      std::tuple{6, 2, 24},  // non-power-of-two q
                      std::tuple{6, 3, 24}));

TEST(Matmul25D, RejectsBadReplicationFactor) {
  topo::Grid3D grid(4, 3);  // c=3 does not divide q=4
  sim::Machine m(unit_config(grid.p()));
  EXPECT_THROW(m.run([&](sim::Comm& comm) {
                 std::vector<double> z(16, 0.0);
                 mm_25d(comm, grid, 16, z, z, z);
               }),
               invalid_argument_error);
}

TEST(MatmulCosts, CannonPerRankWordsMatchTheory) {
  // Cannon moves 2 blocks per step for q-1 steps plus the initial skew:
  // every rank sends exactly 2(q-1)·nb² + (skew sends, ≤ 2nb²) words.
  const int q = 4;
  const int n = 32;
  const int nb2 = (n / q) * (n / q);
  topo::Grid2D grid(q);
  sim::Machine m(unit_config(grid.p()));
  Rng rng(5);
  m.run([&](sim::Comm& comm) {
    const auto a = random_matrix(n / q, n / q, rng);
    const auto b = random_matrix(n / q, n / q, rng);
    std::vector<double> c(a.size(), 0.0);
    cannon_2d(comm, grid, n, a, b, c);
  });
  const auto t = m.totals();
  // Max per rank: skew (2 blocks, except the ranks whose skew is a
  // self-send) + 2(q-1) shift blocks.
  EXPECT_DOUBLE_EQ(t.words_sent_max, (2.0 * (q - 1) + 2.0) * nb2);
  // Every rank computes q block-multiplies.
  EXPECT_DOUBLE_EQ(t.flops_total,
                   static_cast<double>(grid.p()) * q * 2.0 * nb2 * (n / q));
}

TEST(MatmulCosts, ReplicationCutsPerRankBandwidth) {
  // The 2.5D claim at the heart of the paper, measured on the simulator:
  // with the same per-rank block size (fixed M), multiplying the processor
  // count by c cuts each rank's shift-phase traffic by c. The replication
  // broadcast itself costs Θ(log c) blocks, so at finite q the ratio is
  // (q/c + log c + O(1)) / (q + O(1)); q=8 is enough to see the drop.
  const int n = 32;
  auto run = [&](int q, int c) {
    topo::Grid3D grid(q, c);
    sim::Machine m(unit_config(grid.p()));
    Rng rng(17);
    const auto A = testutil::reference_matmul(
        random_matrix(n, n, rng), random_matrix(n, n, rng), n);  // any data
    m.run([&](sim::Comm& comm) {
      const int i = grid.row_of(comm.rank());
      const int j = grid.col_of(comm.rank());
      if (grid.layer_of(comm.rank()) == 0) {
        const auto a = block_of(A, n, q, i, j);
        const auto b = block_of(A, n, q, i, j);
        std::vector<double> cb(a.size(), 0.0);
        mm_25d(comm, grid, n, a, b, cb);
      } else {
        mm_25d(comm, grid, n, {}, {}, {});
      }
    });
    return m.totals().words_sent_max;
  };
  const double w_c1 = run(8, 1);
  const double w_c2 = run(8, 2);
  const double w_c4 = run(8, 4);
  EXPECT_LT(w_c2, w_c1);
  EXPECT_LT(w_c4, w_c2);
  EXPECT_LE(w_c4, 0.6 * w_c1);
}

TEST(MatmulDeterminism, RepeatedRunsProduceIdenticalCounters) {
  const int q = 2;
  const int n = 8;
  topo::Grid2D grid(q);
  auto run_once = [&] {
    sim::Machine m(unit_config(grid.p()));
    Rng rng(3);
    const auto A = random_matrix(n, n, rng);
    const auto B = random_matrix(n, n, rng);
    m.run([&](sim::Comm& comm) {
      const auto a = block_of(A, n, q, grid.row_of(comm.rank()),
                              grid.col_of(comm.rank()));
      const auto b = block_of(B, n, q, grid.row_of(comm.rank()),
                              grid.col_of(comm.rank()));
      std::vector<double> c(a.size(), 0.0);
      cannon_2d(comm, grid, n, a, b, c);
    });
    return std::tuple{m.makespan(), m.totals().words_total,
                      m.totals().msgs_total, m.totals().flops_total};
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace alge::algs
