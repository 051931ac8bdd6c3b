#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "algs/kernels.hpp"
#include "algs/matmul/local.hpp"
#include "algs/qr/tsqr.hpp"
#include "sim/comm.hpp"
#include "sim/machine.hpp"
#include "sim_test_util.hpp"
#include "support/common.hpp"
#include "support/rng.hpp"

namespace alge::algs {
namespace {

sim::MachineConfig unit_config(int p) {
  sim::MachineConfig cfg;
  cfg.p = p;
  cfg.params = core::MachineParams::unit();
  return cfg;
}

/// BᵀB for an m×b row-major block (the Gram matrix R must reproduce).
std::vector<double> gram(std::span<const double> a, int m, int b) {
  std::vector<double> g(static_cast<std::size_t>(b) * b, 0.0);
  for (int i = 0; i < b; ++i) {
    for (int j = 0; j < b; ++j) {
      double s = 0.0;
      for (int r = 0; r < m; ++r) {
        s += a[static_cast<std::size_t>(r) * b + i] *
             a[static_cast<std::size_t>(r) * b + j];
      }
      g[static_cast<std::size_t>(i) * b + j] = s;
    }
  }
  return g;
}

TEST(HouseholderQr, RIsUpperTriangular) {
  Rng rng(1);
  const int m = 12;
  const int b = 5;
  auto a = random_matrix(m, b, rng);
  const auto r = householder_qr_r(a, m, b);
  for (int i = 0; i < b; ++i) {
    for (int j = 0; j < i; ++j) {
      EXPECT_NEAR(r[static_cast<std::size_t>(i) * b + j], 0.0, 1e-14);
    }
  }
}

TEST(HouseholderQr, GramMatrixPreserved) {
  // QᵀQ = I  =>  AᵀA = RᵀR: the factorization-independent check.
  Rng rng(2);
  const int m = 20;
  const int b = 6;
  const auto a0 = random_matrix(m, b, rng);
  auto a = a0;
  const auto r = householder_qr_r(a, m, b);
  const auto want = gram(a0, m, b);
  const auto got = gram(r, b, b);
  EXPECT_LT(max_abs_diff(got, want), 1e-10 * m);
}

TEST(HouseholderQr, SquareCaseMatchesDiagonalSigns) {
  // For an already-upper-triangular A with positive diagonal, R = A up to
  // sign conventions; check |R| == |A|.
  const int b = 3;
  std::vector<double> a = {2.0, 1.0, 3.0,  //
                           0.0, 4.0, 5.0,  //
                           0.0, 0.0, 6.0};
  auto work = a;
  const auto r = householder_qr_r(work, b, b);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(std::fabs(r[i]), std::fabs(a[i]), 1e-12);
  }
}

TEST(HouseholderQr, RankDeficientColumnHandled) {
  // A zero column must not divide by zero; its R column is zero above too.
  const int m = 4;
  const int b = 2;
  std::vector<double> a = {1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 4.0, 0.0};
  const auto r = householder_qr_r(a, m, b);
  EXPECT_NEAR(r[1], 0.0, 1e-14);
  EXPECT_NEAR(r[3], 0.0, 1e-14);
}

// The column-at-a-time Householder loop the kernels replaced: every variant
// must leave the whole block bit for bit as it does. Contraction is off so
// the reference stays unfused even in a build that targets an FMA machine.
[[gnu::optimize("fp-contract=off")]] void scalar_householder(
    std::vector<double>& a, int m, int b) {
  std::vector<double> v(static_cast<std::size_t>(m));
  auto at = [&](int i, int j) -> double& {
    return a[static_cast<std::size_t>(i) * b + j];
  };
  auto vi = [&](int i) -> double& { return v[static_cast<std::size_t>(i)]; };
  for (int k = 0; k < b; ++k) {
    double norm2 = 0.0;
    for (int i = k; i < m; ++i) norm2 += at(i, k) * at(i, k);
    const double norm = std::sqrt(norm2);
    if (norm == 0.0) continue;
    const double alpha = at(k, k) >= 0.0 ? -norm : norm;
    double vnorm2 = 0.0;
    for (int i = k; i < m; ++i) {
      vi(i) = at(i, k) - (i == k ? alpha : 0.0);
      vnorm2 += vi(i) * vi(i);
    }
    if (vnorm2 == 0.0) continue;
    for (int j = k; j < b; ++j) {
      double dot = 0.0;
      for (int i = k; i < m; ++i) dot += vi(i) * at(i, j);
      const double scale = 2.0 * dot / vnorm2;
      for (int i = k; i < m; ++i) at(i, j) -= scale * vi(i);
    }
  }
}

/// Every variant the host runs leaves the block as the scalar loop does.
void expect_every_isa_matches_scalar(const std::vector<double>& a0, int m,
                                     int b) {
  auto want = a0;
  scalar_householder(want, m, b);
  for (const kernels::Isa& isa : kernels::isas()) {
    if (!isa.supported()) continue;
    auto got = a0;
    isa.qr(got.data(), m, b);
    EXPECT_TRUE(testutil::same_bits(got, want))
        << isa.name << " " << m << "x" << b;
  }
}

TEST(HouseholderQr, EveryIsaVariantBitIdenticalToScalarLoop) {
  // b = 1, b not a multiple of any vector width, m = b, tall blocks, the
  // stacked 2b×b of the TSQR tree and real_p4's 8192×32, plus seeded
  // shapes; all with the whole block compared, below the diagonal too.
  std::vector<std::pair<int, int>> shapes = {
      {1, 1},  {7, 1},   {5, 5},  {8, 8},   {9, 9},    {13, 3},  {40, 7},
      {33, 17}, {64, 32}, {50, 20}, {70, 37}, {100, 64}, {300, 65},
      {8192, 32}};
  Rng rng(30);
  for (int t = 0; t < 30; ++t) {
    const int b = 1 + static_cast<int>(rng.next_below(80));
    shapes.emplace_back(b + static_cast<int>(rng.next_below(120)), b);
  }
  for (const auto& [m, b] : shapes) {
    expect_every_isa_matches_scalar(random_matrix(m, b, rng), m, b);
  }
}

TEST(HouseholderQr, EveryIsaVariantTakesTheDegenerateBranchesAsScalar) {
  // A zero column takes the norm == 0 branch, and so does a nonzero one
  // whose squares underflow (1e-170); one whose square is subnormal
  // (-2.3e-162) runs a reflector of subnormal vᵀv; a column equal to the
  // one before it holds only rounding residue below the diagonal after
  // that one's reflection. No finite input reaches the vnorm2 == 0
  // branch: vᵀv sums the same squares as the norm except the first, which
  // |v_k| = |x_k| + norm makes no smaller, so norm² > 0 implies vᵀv > 0.
  Rng rng(31);
  for (const int b : {1, 3, 9, 17}) {
    const int m = b + 5;
    for (const double x0 : {0.0, 1e-170, -2.3e-162}) {
      auto a = random_matrix(m, b, rng);
      for (int i = 0; i < m; ++i) a[static_cast<std::size_t>(i) * b] = 0.0;
      a[0] = x0;
      expect_every_isa_matches_scalar(a, m, b);
    }
    if (b > 1) {
      auto twin = random_matrix(m, b, rng);
      for (int i = 0; i < m; ++i) {
        twin[static_cast<std::size_t>(i) * b + 1] =
            twin[static_cast<std::size_t>(i) * b];
      }
      expect_every_isa_matches_scalar(twin, m, b);
    }
    expect_every_isa_matches_scalar(
        std::vector<double>(static_cast<std::size_t>(b) * b, 0.0), b, b);
  }
}

TEST(HouseholderQr, RejectsWideBlocks) {
  std::vector<double> a(6, 1.0);
  EXPECT_THROW(householder_qr_r(a, 2, 3), invalid_argument_error);
}

class TsqrRuns : public ::testing::TestWithParam<int> {};

TEST_P(TsqrRuns, MatchesGatherQrUpToSigns) {
  const int p = GetParam();
  const int b = 4;
  const int rows = 6;  // per rank
  Rng rng(42);
  const auto A = random_matrix(rows * p, b, rng);
  const std::size_t lw = static_cast<std::size_t>(rows) * b;

  auto run = [&](bool use_tsqr) {
    sim::Machine m(unit_config(p));
    std::vector<double> r(static_cast<std::size_t>(b) * b);
    m.run([&](sim::Comm& comm) {
      auto mine = std::span<const double>(A).subspan(
          lw * static_cast<std::size_t>(comm.rank()), lw);
      std::span<double> out =
          comm.rank() == 0 ? std::span<double>(r) : std::span<double>{};
      if (use_tsqr) {
        tsqr(comm, b, mine, out);
      } else {
        gather_qr(comm, b, mine, out);
      }
    });
    return r;
  };
  const auto r_tree = run(true);
  const auto r_flat = run(false);
  // R is unique up to row signs; compare absolute values.
  for (std::size_t i = 0; i < r_tree.size(); ++i) {
    EXPECT_NEAR(std::fabs(r_tree[i]), std::fabs(r_flat[i]), 1e-9);
  }
  // And both reproduce the Gram matrix of the full A.
  const auto want = gram(A, rows * p, b);
  EXPECT_LT(max_abs_diff(gram(r_tree, b, b), want), 1e-9 * rows * p);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, TsqrRuns,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16));

TEST(TsqrCosts, TreeBeatsGatherOnBandwidth) {
  const int p = 16;
  const int b = 4;
  const int rows = 16;
  Rng rng(7);
  const auto A = random_matrix(rows * p, b, rng);
  const std::size_t lw = static_cast<std::size_t>(rows) * b;
  auto words = [&](bool use_tsqr) {
    sim::Machine m(unit_config(p));
    std::vector<double> r(static_cast<std::size_t>(b) * b);
    m.run([&](sim::Comm& comm) {
      auto mine = std::span<const double>(A).subspan(
          lw * static_cast<std::size_t>(comm.rank()), lw);
      std::span<double> out =
          comm.rank() == 0 ? std::span<double>(r) : std::span<double>{};
      if (use_tsqr) {
        tsqr(comm, b, mine, out);
      } else {
        gather_qr(comm, b, mine, out);
      }
    });
    return m.totals().words_total;
  };
  // Tree: (p-1) messages of b² words. Gather: (p-1) blocks of rows·b.
  EXPECT_DOUBLE_EQ(words(true), (p - 1.0) * b * b);
  EXPECT_DOUBLE_EQ(words(false), (p - 1.0) * rows * b);
}

TEST(TsqrCosts, LogDepthMessages) {
  const int p = 16;
  const int b = 3;
  const int rows = 4;
  Rng rng(9);
  const auto A = random_matrix(rows * p, b, rng);
  const std::size_t lw = static_cast<std::size_t>(rows) * b;
  sim::Machine m(unit_config(p));
  std::vector<double> r(static_cast<std::size_t>(b) * b);
  m.run([&](sim::Comm& comm) {
    auto mine = std::span<const double>(A).subspan(
        lw * static_cast<std::size_t>(comm.rank()), lw);
    std::span<double> out =
        comm.rank() == 0 ? std::span<double>(r) : std::span<double>{};
    tsqr(comm, b, mine, out);
  });
  // Rank 0 receives log2(p) R factors and sends none.
  EXPECT_DOUBLE_EQ(m.rank_counters(0).msgs_recv, std::log2(p));
  EXPECT_DOUBLE_EQ(m.rank_counters(0).msgs_sent, 0.0);
}

}  // namespace
}  // namespace alge::algs
