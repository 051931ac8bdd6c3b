#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <tuple>
#include <vector>

#include "algs/fft/fft.hpp"
#include "algs/kernels.hpp"
#include "algs/matmul/local.hpp"  // max_abs_diff
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

std::vector<double> random_complex(int n, Rng& rng) {
  std::vector<double> x(2 * static_cast<std::size_t>(n));
  rng.fill_uniform(x, -1.0, 1.0);
  return x;
}

// The radix-2 loop the kernels replaced, which rebuilt the bit reversal and
// the twiddle recurrence on every call: every variant must match it bit
// for bit. Contraction is off so the reference stays unfused even in a
// build that targets an FMA machine.
[[gnu::optimize("fp-contract=off")]] void scalar_fft(std::vector<double>& d,
                                                     int n, bool inverse) {
  int lg = 0;
  while ((1 << lg) < n) ++lg;
  for (int i = 0; i < n; ++i) {
    int rev = 0;
    for (int b = 0; b < lg; ++b) rev |= ((i >> b) & 1) << (lg - 1 - b);
    if (i < rev) {
      std::swap(d[2 * static_cast<std::size_t>(i)],
                d[2 * static_cast<std::size_t>(rev)]);
      std::swap(d[2 * static_cast<std::size_t>(i) + 1],
                d[2 * static_cast<std::size_t>(rev) + 1]);
    }
  }
  const double sign = inverse ? +1.0 : -1.0;
  for (int len = 2; len <= n; len <<= 1) {
    const double ang = sign * 2.0 * std::numbers::pi / len;
    const double wr = std::cos(ang);
    const double wi = std::sin(ang);
    for (int start = 0; start < n; start += len) {
      double cr = 1.0;
      double ci = 0.0;
      for (int off = 0; off < len / 2; ++off) {
        const std::size_t a = 2 * static_cast<std::size_t>(start + off);
        const std::size_t b =
            2 * static_cast<std::size_t>(start + off + len / 2);
        const double xr = d[b] * cr - d[b + 1] * ci;
        const double xi = d[b] * ci + d[b + 1] * cr;
        d[b] = d[a] - xr;
        d[b + 1] = d[a + 1] - xi;
        d[a] += xr;
        d[a + 1] += xi;
        const double ncr = cr * wr - ci * wi;
        ci = cr * wi + ci * wr;
        cr = ncr;
      }
    }
  }
  if (inverse) {
    const double inv_n = 1.0 / n;
    for (double& x : d) x *= inv_n;
  }
}

TEST(FftLocal, EveryIsaVariantBitIdenticalToScalarLoop) {
  // n = 1 … 2^14, forward and inverse; the inputs hold signed zeros and
  // exact small integers next to random values, so a butterfly that
  // rounds or signs a zero differently shows.
  Rng rng(29);
  for (int n = 1; n <= 1 << 14; n *= 2) {
    auto x = random_complex(n, rng);
    for (std::size_t i = 0; i < x.size(); i += 7) x[i] = -0.0;
    for (std::size_t i = 3; i < x.size(); i += 11) x[i] = 1.0;
    for (const bool inverse : {false, true}) {
      auto want = x;
      scalar_fft(want, n, inverse);
      const kernels::FftTables tables(n, inverse);
      for (const kernels::Isa& isa : kernels::isas()) {
        if (!isa.supported()) continue;
        auto got = x;
        isa.fft(got.data(), tables);
        EXPECT_TRUE(testutil::same_bits(got, want))
            << isa.name << " n=" << n << " inverse=" << inverse;
      }
      auto got = x;
      fft_inplace(got, n, inverse);
      EXPECT_TRUE(testutil::same_bits(got, want))
          << "fft_inplace n=" << n << " inverse=" << inverse;
    }
  }
}

TEST(FftLocal, TransposeComplexCopiesEveryPoint) {
  // Shapes below, at and across the copy's tile edge, into a wider
  // destination whose other points stay untouched.
  for (const auto& [rows, cols] :
       {std::pair{1, 1}, {3, 5}, {16, 16}, {17, 33}, {64, 7}, {40, 100}}) {
    const std::size_t lds = static_cast<std::size_t>(cols) + 3;
    const std::size_t ldd = static_cast<std::size_t>(rows) + 2;
    std::vector<double> src(2 * lds * static_cast<std::size_t>(rows));
    for (std::size_t i = 0; i < src.size(); ++i) {
      src[i] = static_cast<double>(i);
    }
    std::vector<double> dst(2 * ldd * static_cast<std::size_t>(cols), -1.0);
    transpose_complex(src.data(), lds, dst.data(), ldd, rows, cols);
    for (int c = 0; c < cols; ++c) {
      for (std::size_t r = 0; r < ldd; ++r) {
        for (std::size_t w = 0; w < 2; ++w) {
          const double want =
              r < static_cast<std::size_t>(rows)
                  ? src[2 * (r * lds + static_cast<std::size_t>(c)) + w]
                  : -1.0;
          const std::size_t at = 2 * (static_cast<std::size_t>(c) * ldd + r);
          ASSERT_EQ(dst[at + w], want)
              << rows << "x" << cols << " r=" << r << " c=" << c;
        }
      }
    }
  }
}

TEST(FftLocal, MatchesNaiveDft) {
  Rng rng(2);
  for (int n : {1, 2, 4, 16, 64, 256}) {
    const auto x = random_complex(n, rng);
    auto y = x;
    fft_inplace(y, n);
    EXPECT_LT(max_abs_diff(y, naive_dft(x, n)), 1e-9 * n) << n;
  }
}

TEST(FftLocal, NaiveDftMatchesLongDoubleDirectSum) {
  // The reference against a direct evaluation in long double, every angle
  // formed from its own product j·k: the table and its wrap-around index
  // must not make the reference weaker than the sum it stands for.
  Rng rng(5);
  for (int n : {1, 3, 12, 2048}) {
    const auto x = random_complex(n, rng);
    for (const bool inverse : {false, true}) {
      const long double sign = inverse ? +1.0L : -1.0L;
      const auto y = naive_dft(x, n, inverse);
      double err = 0.0;
      for (int k = 0; k < n; ++k) {
        long double sr = 0.0L;
        long double si = 0.0L;
        for (int j = 0; j < n; ++j) {
          const long double ang = sign * 2.0L *
                                  std::numbers::pi_v<long double> *
                                  (static_cast<long double>(j) * k) / n;
          const long double cr = std::cos(ang);
          const long double ci = std::sin(ang);
          const long double xr = x[2 * static_cast<std::size_t>(j)];
          const long double xi = x[2 * static_cast<std::size_t>(j) + 1];
          sr += xr * cr - xi * ci;
          si += xr * ci + xi * cr;
        }
        if (inverse) {
          sr /= n;
          si /= n;
        }
        err = std::max({err,
                        std::abs(static_cast<double>(
                            sr - y[2 * static_cast<std::size_t>(k)])),
                        std::abs(static_cast<double>(
                            si - y[2 * static_cast<std::size_t>(k) + 1]))});
      }
      EXPECT_LE(err, 1e-12 * n) << "n=" << n << " inverse=" << inverse;
    }
  }
}

TEST(FftLocal, InverseRoundTrips) {
  Rng rng(3);
  const int n = 128;
  const auto x = random_complex(n, rng);
  auto y = x;
  fft_inplace(y, n);
  fft_inplace(y, n, /*inverse=*/true);
  EXPECT_LT(max_abs_diff(y, x), 1e-12 * n);
}

TEST(FftLocal, ParsevalHolds) {
  Rng rng(4);
  const int n = 64;
  const auto x = random_complex(n, rng);
  auto y = x;
  fft_inplace(y, n);
  double ex = 0.0;
  double ey = 0.0;
  for (std::size_t i = 0; i < x.size(); i += 2) {
    ex += x[i] * x[i] + x[i + 1] * x[i + 1];
    ey += y[i] * y[i] + y[i + 1] * y[i + 1];
  }
  EXPECT_NEAR(ey, ex * n, 1e-9 * n);
}

TEST(FftLocal, RejectsNonPowerOfTwo) {
  std::vector<double> x(6, 0.0);
  EXPECT_THROW(fft_inplace(x, 3), invalid_argument_error);
}

TEST(FftLocal, ImpulseGivesFlatSpectrum) {
  const int n = 16;
  std::vector<double> x(2 * n, 0.0);
  x[0] = 1.0;  // delta at 0
  fft_inplace(x, n);
  for (int k = 0; k < n; ++k) {
    EXPECT_NEAR(x[2 * static_cast<std::size_t>(k)], 1.0, 1e-12);
    EXPECT_NEAR(x[2 * static_cast<std::size_t>(k) + 1], 0.0, 1e-12);
  }
}

// --- Parallel four-step ---

class FftRuns
    : public ::testing::TestWithParam<std::tuple<int, int, int, AllToAllKind>> {
};

TEST_P(FftRuns, MatchesNaiveDft) {
  const auto [p, r_dim, c_dim, kind] = GetParam();
  const int n = r_dim * c_dim;
  Rng rng(55);
  const auto x = random_complex(n, rng);
  const auto ref = naive_dft(x, n);
  const int cl = c_dim / p;
  const int rl = r_dim / p;

  sim::Machine m(unit_config(p));
  std::vector<std::vector<double>> rows(static_cast<std::size_t>(p));
  m.run([&](sim::Comm& comm) {
    const int h = comm.rank();
    // Pack my columns j2 = h·cl + jl of the R×C view x[j1·C + j2].
    std::vector<double> cols(2 * static_cast<std::size_t>(r_dim) * cl);
    for (int jl = 0; jl < cl; ++jl) {
      const int j2 = h * cl + jl;
      for (int j1 = 0; j1 < r_dim; ++j1) {
        cols[2 * (static_cast<std::size_t>(jl) * r_dim + j1)] =
            x[2 * (static_cast<std::size_t>(j1) * c_dim + j2)];
        cols[2 * (static_cast<std::size_t>(jl) * r_dim + j1) + 1] =
            x[2 * (static_cast<std::size_t>(j1) * c_dim + j2) + 1];
      }
    }
    std::vector<double> out(2 * static_cast<std::size_t>(c_dim) * rl);
    fft_parallel(comm, n, r_dim, c_dim, cols, out, kind);
    rows[static_cast<std::size_t>(h)] = std::move(out);
  });

  // X[k1 + k2·R] lives at rank k1/rl, row k1 % rl, position k2.
  std::vector<double> got(2 * static_cast<std::size_t>(n));
  for (int k1 = 0; k1 < r_dim; ++k1) {
    const auto& blk = rows[static_cast<std::size_t>(k1 / rl)];
    for (int k2 = 0; k2 < c_dim; ++k2) {
      const std::size_t src =
          2 * (static_cast<std::size_t>(k1 % rl) * c_dim + k2);
      got[2 * (static_cast<std::size_t>(k2) * r_dim + k1)] = blk[src];
      got[2 * (static_cast<std::size_t>(k2) * r_dim + k1) + 1] = blk[src + 1];
    }
  }
  EXPECT_LT(max_abs_diff(got, ref), 1e-8 * n);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndKinds, FftRuns,
    ::testing::Values(
        std::tuple{1, 8, 8, AllToAllKind::kDirect},
        std::tuple{2, 8, 8, AllToAllKind::kDirect},
        std::tuple{4, 8, 8, AllToAllKind::kDirect},
        std::tuple{4, 16, 8, AllToAllKind::kDirect},
        std::tuple{8, 16, 16, AllToAllKind::kDirect},
        std::tuple{2, 8, 8, AllToAllKind::kBruck},
        std::tuple{4, 16, 16, AllToAllKind::kBruck},
        std::tuple{8, 16, 16, AllToAllKind::kBruck},
        std::tuple{16, 16, 16, AllToAllKind::kBruck},
        // Rectangles where one rank's columns or rows are fewer than the
        // transposes' 16-point tile.
        std::tuple{4, 64, 256, AllToAllKind::kDirect},
        std::tuple{8, 256, 64, AllToAllKind::kDirect},
        std::tuple{4, 32, 128, AllToAllKind::kBruck}));

TEST(FftCosts, PaperTradeoffBetweenVariants) {
  // Section IV: naive all-to-all has S = Θ(p), W = Θ(n/p); the tree version
  // S = Θ(log p) at W = Θ((n/p)·log p).
  const int p = 16;
  const int r_dim = 32;
  const int c_dim = 32;
  const int n = r_dim * c_dim;
  auto run = [&](AllToAllKind kind) {
    sim::Machine m(unit_config(p));
    Rng rng(5);
    m.run([&](sim::Comm& comm) {
      std::vector<double> cols(2 * static_cast<std::size_t>(r_dim) *
                               (c_dim / p));
      Rng local(static_cast<std::uint64_t>(comm.rank()) + 1);
      local.fill_uniform(cols, -1.0, 1.0);
      std::vector<double> out(2 * static_cast<std::size_t>(c_dim) *
                              (r_dim / p));
      fft_parallel(comm, n, r_dim, c_dim, cols, out, kind);
    });
    return m.totals();
  };
  const auto direct = run(AllToAllKind::kDirect);
  const auto bruck = run(AllToAllKind::kBruck);
  EXPECT_DOUBLE_EQ(direct.msgs_sent_max, p - 1.0);
  EXPECT_DOUBLE_EQ(bruck.msgs_sent_max, std::log2(p));
  EXPECT_GT(bruck.words_sent_max, direct.words_sent_max);
  // Direct variant moves (p-1)/p of the 2n/p per-rank words.
  EXPECT_DOUBLE_EQ(direct.words_sent_max, 2.0 * n / p * (p - 1.0) / p);
}

TEST(FftCosts, NoUseForExtraMemory) {
  // The FFT working set per rank is Θ(n/p) no matter what: memory high
  // water tracks the input size, unlike the replicating algorithms.
  const int p = 4;
  const int r_dim = 16;
  const int c_dim = 16;
  const int n = r_dim * c_dim;
  sim::Machine m(unit_config(p));
  m.run([&](sim::Comm& comm) {
    std::vector<double> cols(2 * static_cast<std::size_t>(r_dim) *
                                 (c_dim / p),
                             0.5);
    std::vector<double> out(2 * static_cast<std::size_t>(c_dim) *
                            (r_dim / p));
    fft_parallel(comm, n, r_dim, c_dim, cols, out);
  });
  // Tracked buffers: work (2n/p) + send/recv (2·2n/p each) = O(n/p).
  EXPECT_LE(m.totals().mem_highwater_max, 6 * 2 * n / p);
}

TEST(FftRejects, BadFactorization) {
  sim::Machine m(unit_config(2));
  EXPECT_THROW(m.run([&](sim::Comm& comm) {
                 std::vector<double> cols(2 * 8 * 4);
                 std::vector<double> out(2 * 8 * 4);
                 fft_parallel(comm, 60, 8, 8, cols, out);
               }),
               invalid_argument_error);
}

}  // namespace
}  // namespace alge::algs
