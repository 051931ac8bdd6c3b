#include "algs/matmul/local.hpp"

#include <algorithm>
#include <cmath>

#include "support/common.hpp"

namespace alge::algs {

// Both kernels start on a cache line, so where their inner loops fall
// relative to line boundaries depends on this file alone. At the default
// 16-byte alignment, code added elsewhere in the link moved the innermost
// loop across a line boundary and slowed every local matmul by ~30%.
[[gnu::aligned(64)]] void matmul_add(const double* a, const double* b,
                                     double* c, int m, int k, int n) {
  ALGE_REQUIRE(m >= 0 && k >= 0 && n >= 0, "negative matrix dimension");
  for (int i = 0; i < m; ++i) {
    for (int l = 0; l < k; ++l) {
      const double ail = a[static_cast<std::size_t>(i) * k + l];
      const double* brow = b + static_cast<std::size_t>(l) * n;
      double* crow = c + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) crow[j] += ail * brow[j];
    }
  }
}

[[gnu::aligned(64)]] void matmul_add_blocked(const double* a, const double* b,
                                             double* c, int m, int k, int n,
                                             int block) {
  ALGE_REQUIRE(block >= 1, "block size must be >= 1");
  for (int i0 = 0; i0 < m; i0 += block) {
    const int i1 = std::min(m, i0 + block);
    for (int l0 = 0; l0 < k; l0 += block) {
      const int l1 = std::min(k, l0 + block);
      for (int j0 = 0; j0 < n; j0 += block) {
        const int j1 = std::min(n, j0 + block);
        for (int i = i0; i < i1; ++i) {
          for (int l = l0; l < l1; ++l) {
            const double ail = a[static_cast<std::size_t>(i) * k + l];
            const double* brow = b + static_cast<std::size_t>(l) * n;
            double* crow = c + static_cast<std::size_t>(i) * n;
            for (int j = j0; j < j1; ++j) crow[j] += ail * brow[j];
          }
        }
      }
    }
  }
}

double matmul_flops(int m, int k, int n) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(k) *
         static_cast<double>(n);
}

std::vector<double> random_matrix(int rows, int cols, Rng& rng) {
  std::vector<double> out(static_cast<std::size_t>(rows) *
                          static_cast<std::size_t>(cols));
  rng.fill_uniform(out, -1.0, 1.0);
  return out;
}

double max_abs_diff(std::span<const double> a, std::span<const double> b) {
  ALGE_REQUIRE(a.size() == b.size(), "span sizes differ: %zu vs %zu",
               a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::fabs(a[i] - b[i]));
  }
  return worst;
}

}  // namespace alge::algs
