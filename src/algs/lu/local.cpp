#include "algs/lu/local.hpp"

#include <cmath>

#include "support/common.hpp"

namespace alge::algs {

namespace {
void check_square(std::size_t len, int n) {
  ALGE_REQUIRE(n >= 1, "matrix size must be positive");
  ALGE_REQUIRE(len == static_cast<std::size_t>(n) * n,
               "buffer must be n² = %d words", n * n);
}
}  // namespace

// The three kernels start on a cache-line boundary, so their loops keep the
// same layout, and speed, when code linked before them changes size.
[[gnu::aligned(64)]] void lu_factor_inplace(std::span<double> a, int n) {
  check_square(a.size(), n);
  for (int k = 0; k < n; ++k) {
    const double pivot = a[static_cast<std::size_t>(k) * n + k];
    ALGE_REQUIRE(std::fabs(pivot) > 1e-300,
                 "zero pivot at %d: matrix needs pivoting", k);
    for (int i = k + 1; i < n; ++i) {
      a[static_cast<std::size_t>(i) * n + k] /= pivot;
      const double lik = a[static_cast<std::size_t>(i) * n + k];
      for (int j = k + 1; j < n; ++j) {
        a[static_cast<std::size_t>(i) * n + j] -=
            lik * a[static_cast<std::size_t>(k) * n + j];
      }
    }
  }
}

[[gnu::aligned(64)]] void trsm_lower_left(std::span<const double> lu,
                                          std::span<double> b, int n) {
  check_square(lu.size(), n);
  check_square(b.size(), n);
  // Solve L·X = B row by row (L unit lower).
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < i; ++k) {
      const double lik = lu[static_cast<std::size_t>(i) * n + k];
      for (int j = 0; j < n; ++j) {
        b[static_cast<std::size_t>(i) * n + j] -=
            lik * b[static_cast<std::size_t>(k) * n + j];
      }
    }
  }
}

[[gnu::aligned(64)]] void trsm_upper_right(std::span<const double> lu,
                                           std::span<double> b, int n) {
  check_square(lu.size(), n);
  check_square(b.size(), n);
  // Solve X·U = B column by column (U non-unit upper).
  for (int j = 0; j < n; ++j) {
    const double ujj = lu[static_cast<std::size_t>(j) * n + j];
    ALGE_REQUIRE(std::fabs(ujj) > 1e-300, "singular U at %d", j);
    for (int i = 0; i < n; ++i) {
      double x = b[static_cast<std::size_t>(i) * n + j];
      for (int k = 0; k < j; ++k) {
        x -= b[static_cast<std::size_t>(i) * n + k] *
             lu[static_cast<std::size_t>(k) * n + j];
      }
      b[static_cast<std::size_t>(i) * n + j] = x / ujj;
    }
  }
}

std::vector<double> lu_reconstruct(std::span<const double> lu, int n) {
  check_square(lu.size(), n);
  std::vector<double> out(lu.size(), 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      double sum = 0.0;
      const int kmax = std::min(i, j);
      for (int k = 0; k <= kmax; ++k) {
        const double lik =
            k == i ? 1.0 : lu[static_cast<std::size_t>(i) * n + k];
        sum += lik * lu[static_cast<std::size_t>(k) * n + j];
      }
      out[static_cast<std::size_t>(i) * n + j] = sum;
    }
  }
  return out;
}

std::vector<double> diagonally_dominant_matrix(int n, Rng& rng) {
  std::vector<double> a(static_cast<std::size_t>(n) * n);
  rng.fill_uniform(a, -1.0, 1.0);
  for (int i = 0; i < n; ++i) {
    a[static_cast<std::size_t>(i) * n + i] += static_cast<double>(n);
  }
  return a;
}

double lu_factor_flops(int n) {
  return 2.0 / 3.0 * static_cast<double>(n) * n * n;
}

double trsm_flops(int n) { return static_cast<double>(n) * n * n; }

double gemm_update_flops(int n) {
  return 2.0 * static_cast<double>(n) * n * n;
}

}  // namespace alge::algs
