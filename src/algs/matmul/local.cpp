#include "algs/matmul/local.hpp"

#include <algorithm>
#include <cmath>

#include "algs/kernels.hpp"
#include "support/common.hpp"

namespace alge::algs {

void matmul_add(const double* a, const double* b, double* c, int m, int k,
                int n) {
  ALGE_REQUIRE(m >= 0 && k >= 0 && n >= 0, "negative matrix dimension");
  kernels::active().matmul(a, b, c, m, k, n, /*subtract=*/false);
}

void matmul_sub(const double* a, const double* b, double* c, int m, int k,
                int n) {
  ALGE_REQUIRE(m >= 0 && k >= 0 && n >= 0, "negative matrix dimension");
  kernels::active().matmul(a, b, c, m, k, n, /*subtract=*/true);
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
