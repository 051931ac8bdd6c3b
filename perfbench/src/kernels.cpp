#include "kernels.hpp"

#include <cstddef>

#include "algs/fft/fft.hpp"
#include "algs/matmul/local.hpp"
#include "algs/nbody/nbody.hpp"
#include "algs/qr/tsqr.hpp"
#include "bench.hpp"
#include "support/rng.hpp"

namespace perfbench {

double replay_kernels(const std::vector<KernelShape>& shapes) {
  alge::Rng rng(7);
  const auto t0 = Clock::now();
  for (const KernelShape& s : shapes) {
    if (s.alg == "mm25d" || s.alg == "summa") {
      const int nb = s.n / s.q;
      // p = q²c ranks, q/c multiplies each: q³ block products in all.
      const int calls = s.q * s.q * s.q;
      const std::vector<double> a = alge::algs::random_matrix(nb, nb, rng);
      const std::vector<double> b = alge::algs::random_matrix(nb, nb, rng);
      std::vector<double> c(static_cast<std::size_t>(nb) * nb, 0.0);
      for (int i = 0; i < calls; ++i) {
        alge::algs::matmul_add_blocked(a.data(), b.data(), c.data(), nb, nb,
                                       nb);
      }
    } else if (s.alg == "nbody") {
      const int teams = s.p / s.c;
      const int block = s.n / teams;
      const std::vector<double> x = alge::algs::random_particles(block, rng);
      std::vector<double> f(
          static_cast<std::size_t>(block) * alge::algs::kForceWords, 0.0);
      for (int i = 0; i < teams * teams; ++i) {
        (void)alge::algs::accumulate_forces(x, x, f, false);
      }
    } else if (s.alg == "fft") {
      std::vector<double> row(2 * static_cast<std::size_t>(s.c_dim));
      std::vector<double> col(2 * static_cast<std::size_t>(s.r_dim));
      rng.fill_uniform(row, -1.0, 1.0);
      rng.fill_uniform(col, -1.0, 1.0);
      for (int i = 0; i < s.r_dim; ++i) alge::algs::fft_inplace(row, s.c_dim);
      for (int i = 0; i < s.c_dim; ++i) alge::algs::fft_inplace(col, s.r_dim);
    } else if (s.alg == "tsqr") {
      std::vector<double> leaf(static_cast<std::size_t>(s.n) * s.nb);
      std::vector<double> pair(2 * static_cast<std::size_t>(s.nb) * s.nb);
      for (int i = 0; i < s.p; ++i) {
        rng.fill_uniform(leaf, -1.0, 1.0);
        (void)alge::algs::householder_qr_r(leaf, s.n, s.nb);
      }
      for (int i = 0; i + 1 < s.p; ++i) {
        rng.fill_uniform(pair, -1.0, 1.0);
        (void)alge::algs::householder_qr_r(pair, 2 * s.nb, s.nb);
      }
    }
  }
  return seconds_since(t0);
}

}  // namespace perfbench
