// Shared helpers for the distributed-algorithm tests: block scatter/gather
// around Machine::run, a serial matmul reference and bitwise comparison.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "algs/matmul/local.hpp"
#include "support/common.hpp"
#include "support/rng.hpp"

namespace alge::testutil {

/// Extract block (bi, bj) of a q×q blocking of the n×n row-major matrix m.
inline std::vector<double> block_of(const std::vector<double>& m, int n,
                                    int q, int bi, int bj) {
  const int nb = n / q;
  std::vector<double> out(static_cast<std::size_t>(nb) * nb);
  for (int r = 0; r < nb; ++r) {
    for (int c = 0; c < nb; ++c) {
      out[static_cast<std::size_t>(r) * nb + c] =
          m[static_cast<std::size_t>(bi * nb + r) * n + (bj * nb + c)];
    }
  }
  return out;
}

/// Write block (bi, bj) back into the n×n matrix m.
inline void set_block(std::vector<double>& m, int n, int q, int bi, int bj,
                      const std::vector<double>& block) {
  const int nb = n / q;
  ALGE_CHECK(block.size() == static_cast<std::size_t>(nb) * nb,
             "block size mismatch");
  for (int r = 0; r < nb; ++r) {
    for (int c = 0; c < nb; ++c) {
      m[static_cast<std::size_t>(bi * nb + r) * n + (bj * nb + c)] =
          block[static_cast<std::size_t>(r) * nb + c];
    }
  }
}

/// Serial reference product C = A·B for n×n row-major matrices.
inline std::vector<double> reference_matmul(const std::vector<double>& a,
                                            const std::vector<double>& b,
                                            int n) {
  std::vector<double> c(static_cast<std::size_t>(n) * n, 0.0);
  algs::matmul_add(a.data(), b.data(), c.data(), n, n, n);
  return c;
}

/// Bitwise equality: distinguishes -0.0 from 0.0, and a NaN equals itself.
inline bool same_bits(const std::vector<double>& x,
                      const std::vector<double>& y) {
  return std::equal(x.begin(), x.end(), y.begin(), y.end(),
                    [](double u, double v) {
                      return std::bit_cast<std::uint64_t>(u) ==
                             std::bit_cast<std::uint64_t>(v);
                    });
}

}  // namespace alge::testutil
