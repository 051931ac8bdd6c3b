// Local (single-rank) dense kernels shared by the distributed algorithms:
// row-major matmul, plus small helpers used by tests and benches.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "support/rng.hpp"

namespace alge::algs {

/// C += A·B with A m×k, B k×n, C m×n, all row-major and aliasing-free.
/// Each C element adds its products in ascending l, each rounded before the
/// add, so the result is bit-identical to the naive ikj loop on every CPU
/// (algs/kernels.hpp).
void matmul_add(const double* a, const double* b, double* c, int m, int k,
                int n);

/// C -= A·B, the same contract with each product subtracted.
void matmul_sub(const double* a, const double* b, double* c, int m, int k,
                int n);

/// Former name of matmul_add, kept for callers outside the library.
inline void matmul_add_blocked(const double* a, const double* b, double* c,
                               int m, int k, int n) {
  matmul_add(a, b, c, m, k, n);
}

/// Flop count charged for an m×k by k×n multiply-accumulate (2 flops per
/// multiply-add, the convention used throughout the benches).
double matmul_flops(int m, int k, int n);

/// Row-major random matrix with entries uniform in [-1, 1).
std::vector<double> random_matrix(int rows, int cols, Rng& rng);

/// max_i |a[i] - b[i]|; spans must have equal length.
double max_abs_diff(std::span<const double> a, std::span<const double> b);

}  // namespace alge::algs
