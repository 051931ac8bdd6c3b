// The local (single-rank) compute kernels behind algs::matmul_add,
// algs::matmul_sub and algs::accumulate_forces, in one variant per
// instruction set.
//
// Contract, the same for every variant: each output element sees the same
// floating-point operations, in the same order, as the scalar loops the
// kernels replaced, so every variant gives bit-identical results.
//  - matmul: C[i][j] ± A[i][l]·B[l][j] for l ascending, each product
//    rounded, then added to (or subtracted from) C[i][j]. No fused
//    multiply-add: the kernels are compiled with fp-contract off.
//  - forces: per target, the sources in ascending order with the scalar
//    expression order; vector lanes are targets, so no sum is re-associated.
//    With same_block the self pair is skipped, not added as zero.
//
// The variant is chosen once, from the CPU, on first use; there is no
// setting. The table is public so tests can run every variant the host
// supports against a scalar reference.
#pragma once

#include <cstddef>
#include <span>

namespace alge::algs::kernels {

struct Isa {
  const char* name;
  /// Whether this CPU can run the variant.
  bool (*supported)();
  /// C += A·B (or C -= A·B with `subtract`); A m×k, B k×n, C m×n,
  /// row-major, no aliasing. Dimensions must be >= 0.
  void (*matmul)(const double* a, const double* b, double* c, int m, int k,
                 int n, bool subtract);
  /// Adds to forces[3i..3i+2] the pull of `ns` sources (4 words each) on
  /// `nt` targets; with `same_block` (nt == ns) the pair i == i is skipped.
  void (*forces)(const double* targets, std::size_t nt,
                 const double* sources, std::size_t ns, double* forces,
                 bool same_block);
};

/// Every compiled variant, widest first.
std::span<const Isa> isas();

/// The widest variant this CPU supports, resolved on first call.
const Isa& active();

}  // namespace alge::algs::kernels
