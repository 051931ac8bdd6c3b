// The local (single-rank) compute kernels behind algs::matmul_add,
// algs::matmul_sub, algs::accumulate_forces, algs::householder_qr_r and
// algs::fft_inplace, in one variant per instruction set.
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
//  - qr: per reflector k, column k's norm², the reflector v and vᵀv sum
//    over rows i ascending, and so does every trailing column j's vᵀa_j;
//    then a[i][j] -= (2·vᵀa_j / vᵀv)·v[i]. Column j's dot product never
//    reads another column's update, so one pass over the rows accumulates
//    them all (lanes are columns) and a second applies the update, summing
//    the next column's norm² on the way, rows still ascending.
//  - fft: every butterfly is x = b·w, a' = a + x, b' = a - x with
//    Re x = br·wr - bi·wi and Im x = bi·wr + br·wi (the scalar br·wi +
//    bi·wr: addition commutes exactly). Stage len = 2h uses the h twiddles
//    of the recurrence w ← w·e^{∓2πi/len} from w = 1, the same values for
//    every block; FftTables builds them once with the scalar expressions.
//    Lanes are complex points, across blocks in stages shorter than a
//    vector; `inverse` then multiplies every word by 1/n.
//
// The variant is chosen once, from the CPU, on first use; there is no
// setting. The table is public so tests can run every variant the host
// supports against a scalar reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace alge::algs::kernels {

/// The tables of one n-point radix-2 transform in one direction (n a power
/// of two), built once and read by every transform of that size.
struct FftTables {
  FftTables(int n, bool inverse);

  int n;
  bool inverse;
  /// The bit-reversal permutation as pairs (i, rev(i)) with i < rev(i).
  std::vector<std::int32_t> swaps;
  /// Stage len = 2h (h = 1, 2, 4, ...) starts at word 4(h - 1): h twiddles
  /// as (wr, wr) pairs, then h as (-wi, wi) pairs.
  std::vector<double> twiddles;
};

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
  /// Householder-reduces an m×b row-major block in place (m >= b >= 1),
  /// leaving R in its upper triangle and the reflections' rounding residue
  /// below it.
  void (*qr)(double* a, int m, int b);
  /// In-place transform of t.n complex points (interleaved re, im).
  void (*fft)(double* data, const FftTables& t);
};

/// Every compiled variant, widest first.
std::span<const Isa> isas();

/// The widest variant this CPU supports, resolved on first call.
const Isa& active();

}  // namespace alge::algs::kernels
