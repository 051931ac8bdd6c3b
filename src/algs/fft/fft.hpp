// FFT: an iterative radix-2 local kernel, a naive-DFT reference, and the
// parallel four-step FFT the paper analyzes in Section IV — the version
// whose single all-to-all can be done either directly (W = n/p words,
// S = p messages per rank) or with a Bruck/tree exchange (W = (n/p)·log p,
// S = log p), the exact trade-off of the paper's two cost rows.
//
// Complex data is stored as interleaved doubles (re, im), so a buffer of n
// complex points is 2n words — the factor 2 is a constant the models absorb.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sim/comm.hpp"

namespace alge::algs {

/// In-place radix-2 Cooley-Tukey on n complex points (n a power of two).
/// Forward uses w = e^{-2πi/n}; `inverse` uses the conjugate and scales by
/// 1/n.
void fft_inplace(std::span<double> data, int n, bool inverse = false);

/// O(n²) reference DFT, independent of the FFT kernel: one table of the n
/// roots of unity, indexed by j·k mod n.
std::vector<double> naive_dft(std::span<const double> in, int n,
                              bool inverse = false);

/// Flop convention for charging simulated time: 5·n·log2(n).
double fft_flops(int n);

enum class AllToAllKind { kDirect, kBruck };

/// Four-step parallel FFT of n = R·C complex points on all p ranks
/// (p | R and p | C, all powers of two).
///
/// View the input as an R×C matrix x[j1][j2] = x[j1·C + j2]. Rank h holds
/// columns j2 ∈ [h·C/p, (h+1)·C/p), column-major:
///   my_cols[(jl·R + j1)·2 + {0,1}], jl local.
/// After column FFTs, twiddles, the all-to-all transpose, and row FFTs,
/// rank h holds output rows k1 ∈ [h·R/p, (h+1)·R/p):
///   my_rows[(k1l·C + k2)·2] = X[k1 + k2·R]  (row-major in k2).
/// Buffers are payload views — spans convert implicitly in full-data mode;
/// ghost views replay the identical cost schedule without data.
void fft_parallel(sim::Comm& comm, int n, int r_dim, int c_dim,
                  sim::ConstPayload my_cols, sim::Payload my_rows,
                  AllToAllKind kind = AllToAllKind::kDirect);

/// dst[c·ldd + r] = src[r·lds + c] for r < rows, c < cols, counted in
/// complex points (two words each): a copy, tile by tile.
void transpose_complex(const double* src, std::size_t lds, double* dst,
                       std::size_t ldd, int rows, int cols);

}  // namespace alge::algs
