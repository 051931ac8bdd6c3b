// The CAPS data layout [15]: matrices are linearized in quadrant-recursive
// (Morton/Z) order down to `levels` quadrant splits with row-major leaf
// blocks, and each of g = 7^k ranks owns the elements whose Z-index is
// ≡ rank (mod g), stored densely in increasing Z-index.
//
// Two properties make this the right layout for CAPS:
//  1. A quadrant of the matrix is a *contiguous run* of the Z-order, so a
//     rank's share of a quadrant is a contiguous slice of its share vector,
//     and (because quadrant base offsets are multiples of g) the slice holds
//     the same relative positions in every quadrant — Strassen's quadrant
//     additions are purely local and perfectly aligned across ranks.
//  2. When a group of g ranks hands subproblem i to its i-th subgroup of
//     g/7 ranks, every parent rank r sends its whole slice to the single
//     child rank r mod (g/7), and the child rebuilds its (mod g/7)-cyclic
//     share by round-robin interleaving the 7 received slices — an exact,
//     invertible exchange of (s/2)²/g words per operand per rank.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace alge::algs {

/// Z-order index of element (r, c) in an s×s matrix with `levels` quadrant
/// levels (leaves of size s/2^levels are row-major).
std::size_t z_index(int r, int c, int s, int levels);

/// Reorder a row-major s×s matrix into Z-order (inverse: from_z_order).
std::vector<double> to_z_order(std::span<const double> row_major, int s,
                               int levels);
std::vector<double> from_z_order(std::span<const double> z, int s,
                                 int levels);

/// Extract rank r's cyclic share (elements with index ≡ r mod g) of a
/// Z-ordered vector. Requires g to divide z.size().
std::vector<double> extract_share(std::span<const double> z, int g, int r);

/// Scatter a share back into a Z-ordered vector.
void place_share(std::span<double> z, int g, int r,
                 std::span<const double> share);

}  // namespace alge::algs
