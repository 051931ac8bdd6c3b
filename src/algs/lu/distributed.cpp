#include "algs/lu/distributed.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "algs/lu/local.hpp"
#include "algs/matmul/local.hpp"
#include "support/common.hpp"

namespace alge::algs {

namespace {
constexpr int kTagGather = 401;

/// The first index >= lo that is congruent to r modulo m (lo >= 0,
/// 0 <= r < m). Owned-index loops start here and step by m, so a rank
/// walks its own blocks only, never the whole index space.
int first_from(int lo, int r, int m) {
  return lo + (r - lo % m + m) % m;
}
}  // namespace

void BlockCyclic::validate() const {
  ALGE_REQUIRE(n >= 1 && nb >= 1 && q >= 1, "sizes must be positive");
  ALGE_REQUIRE(n % nb == 0, "block size nb=%d must divide n=%d", nb, n);
  ALGE_REQUIRE((n / nb) % q == 0, "grid q=%d must divide block count %d", q,
               n / nb);
}

void lu_2d(sim::Comm& comm, const topo::Grid2D& grid, const BlockCyclic& bc,
           sim::Payload local_blocks) {
  bc.validate();
  const int q = grid.q();
  ALGE_REQUIRE(bc.q == q, "BlockCyclic.q=%d must match the grid q=%d", bc.q,
               q);
  ALGE_REQUIRE(local_blocks.size() == bc.local_words(),
               "local buffer must be %zu words", bc.local_words());
  const bool gm = comm.ghost();
  const int nt = bc.nt();
  const int nb = bc.nb;
  const std::size_t nbw = bc.block_words();
  const int myrow = grid.row_of(comm.rank());
  const int mycol = grid.col_of(comm.rank());
  const sim::Group row_g = grid.row_group(myrow);
  const sim::Group col_g = grid.col_group(mycol);
  auto block = [&](int I, int J) {
    return local_blocks.sub(bc.local_offset(I, J), nbw);
  };

  sim::Buffer akk = comm.alloc(nbw);
  // One slot per local block-row/column for the panels of the current step.
  sim::Buffer l_panel = comm.alloc(static_cast<std::size_t>(bc.local_dim()) *
                                   nbw);
  sim::Buffer u_panel = comm.alloc(static_cast<std::size_t>(bc.local_dim()) *
                                   nbw);
  auto l_slot = [&](int I) {
    return l_panel.view().sub(static_cast<std::size_t>(I / q) * nbw, nbw);
  };
  auto u_slot = [&](int J) {
    return u_panel.view().sub(static_cast<std::size_t>(J / q) * nbw, nbw);
  };

  for (int k = 0; k < nt; ++k) {
    const int kr = k % q;
    const int kc = k % q;
    // Factor A(k,k) on its owner, then send it where the panels need it.
    if (myrow == kr && mycol == kc) {
      if (!gm) lu_factor_inplace(block(k, k).span(), nb);
      comm.compute(lu_factor_flops(nb));
      if (!gm) std::copy_n(block(k, k).data(), nbw, akk.data());
    }
    if (mycol == kc) comm.bcast(akk.view(), kr, col_g);
    if (myrow == kr) comm.bcast(akk.view(), kc, row_g);

    // My first block-row and block-column of the trailing submatrix.
    const int i0 = first_from(k + 1, myrow, q);
    const int j0 = first_from(k + 1, mycol, q);

    // Panels: L(i,k) = A(i,k)·U(k,k)⁻¹ on column kc; U(k,j) = L(k,k)⁻¹·A(k,j)
    // on row kr.
    if (mycol == kc) {
      for (int i = i0; i < nt; i += q) {
        if (!gm) trsm_upper_right(akk.span(), block(i, k).span(), nb);
        comm.compute(trsm_flops(nb));
      }
    }
    if (myrow == kr) {
      for (int j = j0; j < nt; j += q) {
        if (!gm) trsm_lower_left(akk.span(), block(k, j).span(), nb);
        comm.compute(trsm_flops(nb));
      }
    }

    // Broadcast the panels into the trailing submatrix.
    for (int i = i0; i < nt; i += q) {
      if (mycol == kc && !gm) {
        std::copy_n(block(i, k).data(), nbw, l_slot(i).data());
      }
      comm.bcast(l_slot(i), kc, row_g);
    }
    for (int j = j0; j < nt; j += q) {
      if (myrow == kr && !gm) {
        std::copy_n(block(k, j).data(), nbw, u_slot(j).data());
      }
      comm.bcast(u_slot(j), kr, col_g);
    }

    // Trailing update of my blocks.
    for (int i = i0; i < nt; i += q) {
      for (int j = j0; j < nt; j += q) {
        if (!gm) {
          matmul_sub(l_slot(i).data(), u_slot(j).data(), block(i, j).data(),
                     nb, nb, nb);
        }
        comm.compute(gemm_update_flops(nb));
      }
    }
  }
}

void lu_25d(sim::Comm& comm, const topo::Grid3D& grid, const BlockCyclic& bc,
            sim::Payload local_blocks) {
  bc.validate();
  const int q = grid.q();
  const int c = grid.c();
  ALGE_REQUIRE(bc.q == q, "BlockCyclic.q=%d must match the grid q=%d", bc.q,
               q);
  const bool gm = comm.ghost();
  const int myrow = grid.row_of(comm.rank());
  const int mycol = grid.col_of(comm.rank());
  const int l = grid.layer_of(comm.rank());
  if (l == 0) {
    ALGE_REQUIRE(local_blocks.size() == bc.local_words(),
                 "layer-0 local buffer must be %zu words", bc.local_words());
  } else {
    ALGE_REQUIRE(local_blocks.empty(), "non-root layers pass empty payloads");
  }
  const int nt = bc.nt();
  const int nb = bc.nb;
  const std::size_t nbw = bc.block_words();
  const sim::Group row_g = grid.row_group(myrow, l);
  const sim::Group col_g = grid.col_group(mycol, l);
  const sim::Group depth_g = grid.depth_group(myrow, mycol);
  auto slice_of = [&](int J) { return J % c; };  // layer updating column J
  // The columns this rank updates are J ≡ mycol (mod q) with
  // slice_of(J) == l: one residue class modulo lcm(q, c), or none when
  // mycol and l differ modulo gcd(q, c).
  const int qc = std::lcm(q, c);
  int slice_res = -1;
  for (int r = mycol; r < qc; r += q) {
    if (slice_of(r) == l) {
      slice_res = r;
      break;
    }
  }
  auto first_slice_col = [&](int lo) {
    return slice_res < 0 ? nt : first_from(lo, slice_res, qc);
  };

  // Replicate the matrix across the layers.
  sim::Buffer mine = comm.alloc(bc.local_words());
  if (l == 0 && !gm) {
    std::copy_n(local_blocks.data(), bc.local_words(), mine.data());
  }
  comm.bcast(mine.view(), 0, depth_g);
  auto block = [&](int I, int J) {
    return mine.view().sub(bc.local_offset(I, J), nbw);
  };

  sim::Buffer akk = comm.alloc(nbw);
  sim::Buffer l_panel = comm.alloc(static_cast<std::size_t>(bc.local_dim()) *
                                   nbw);
  sim::Buffer u_panel = comm.alloc(static_cast<std::size_t>(bc.local_dim()) *
                                   nbw);
  auto l_slot = [&](int I) {
    return l_panel.view().sub(static_cast<std::size_t>(I / q) * nbw, nbw);
  };
  auto u_slot = [&](int J) {
    return u_panel.view().sub(static_cast<std::size_t>(J / q) * nbw, nbw);
  };

  for (int k = 0; k < nt; ++k) {
    const int kr = k % q;
    const int kc = k % q;
    const int lk = slice_of(k);  // layer whose copy of column k is current
    const int i0 = first_from(k + 1, myrow, q);
    const int j0 = first_slice_col(k + 1);

    // 1. Layer lk factors the diagonal block and forms the L panel.
    if (l == lk) {
      if (myrow == kr && mycol == kc) {
        if (!gm) lu_factor_inplace(block(k, k).span(), nb);
        comm.compute(lu_factor_flops(nb));
        if (!gm) std::copy_n(block(k, k).data(), nbw, akk.data());
      }
      if (mycol == kc) {
        comm.bcast(akk.view(), kr, col_g);
        for (int i = i0; i < nt; i += q) {
          if (!gm) trsm_upper_right(akk.span(), block(i, k).span(), nb);
          comm.compute(trsm_flops(nb));
          if (!gm) std::copy_n(block(i, k).data(), nbw, l_slot(i).data());
        }
      }
    }

    // 2. Depth broadcasts: A(k,k) and the L panel leave layer lk.
    if (myrow == kr && mycol == kc) comm.bcast(akk.view(), lk, depth_g);
    if (mycol == kc) {
      for (int i = i0; i < nt; i += q) {
        comm.bcast(l_slot(i), lk, depth_g);
        // Keep every layer's copy of column k current (it is column k's
        // home slice only on layer lk, but the factored panel is part of
        // the final answer gathered from layer lk; copies keep the
        // replicated matrix consistent).
        if (!gm) std::copy_n(l_slot(i).data(), nbw, block(i, k).data());
      }
    }
    if (myrow == kr && mycol == kc && !gm) {
      std::copy_n(akk.data(), nbw, block(k, k).data());
    }

    // 3. Within each layer: U panel for this layer's slice columns.
    if (myrow == kr) comm.bcast(akk.view(), kc, row_g);
    if (myrow == kr) {
      for (int j = j0; j < nt; j += qc) {
        if (!gm) trsm_lower_left(akk.span(), block(k, j).span(), nb);
        comm.compute(trsm_flops(nb));
      }
    }

    // 4. Panel broadcasts within the layer.
    for (int i = i0; i < nt; i += q) {
      // l_slot(i) already holds L(i,k) on column kc ranks (depth bcast).
      comm.bcast(l_slot(i), kc, row_g);
    }
    for (int j = j0; j < nt; j += qc) {
      if (myrow == kr && !gm) {
        std::copy_n(block(k, j).data(), nbw, u_slot(j).data());
      }
      comm.bcast(u_slot(j), kr, col_g);
    }

    // 5. Trailing update of my slice.
    for (int i = i0; i < nt; i += q) {
      for (int j = j0; j < nt; j += qc) {
        if (!gm) {
          matmul_sub(l_slot(i).data(), u_slot(j).data(), block(i, j).data(),
                     nb, nb, nb);
        }
        comm.compute(gemm_update_flops(nb));
      }
    }
  }

  // Gather: block (I,J)'s final value lives on layer slice_of(J). Layer 0
  // takes every block of its own, copying its slice and receiving the
  // rest; layer l > 0 sends its slice, in the same (I, J) order.
  for (int I = myrow; I < nt; I += q) {
    if (l != 0) {
      for (int J = first_slice_col(0); J < nt; J += qc) {
        comm.send(grid.rank_of(myrow, mycol, 0), block(I, J), kTagGather);
      }
      continue;
    }
    for (int J = mycol; J < nt; J += q) {
      const int home = slice_of(J);
      if (home != 0) {
        comm.recv(grid.rank_of(myrow, mycol, home),
                  local_blocks.sub(bc.local_offset(I, J), nbw), kTagGather);
      } else if (!gm) {
        std::copy_n(block(I, J).data(), nbw,
                    local_blocks.data() + bc.local_offset(I, J));
      }
    }
  }
}

}  // namespace alge::algs
