#include "algs/matmul/distributed.hpp"

#include <algorithm>
#include <utility>

#include "algs/matmul/local.hpp"
#include "support/common.hpp"

namespace alge::algs {

namespace {
constexpr int kTagSkewA = 101;
constexpr int kTagSkewB = 102;
constexpr int kTagShiftA = 103;
constexpr int kTagShiftB = 104;

int mod(int a, int q) { return ((a % q) + q) % q; }

/// Shared core of Cannon and 2.5D: run `steps` Cannon steps on one layer of
/// a q×q grid, starting at logical step offset `s0`, accumulating into c.
/// a_cur/b_cur must already hold the step-s0-aligned operands:
///   a_cur = A(i, i+j+s0),  b_cur = B(i+j+s0, j).
template <typename RankOf>
void cannon_steps(sim::Comm& comm, int q, int i, int j, int nb, int steps,
                  sim::Payload a_cur, sim::Payload b_cur, sim::Payload c,
                  sim::Payload scratch, const RankOf& rank_of) {
  const bool gm = comm.ghost();
  for (int s = 0; s < steps; ++s) {
    if (!gm) {
      matmul_add(a_cur.data(), b_cur.data(), c.data(), nb, nb, nb);
    }
    comm.compute(matmul_flops(nb, nb, nb));
    if (s + 1 < steps) {
      // A moves one step left, B one step up.
      comm.sendrecv(rank_of(i, mod(j - 1, q)), a_cur,
                    rank_of(i, mod(j + 1, q)), scratch, kTagShiftA);
      if (!gm) {
        std::copy(scratch.span().begin(), scratch.span().end(),
                  a_cur.span().begin());
      }
      comm.sendrecv(rank_of(mod(i - 1, q), j), b_cur,
                    rank_of(mod(i + 1, q), j), scratch, kTagShiftB);
      if (!gm) {
        std::copy(scratch.span().begin(), scratch.span().end(),
                  b_cur.span().begin());
      }
    }
  }
}

/// Align the locally owned blocks for step offset s0: fetch A(i, i+j+s0)
/// and B(i+j+s0, j) from their owners while shipping ours to whoever needs
/// them.
template <typename RankOf>
void cannon_align(sim::Comm& comm, int q, int i, int j, int s0,
                  sim::ConstPayload a_mine, sim::ConstPayload b_mine,
                  sim::Payload a_cur, sim::Payload b_cur,
                  const RankOf& rank_of) {
  // My A block A(i,j) plays the role of A(i, i+j'+s0) for the rank (i,j')
  // with j' = j - i - s0; symmetrically for B.
  const int a_dst = rank_of(i, mod(j - i - s0, q));
  const int a_src = rank_of(i, mod(i + j + s0, q));
  comm.sendrecv(a_dst, a_mine, a_src, a_cur, kTagSkewA);
  const int b_dst = rank_of(mod(i - j - s0, q), j);
  const int b_src = rank_of(mod(i + j + s0, q), j);
  comm.sendrecv(b_dst, b_mine, b_src, b_cur, kTagSkewB);
}

void check_blocks(int n, int q, sim::ConstPayload a, sim::ConstPayload b,
                  sim::ConstPayload c) {
  ALGE_REQUIRE(n > 0 && n % q == 0, "grid size q=%d must divide n=%d", q, n);
  const std::size_t nb2 = static_cast<std::size_t>(n / q) *
                          static_cast<std::size_t>(n / q);
  ALGE_REQUIRE(a.size() == nb2 && b.size() == nb2 && c.size() == nb2,
               "blocks must be (n/q)² = %zu words (got %zu/%zu/%zu)", nb2,
               a.size(), b.size(), c.size());
}
}  // namespace

void cannon_2d(sim::Comm& comm, const topo::Grid2D& grid, int n,
               sim::ConstPayload a_block, sim::ConstPayload b_block,
               sim::Payload c_block) {
  const int q = grid.q();
  ALGE_REQUIRE(grid.p() <= comm.size(), "grid larger than the machine");
  check_blocks(n, q, a_block, b_block, c_block);
  const int nb = n / q;
  const std::size_t nb2 = static_cast<std::size_t>(nb) * nb;
  const int i = grid.row_of(comm.rank());
  const int j = grid.col_of(comm.rank());
  auto rank_of = [&](int r, int c) { return grid.rank_of(r, c); };

  sim::Buffer a_cur = comm.alloc(nb2);
  sim::Buffer b_cur = comm.alloc(nb2);
  sim::Buffer scratch = comm.alloc(nb2);
  cannon_align(comm, q, i, j, /*s0=*/0, a_block, b_block, a_cur.view(),
               b_cur.view(), rank_of);
  cannon_steps(comm, q, i, j, nb, /*steps=*/q, a_cur.view(), b_cur.view(),
               c_block, scratch.view(), rank_of);
}

void summa_2d(sim::Comm& comm, const topo::Grid2D& grid, int n,
              sim::ConstPayload a_block, sim::ConstPayload b_block,
              sim::Payload c_block) {
  const int q = grid.q();
  ALGE_REQUIRE(grid.p() <= comm.size(), "grid larger than the machine");
  check_blocks(n, q, a_block, b_block, c_block);
  const bool gm = comm.ghost();
  const int nb = n / q;
  const std::size_t nb2 = static_cast<std::size_t>(nb) * nb;
  const int i = grid.row_of(comm.rank());
  const int j = grid.col_of(comm.rank());
  const sim::Group row = grid.row_group(i);
  const sim::Group col = grid.col_group(j);

  sim::Buffer a_panel = comm.alloc(nb2);
  sim::Buffer b_panel = comm.alloc(nb2);
  for (int k = 0; k < q; ++k) {
    // Row broadcast of A(:,k) from the column-k owner, column broadcast of
    // B(k,:) from the row-k owner.
    if (j == k && !gm) {
      std::copy(a_block.span().begin(), a_block.span().end(),
                a_panel.data());
    }
    comm.bcast(a_panel.view(), /*root=*/k, row);
    if (i == k && !gm) {
      std::copy(b_block.span().begin(), b_block.span().end(),
                b_panel.data());
    }
    comm.bcast(b_panel.view(), /*root=*/k, col);
    if (!gm) {
      matmul_add(a_panel.data(), b_panel.data(), c_block.data(), nb, nb,
                 nb);
    }
    comm.compute(matmul_flops(nb, nb, nb));
  }
}

void mm_25d(sim::Comm& comm, const topo::Grid3D& grid, int n,
            sim::ConstPayload a_block, sim::ConstPayload b_block,
            sim::Payload c_block, const Mm25dOptions& opts) {
  const int q = grid.q();
  const int c = grid.c();
  ALGE_REQUIRE(grid.p() <= comm.size(), "grid larger than the machine");
  ALGE_REQUIRE(q % c == 0, "replication factor c=%d must divide q=%d", c, q);
  ALGE_REQUIRE(n > 0 && n % q == 0, "grid size q=%d must divide n=%d", q, n);
  const bool gm = comm.ghost();
  const int nb = n / q;
  const std::size_t nb2 = static_cast<std::size_t>(nb) * nb;
  const int i = grid.row_of(comm.rank());
  const int j = grid.col_of(comm.rank());
  const int l = grid.layer_of(comm.rank());
  if (l == 0) {
    ALGE_REQUIRE(a_block.size() == nb2 && b_block.size() == nb2 &&
                     c_block.size() == nb2,
                 "layer-0 blocks must be (n/q)² = %zu words", nb2);
  } else {
    ALGE_REQUIRE(a_block.empty() && b_block.empty() && c_block.empty(),
                 "non-root layers pass empty payloads");
  }
  auto layer_rank_of = [&](int r, int cc) { return grid.rank_of(r, cc, l); };
  const sim::Group depth = grid.depth_group(i, j);

  // Replicate A(i,j), B(i,j) to every layer.
  sim::Buffer a_mine = comm.alloc(nb2);
  sim::Buffer b_mine = comm.alloc(nb2);
  if (l == 0 && !gm) {
    std::copy(a_block.span().begin(), a_block.span().end(), a_mine.data());
    std::copy(b_block.span().begin(), b_block.span().end(), b_mine.data());
  }
  if (opts.ring_replication) {
    comm.bcast_ring(a_mine.view(), /*root=*/0, depth);
    comm.bcast_ring(b_mine.view(), /*root=*/0, depth);
  } else {
    comm.bcast(a_mine.view(), /*root=*/0, depth);
    comm.bcast(b_mine.view(), /*root=*/0, depth);
  }

  // Each layer runs q/c Cannon steps, layer l starting at offset l·q/c.
  const int steps = q / c;
  const int s0 = l * steps;
  sim::Buffer a_cur = comm.alloc(nb2);
  sim::Buffer b_cur = comm.alloc(nb2);
  sim::Buffer scratch = comm.alloc(nb2);
  sim::Buffer c_partial = comm.alloc(nb2);
  cannon_align(comm, q, i, j, s0, a_mine.view(), b_mine.view(), a_cur.view(),
               b_cur.view(), layer_rank_of);
  cannon_steps(comm, q, i, j, nb, steps, a_cur.view(), b_cur.view(),
               c_partial.view(), scratch.view(), layer_rank_of);

  // Sum the layer contributions back onto layer 0.
  comm.reduce_sum(c_partial.view(), l == 0 ? c_block : sim::Payload{},
                  /*root=*/0, depth);
}

}  // namespace alge::algs
