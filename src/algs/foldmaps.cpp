#include "algs/foldmaps.hpp"

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algs/lu/local.hpp"
#include "algs/matmul/local.hpp"
#include "sim/fold_rotor.hpp"
#include "support/common.hpp"

namespace alge::algs {

namespace {

/// Single-class map: every rank fold-congruent, one fiber total.
std::shared_ptr<const sim::FoldMap> single_class(int p) {
  if (p < 2) return nullptr;
  std::vector<sim::FoldClass> classes{{/*rep=*/0, /*size=*/p,
                                       /*scatter=*/true}};
  return std::make_shared<const sim::FoldMap>(p, std::move(classes),
                                              [](int) { return 0; });
}

/// Wrap a finished rotor schedule as a fold map (sim/fold_rotor.hpp).
std::shared_ptr<const sim::FoldMap> rotor_map(sim::RotorSchedule rs) {
  const int p = rs.p();
  return std::make_shared<const sim::FoldMap>(sim::FoldMap::with_rotor(
      p, std::make_shared<const sim::RotorSchedule>(std::move(rs))));
}

}  // namespace

std::shared_ptr<const sim::FoldMap> foldmap_mm25d(int q, int c) {
  // c > 1: the depth broadcast/reduce couples layers whose four-way class
  // structure differs per (i, j); class replay cannot align those channels
  // exactly, so the machine runs per-fiber. c == 1 is pure Cannon.
  if (c != 1 || q < 2 ||
      static_cast<double>(q) * q > std::numeric_limits<int>::max()) {
    return nullptr;
  }
  // cannon_align with s0 = 0 makes row 0 keep its A block (self-send,
  // free) and column 0 keep its B block; everyone else pays a real send.
  // That splits the layer into exactly four cost classes; within each,
  // all traffic is translation-congruent.
  std::vector<sim::FoldClass> classes{
      {/*rep=*/0, /*size=*/1, /*scatter=*/true},          // (0,0)
      {/*rep=*/1, /*size=*/q - 1, /*scatter=*/true},      // row 0, j > 0
      {/*rep=*/q, /*size=*/q - 1, /*scatter=*/true},      // col 0, i > 0
      {/*rep=*/q + 1, /*size=*/(q - 1) * (q - 1),
       /*scatter=*/true},                                 // interior
  };
  return std::make_shared<const sim::FoldMap>(
      q * q, std::move(classes), [q](int r) {
        const int i = r / q;
        const int j = r % q;
        return i == 0 ? (j == 0 ? 0 : 1) : (j == 0 ? 2 : 3);
      });
}

std::shared_ptr<const sim::FoldMap> foldmap_mm25d(int q, int c, int nb,
                                                  bool ring_replication) {
  if (c == 1) return foldmap_mm25d(q, c);
  // c > 1: rotor schedule transcribing mm_25d (algs/matmul/distributed.cpp)
  // op for op. The layer-l skew offset s0 = l·(q/c) is what defeats the
  // class-level fold — the rotor evaluator's kSkewA/kSkewB ops carry it as
  // a position parameter instead. Ring replication's pipelined depth chain
  // has no rotor op; that option stays per-fiber.
  if (q < 2 || c < 1 || q % c != 0 || nb < 1 || ring_replication) {
    return nullptr;
  }
  const std::size_t nb2 = static_cast<std::size_t>(nb) * nb;
  const double mm = matmul_flops(nb, nb, nb);
  sim::RotorSchedule rs;
  rs.q = q;
  rs.c = c;
  using K = sim::RotorOp::Kind;
  auto op = [&rs](K k) -> sim::RotorOp& {
    rs.ops.push_back({});
    rs.ops.back().kind = k;
    return rs.ops.back();
  };
  op(K::kAlloc).words = nb2;  // a_mine
  op(K::kAlloc).words = nb2;  // b_mine
  op(K::kBcastDepth).words = nb2;
  op(K::kBcastDepth).words = nb2;
  op(K::kAlloc).words = nb2;  // a_cur
  op(K::kAlloc).words = nb2;  // b_cur
  op(K::kAlloc).words = nb2;  // scratch
  op(K::kAlloc).words = nb2;  // c_partial
  op(K::kSkewA).words = nb2;
  op(K::kSkewB).words = nb2;
  const int steps = q / c;
  for (int s = 0; s < steps; ++s) {
    op(K::kCompute).flops = mm;
    if (s + 1 < steps) {
      op(K::kShiftA).words = nb2;
      op(K::kShiftB).words = nb2;
    }
  }
  op(K::kReduceDepth).words = nb2;
  // Buffer destruction, reverse declaration order.
  op(K::kFree).words = nb2;  // c_partial
  op(K::kFree).words = nb2;  // scratch
  op(K::kFree).words = nb2;  // b_cur
  op(K::kFree).words = nb2;  // a_cur
  op(K::kFree).words = nb2;  // b_mine
  op(K::kFree).words = nb2;  // a_mine
  return rotor_map(std::move(rs));
}

std::shared_ptr<const sim::FoldMap> foldmap_summa(int n, int q) {
  if (q < 2 || n < 1 || n % q != 0) return nullptr;
  // Rotor transcription of summa_2d: per step k, a row broadcast of the
  // A panel rooted at column k and a column broadcast of the B panel
  // rooted at row k — the rotating root is the position parameter.
  const int nb = n / q;
  const std::size_t nb2 = static_cast<std::size_t>(nb) * nb;
  const double mm = matmul_flops(nb, nb, nb);
  sim::RotorSchedule rs;
  rs.q = q;
  rs.c = 1;
  using K = sim::RotorOp::Kind;
  auto op = [&rs](K k) -> sim::RotorOp& {
    rs.ops.push_back({});
    rs.ops.back().kind = k;
    return rs.ops.back();
  };
  op(K::kAlloc).words = nb2;  // a_panel
  op(K::kAlloc).words = nb2;  // b_panel
  for (int k = 0; k < q; ++k) {
    sim::RotorOp& a = op(K::kBcastRow);
    a.root = k;
    a.words = nb2;
    sim::RotorOp& b = op(K::kBcastCol);
    b.root = k;
    b.words = nb2;
    op(K::kCompute).flops = mm;
  }
  op(K::kFree).words = nb2;  // b_panel
  op(K::kFree).words = nb2;  // a_panel
  return rotor_map(std::move(rs));
}

std::shared_ptr<const sim::FoldMap> foldmap_lu(int n, int nb, int q, int c) {
  // The 2.5D variant gathers finished blocks to layer 0 with per-block
  // point-to-point sends whose peers depend on (I, J) beyond any axis
  // structure; c > 1 stays per-fiber.
  if (c != 1) return nullptr;
  if (q < 2 || nb < 1 || n < 1 || n % nb != 0 || (n / nb) % q != 0) {
    return nullptr;
  }
  // Rotor transcription of lu_2d: per step k the diagonal owner (kr, kr)
  // factors, A(k,k) runs down column kr and across row kr, the panel
  // triangular solves and broadcasts repeat t[i] times per row/column
  // coordinate (the block-cyclic count of local panels beyond k), and the
  // trailing update runs t[i]·t[j] times — all expressed with the
  // participation masks (at most two runs each), roots rotating with k % q.
  const int nt = n / nb;
  const int ld = nt / q;
  const std::size_t nbw = static_cast<std::size_t>(nb) * nb;
  const std::size_t panel = static_cast<std::size_t>(ld) * nbw;
  const double f_getrf = lu_factor_flops(nb);
  const double f_trsm = trsm_flops(nb);
  const double f_gemm = gemm_update_flops(nb);
  sim::RotorSchedule rs;
  rs.q = q;
  rs.c = 1;
  using K = sim::RotorOp::Kind;
  auto op = [&rs](K k) -> sim::RotorOp& {
    rs.ops.push_back({});
    rs.ops.back().kind = k;
    return rs.ops.back();
  };
  op(K::kAlloc).words = nbw;    // akk
  op(K::kAlloc).words = panel;  // l_panel
  op(K::kAlloc).words = panel;  // u_panel
  for (int k = 0; k < nt; ++k) {
    const int kr = k % q;
    const std::vector<sim::RotorRun> diag{{kr, kr + 1, 1}};
    sim::RotorOp& getrf = op(K::kCompute);
    getrf.flops = f_getrf;
    getrf.row_rep = diag;
    getrf.col_rep = diag;
    sim::RotorOp& akk_col = op(K::kBcastCol);
    akk_col.root = kr;
    akk_col.words = nbw;
    akk_col.col_rep = diag;
    sim::RotorOp& akk_row = op(K::kBcastRow);
    akk_row.root = kr;
    akk_row.words = nbw;
    akk_row.row_rep = diag;
    if (k + 1 < nt) {
      // t: how many of the block rows/columns k+1..nt-1 land on each grid
      // coordinate: h = nt/q - (k+1)/q >= 1 from (k+1) mod q on, h-1 below.
      const int h = ld - (k + 1) / q;
      const int cut = (k + 1) % q;
      std::vector<sim::RotorRun> t;
      if (cut > 0 && h > 1) t.push_back({0, cut, h - 1});
      t.push_back({cut, q, h});
      sim::RotorOp& trsm_l = op(K::kCompute);
      trsm_l.flops = f_trsm;
      trsm_l.row_rep = t;
      trsm_l.col_rep = diag;
      sim::RotorOp& trsm_u = op(K::kCompute);
      trsm_u.flops = f_trsm;
      trsm_u.row_rep = diag;
      trsm_u.col_rep = t;
      sim::RotorOp& l_bcast = op(K::kBcastRow);
      l_bcast.root = kr;
      l_bcast.words = nbw;
      l_bcast.row_rep = t;
      sim::RotorOp& u_bcast = op(K::kBcastCol);
      u_bcast.root = kr;
      u_bcast.words = nbw;
      u_bcast.col_rep = t;
      sim::RotorOp& gemm = op(K::kCompute);
      gemm.flops = f_gemm;
      gemm.row_rep = t;
      gemm.col_rep = std::move(t);
    }
  }
  op(K::kFree).words = panel;  // u_panel
  op(K::kFree).words = panel;  // l_panel
  op(K::kFree).words = nbw;    // akk
  return rotor_map(std::move(rs));
}

std::shared_ptr<const sim::FoldMap> foldmap_caps(int p) {
  // Every CAPS rank runs the identical BFS/DFS schedule with peers given
  // by its own base/sub-index coordinates; costs are rank-independent
  // (each BFS exchange includes exactly one free self-send, at a
  // per-rank position that only permutes the order of identical charges).
  return single_class(p);
}

std::shared_ptr<const sim::FoldMap> foldmap_fft(int p) {
  // Transpose all-to-all, direct or Bruck: fully translation-symmetric;
  // the "self block" is a local copy outside the Comm layer.
  return single_class(p);
}

std::shared_ptr<const sim::FoldMap> foldmap_nbody(int p, int c) {
  if (c < 1 || p % c != 0) return nullptr;
  const int cols = p / c;
  if (cols < 1) return nullptr;
  // Team broadcast/reduce roles, ring-shift distances and the step count
  // all depend only on the team row; every peer of a row-i rank sits in a
  // row determined by the schedule position alone, so channels keep
  // destination filtering (scatter=false) and the leftover-entry check.
  std::vector<sim::FoldClass> classes;
  classes.reserve(static_cast<std::size_t>(c));
  for (int i = 0; i < c; ++i) {
    classes.push_back({/*rep=*/i * cols, /*size=*/cols, /*scatter=*/false});
  }
  return std::make_shared<const sim::FoldMap>(
      p, std::move(classes), [cols](int r) { return r / cols; });
}

std::shared_ptr<const sim::FoldMap> foldmap_tsqr(int p) {
  // The eager refinement tables are load-bearing (the fixpoint needs the
  // previous round's class of rank me+mask, which a closed form per rank
  // would recompute O(log p) deep); their footprint is ~3 int vectors of
  // length p plus the hash map — about 300 MB at the 2^24 cap, built in a
  // few seconds. Beyond that, per-fiber execution of the O(log p)-class
  // fold costs less than the build itself.
  if (p < 2 || p > (1 << 24)) return nullptr;
  // Partition refinement over the analytic fan-in skeleton
  // (algs/qr/tsqr.cpp): at round `mask`, rank me either sends to me-mask
  // and stops (me & mask) or receives from me+mask (me+mask < p). Two
  // ranks fold together only when they have the same (kind, level)
  // skeleton AND, at every receive, sources in the same class — iterated
  // to fixpoint, so merged ranks provably share per-event cost schedules.
  // Send destinations are deliberately NOT part of the signature: their
  // classes vary per member (me - mask), which is exactly what
  // FoldClass::scatter's positional channel matching handles.
  auto cls = std::make_shared<std::vector<int>>(static_cast<std::size_t>(p),
                                                0);
  std::vector<int> next(static_cast<std::size_t>(p), 0);
  int num = 1;
  for (int round = 0; round < 2 * 24 + 2; ++round) {
    std::unordered_map<std::uint64_t, int> ids;
    ids.reserve(static_cast<std::size_t>(num) * 2);
    int n_next = 0;
    for (int me = 0; me < p; ++me) {
      std::uint64_t h = 1469598103934665603ull;
      const auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
      };
      mix(static_cast<std::uint64_t>(
          (*cls)[static_cast<std::size_t>(me)]));  // keeps splits monotone
      int level = 0;
      for (int mask = 1; mask < p; mask <<= 1, ++level) {
        if (me & mask) {
          mix(0x5eu);
          mix(static_cast<std::uint64_t>(level));
          break;
        }
        if (me + mask < p) {
          mix(0x2cu);
          mix(static_cast<std::uint64_t>(level));
          mix(static_cast<std::uint64_t>(
              (*cls)[static_cast<std::size_t>(me + mask)]));
        }
      }
      const auto [it, inserted] = ids.try_emplace(h, n_next);
      if (inserted) ++n_next;
      next[static_cast<std::size_t>(me)] = it->second;
    }
    const bool stable = n_next == num && next == *cls;
    cls->swap(next);
    num = n_next;
    if (stable) break;
  }
  std::vector<sim::FoldClass> classes(static_cast<std::size_t>(num));
  std::vector<bool> seen(static_cast<std::size_t>(num), false);
  for (int r = 0; r < p; ++r) {
    const int c = (*cls)[static_cast<std::size_t>(r)];
    auto& fc = classes[static_cast<std::size_t>(c)];
    if (!seen[static_cast<std::size_t>(c)]) {
      seen[static_cast<std::size_t>(c)] = true;
      fc.rep = r;  // ids assigned in ascending-rank first appearance
    }
    ++fc.size;
    fc.scatter = true;
  }
  return std::make_shared<const sim::FoldMap>(
      p, std::move(classes),
      [cls](int r) { return (*cls)[static_cast<std::size_t>(r)]; });
}

}  // namespace alge::algs
