#include "algs/strassen/caps.hpp"

#include <algorithm>
#include <string_view>
#include <vector>

#include "algs/matmul/local.hpp"
#include "algs/strassen/layout.hpp"
#include "algs/strassen/local.hpp"
#include "support/common.hpp"

namespace alge::algs {

namespace {
constexpr int kTagDown = 201;
constexpr int kTagUp = 202;

struct Ctx {
  sim::Comm* comm = nullptr;
  const CapsOptions* opts = nullptr;
  bool ghost = false;
};

/// out = x + sign·y over `len` doubles, charged as real flops.
void combine(Ctx& ctx, const double* x, const double* y, double sign,
             double* out, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) out[i] = x[i] + sign * y[i];
  ctx.comm->compute(static_cast<double>(len));
}

// Ghost-mode twins of form_operands / form_result: charge the same
// compute() calls — one per combine, at the same granularity, in the same
// count (10 down-sweep, 8 up-sweep) — so trace streams and clocks match the
// full-data path bit-for-bit. The quadrant copies charge nothing there and
// so have no twin here.
void form_operands_cost(Ctx& ctx, std::size_t len) {
  for (int i = 0; i < 10; ++i) ctx.comm->compute(static_cast<double>(len));
}

void form_result_cost(Ctx& ctx, std::size_t len) {
  for (int i = 0; i < 8; ++i) ctx.comm->compute(static_cast<double>(len));
}

/// Form the share-level Strassen operands from the quadrant runs of the A
/// and B shares (each quadrant is a contiguous run of length `len`).
/// s_ops/t_ops are buffers of 7·len; slice i holds the operands of M_{i+1}.
void form_operands(Ctx& ctx, std::span<const double> a,
                   std::span<const double> b, std::size_t len, double* s_ops,
                   double* t_ops) {
  const double* a11 = a.data();
  const double* a12 = a.data() + len;
  const double* a21 = a.data() + 2 * len;
  const double* a22 = a.data() + 3 * len;
  const double* b11 = b.data();
  const double* b12 = b.data() + len;
  const double* b21 = b.data() + 2 * len;
  const double* b22 = b.data() + 3 * len;
  auto s_i = [&](int i) { return s_ops + static_cast<std::size_t>(i) * len; };
  auto t_i = [&](int i) { return t_ops + static_cast<std::size_t>(i) * len; };
  combine(ctx, a11, a22, +1.0, s_i(0), len);  // M1 = (A11+A22)(B11+B22)
  combine(ctx, b11, b22, +1.0, t_i(0), len);
  combine(ctx, a21, a22, +1.0, s_i(1), len);  // M2 = (A21+A22)·B11
  std::copy_n(b11, len, t_i(1));
  std::copy_n(a11, len, s_i(2));              // M3 = A11·(B12-B22)
  combine(ctx, b12, b22, -1.0, t_i(2), len);
  std::copy_n(a22, len, s_i(3));              // M4 = A22·(B21-B11)
  combine(ctx, b21, b11, -1.0, t_i(3), len);
  combine(ctx, a11, a12, +1.0, s_i(4), len);  // M5 = (A11+A12)·B22
  std::copy_n(b22, len, t_i(4));
  combine(ctx, a21, a11, -1.0, s_i(5), len);  // M6 = (A21-A11)(B11+B12)
  combine(ctx, b11, b12, +1.0, t_i(5), len);
  combine(ctx, a12, a22, -1.0, s_i(6), len);  // M7 = (A12-A22)(B21+B22)
  combine(ctx, b21, b22, +1.0, t_i(6), len);
}

/// Assemble the C-share quadrant runs from the 7 product slices (7·len).
void form_result(Ctx& ctx, const double* prods, std::span<double> c,
                 std::size_t len) {
  auto m = [&](int i) { return prods + static_cast<std::size_t>(i) * len; };
  double* c11 = c.data();
  double* c12 = c.data() + len;
  double* c21 = c.data() + 2 * len;
  double* c22 = c.data() + 3 * len;
  combine(ctx, m(0), m(3), +1.0, c11, len);  // C11 = M1+M4-M5+M7
  combine(ctx, c11, m(4), -1.0, c11, len);
  combine(ctx, c11, m(6), +1.0, c11, len);
  combine(ctx, m(2), m(4), +1.0, c12, len);  // C12 = M3+M5
  combine(ctx, m(1), m(3), +1.0, c21, len);  // C21 = M2+M4
  combine(ctx, m(0), m(1), -1.0, c22, len);  // C22 = M1-M2+M3+M6
  combine(ctx, c22, m(2), +1.0, c22, len);
  combine(ctx, c22, m(5), +1.0, c22, len);
}

/// Recursive CAPS step. The calling rank belongs to the group of world
/// ranks [base, base+g); its shares of the current s×s operands have length
/// s²/g. `sched` is the remaining schedule.
void caps_rec(Ctx& ctx, int base, int g, int s, sim::ConstPayload a,
              sim::ConstPayload b, sim::Payload c, std::string_view sched) {
  sim::Comm& comm = *ctx.comm;
  const bool gm = ctx.ghost;
  const std::size_t share = a.size();
  ALGE_CHECK(share == static_cast<std::size_t>(s) * s /
                          static_cast<std::size_t>(g),
             "share length mismatch at s=%d g=%d", s, g);

  if (sched.empty()) {
    ALGE_CHECK(g == 1, "schedule exhausted with %d ranks still grouped", g);
    // The share is the whole s×s submatrix, already row-major (0 Z-levels
    // remain below this depth).
    const int cutoff = ctx.opts->local_cutoff;
    sim::Buffer prod = comm.alloc(share);
    if (cutoff > 0) {
      if (!gm) strassen_multiply(a.span(), b.span(), prod.span(), s, cutoff);
      comm.compute(strassen_flops(s, cutoff));
    } else {
      if (!gm) matmul_add(a.data(), b.data(), prod.data(), s, s, s);
      comm.compute(matmul_flops(s, s, s));
    }
    if (!gm) std::copy(prod.data(), prod.data() + share, c.span().begin());
    return;
  }

  const std::size_t len = share / 4;  // share of one quadrant / product
  sim::Buffer s_ops = comm.alloc(7 * len);
  sim::Buffer t_ops = comm.alloc(7 * len);
  if (gm) {
    form_operands_cost(ctx, len);
  } else {
    form_operands(ctx, a.span(), b.span(), len, s_ops.data(), t_ops.data());
  }

  const char step = sched.front();
  const std::string_view rest = sched.substr(1);

  if (step == 'D') {
    // All g ranks walk the 7 subproblems sequentially; no data movement.
    sim::Buffer prods = comm.alloc(7 * len);
    for (int i = 0; i < 7; ++i) {
      const std::size_t off = static_cast<std::size_t>(i) * len;
      caps_rec(ctx, base, g, s / 2, s_ops.view().sub(off, len),
               t_ops.view().sub(off, len), prods.view().sub(off, len), rest);
    }
    if (gm) {
      form_result_cost(ctx, len);
    } else {
      form_result(ctx, prods.data(), c.span(), len);
    }
    return;
  }

  ALGE_CHECK(step == 'B', "schedule characters must be B or D");
  ALGE_CHECK(g % 7 == 0, "BFS step needs a group divisible by 7 (g=%d)", g);
  const int gc = g / 7;
  const int r = comm.rank() - base;  // my index within the group
  const int my_sub = r / gc;         // subproblem (subgroup) I join
  const int j = r % gc;              // my index within the subgroup

  // Ship my slice of (S_i, T_i) to my counterpart in subgroup i.
  {
    sim::Buffer send_buf = comm.alloc(2 * len);
    for (int i = 0; i < 7; ++i) {
      const std::size_t off = static_cast<std::size_t>(i) * len;
      if (!gm) {
        std::copy_n(s_ops.data() + off, len, send_buf.data());
        std::copy_n(t_ops.data() + off, len, send_buf.data() + len);
      }
      comm.send(base + i * gc + j, send_buf.view(), kTagDown);
    }
  }
  // Receive the 7 parent slices of my subproblem's operands and interleave
  // them into the child (mod gc) cyclic share: element u of the child share
  // came from parent u mod 7, slot u/7 of its slice.
  const std::size_t child_len = 7 * len;
  sim::Buffer a_child = comm.alloc(child_len);
  sim::Buffer b_child = comm.alloc(child_len);
  {
    sim::Buffer recv_buf = comm.alloc(2 * len);
    for (int d = 0; d < 7; ++d) {
      comm.recv(base + j + d * gc, recv_buf.view(), kTagDown);
      if (!gm) {
        for (std::size_t t = 0; t < len; ++t) {
          a_child[t * 7 + static_cast<std::size_t>(d)] = recv_buf[t];
          b_child[t * 7 + static_cast<std::size_t>(d)] = recv_buf[len + t];
        }
      }
    }
  }

  sim::Buffer p_child = comm.alloc(child_len);
  caps_rec(ctx, base + my_sub * gc, gc, s / 2, a_child.view(),
           b_child.view(), p_child.view(), rest);

  // Up-sweep: slice d of my product share goes back to parent rank j+d·gc.
  {
    sim::Buffer send_buf = comm.alloc(len);
    for (int d = 0; d < 7; ++d) {
      if (!gm) {
        for (std::size_t t = 0; t < len; ++t) {
          send_buf[t] = p_child[t * 7 + static_cast<std::size_t>(d)];
        }
      }
      comm.send(base + j + d * gc, send_buf.view(), kTagUp);
    }
  }
  // Collect my slice of every subproblem's product and combine into C.
  sim::Buffer prods = comm.alloc(7 * len);
  for (int i = 0; i < 7; ++i) {
    comm.recv(base + i * gc + j,
              prods.view().sub(static_cast<std::size_t>(i) * len, len),
              kTagUp);
  }
  if (gm) {
    form_result_cost(ctx, len);
  } else {
    form_result(ctx, prods.data(), c.span(), len);
  }
}
}  // namespace

int caps_ranks(int k) {
  ALGE_REQUIRE(k >= 0 && k <= 10, "k=%d out of range", k);
  int p = 1;
  for (int i = 0; i < k; ++i) p *= 7;
  return p;
}

bool caps_schedule_valid(int n, int k, const std::string& schedule) {
  if (n <= 0 || k < 0) return false;
  const std::string sched =
      schedule.empty() ? std::string(static_cast<std::size_t>(k), 'B')
                       : schedule;
  int bs = 0;
  for (char ch : sched) {
    if (ch == 'B') {
      ++bs;
    } else if (ch != 'D') {
      return false;
    }
  }
  if (bs != k) return false;
  long long g = caps_ranks(k);
  long long s = n;
  for (char ch : sched) {
    if (s % 2 != 0) return false;
    const long long quad = (s / 2) * (s / 2);
    if (quad % g != 0) return false;  // share alignment at this level
    s /= 2;
    if (ch == 'B') g /= 7;
  }
  return true;
}

void caps_multiply(sim::Comm& comm, int n, int k, sim::ConstPayload a_share,
                   sim::ConstPayload b_share, sim::Payload c_share,
                   const CapsOptions& opts) {
  const int p = caps_ranks(k);
  ALGE_REQUIRE(comm.size() == p, "CAPS with k=%d needs exactly %d ranks", k,
               p);
  const std::string sched =
      opts.schedule.empty() ? std::string(static_cast<std::size_t>(k), 'B')
                            : opts.schedule;
  ALGE_REQUIRE(caps_schedule_valid(n, k, sched),
               "layout misaligned for n=%d, k=%d, schedule '%s'", n, k,
               sched.c_str());
  const std::size_t share =
      static_cast<std::size_t>(n) * static_cast<std::size_t>(n) /
      static_cast<std::size_t>(p);
  ALGE_REQUIRE(a_share.size() == share && b_share.size() == share &&
                   c_share.size() == share,
               "shares must be n²/p = %zu words", share);
  Ctx ctx{&comm, &opts, comm.ghost()};
  caps_rec(ctx, /*base=*/0, p, n, a_share, b_share, c_share, sched);
}

}  // namespace alge::algs
