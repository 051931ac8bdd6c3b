#include "algs/qr/tsqr.hpp"

#include <algorithm>

#include "algs/kernels.hpp"
#include "support/common.hpp"

namespace alge::algs {

std::vector<double> householder_qr_r(std::span<double> a, int m, int b) {
  ALGE_REQUIRE(m >= b && b >= 1, "need m >= b >= 1 (got %d x %d)", m, b);
  ALGE_REQUIRE(a.size() == static_cast<std::size_t>(m) * b,
               "block must be m*b = %d words", m * b);
  kernels::active().qr(a.data(), m, b);
  std::vector<double> r(static_cast<std::size_t>(b) * b, 0.0);
  for (int i = 0; i < b; ++i) {
    for (int j = i; j < b; ++j) {
      r[static_cast<std::size_t>(i) * b + j] =
          a[static_cast<std::size_t>(i) * b + j];
    }
  }
  return r;
}

double qr_flops(int m, int b) {
  return 2.0 * static_cast<double>(m) * b * b -
         2.0 / 3.0 * static_cast<double>(b) * b * b;
}

namespace {
constexpr int kTagTsqr = 501;
constexpr int kTagGatherQr = 502;
}  // namespace

void tsqr(sim::Comm& comm, int b, sim::ConstPayload a_local,
          sim::Payload r_out) {
  ALGE_REQUIRE(b >= 1, "column count must be positive");
  ALGE_REQUIRE(a_local.size() % static_cast<std::size_t>(b) == 0,
               "local block must be a whole number of rows");
  const int rows = static_cast<int>(a_local.size()) / b;
  ALGE_REQUIRE(rows >= b, "each rank needs at least b=%d rows (has %d)", b,
               rows);
  const bool gm = comm.ghost();
  const std::size_t b2 = static_cast<std::size_t>(b) * b;
  const int me = comm.rank();
  const int p = comm.size();
  if (me == 0) {
    ALGE_REQUIRE(r_out.size() == b2, "rank 0 output must be b*b words");
  } else {
    ALGE_REQUIRE(r_out.empty(), "only rank 0 receives R");
  }

  // Local factorization.
  sim::Buffer work = comm.alloc(a_local.size());
  std::vector<double> r;
  if (!gm) {
    std::copy(a_local.span().begin(), a_local.span().end(), work.data());
    r = householder_qr_r(work.span(), rows, b);
  }
  comm.compute(qr_flops(rows, b));

  // Binomial fan-in: at round `mask`, odd multiples send their R to the
  // even partner, which stacks [R_mine; R_theirs] and re-factors.
  sim::Buffer stacked = comm.alloc(2 * b2);
  for (int mask = 1; mask < p; mask <<= 1) {
    if (me & mask) {
      comm.send(me - mask, gm ? sim::ConstPayload::ghost(b2)
                              : sim::ConstPayload(r), kTagTsqr);
      return;  // this rank is done
    }
    if (me + mask < p) {
      if (!gm) std::copy(r.begin(), r.end(), stacked.data());
      comm.recv(me + mask, stacked.view().sub(b2, b2), kTagTsqr);
      if (!gm) r = householder_qr_r(stacked.span(), 2 * b, b);
      comm.compute(qr_flops(2 * b, b));
    }
  }
  if (!gm) std::copy(r.begin(), r.end(), r_out.span().begin());
}

void gather_qr(sim::Comm& comm, int b, sim::ConstPayload a_local,
               sim::Payload r_out) {
  ALGE_REQUIRE(b >= 1, "column count must be positive");
  const bool gm = comm.ghost();
  const int me = comm.rank();
  const int p = comm.size();
  const std::size_t b2 = static_cast<std::size_t>(b) * b;
  if (me != 0) {
    ALGE_REQUIRE(r_out.empty(), "only rank 0 receives R");
    comm.send(0, a_local, kTagGatherQr);
    return;
  }
  ALGE_REQUIRE(r_out.size() == b2, "rank 0 output must be b*b words");
  // Assume equal block sizes (the harness arranges this).
  sim::Buffer all = comm.alloc(a_local.size() * static_cast<std::size_t>(p));
  if (!gm) {
    std::copy(a_local.span().begin(), a_local.span().end(), all.data());
  }
  for (int src = 1; src < p; ++src) {
    comm.recv(src,
              all.view().sub(a_local.size() * static_cast<std::size_t>(src),
                             a_local.size()),
              kTagGatherQr);
  }
  const int rows = static_cast<int>(all.size()) / b;
  if (!gm) {
    const auto r = householder_qr_r(all.span(), rows, b);
    std::copy(r.begin(), r.end(), r_out.span().begin());
  }
  comm.compute(qr_flops(rows, b));
}

}  // namespace alge::algs
