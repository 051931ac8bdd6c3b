#include "algs/fft/fft.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <optional>

#include "algs/kernels.hpp"
#include "support/common.hpp"

namespace alge::algs {

namespace {
bool is_pow2(int n) { return n > 0 && (n & (n - 1)) == 0; }

int ilog2(int n) {
  int lg = 0;
  while ((1 << lg) < n) ++lg;
  return lg;
}
}  // namespace

void fft_inplace(std::span<double> data, int n, bool inverse) {
  ALGE_REQUIRE(is_pow2(n), "FFT size %d must be a power of two", n);
  ALGE_REQUIRE(data.size() == 2 * static_cast<std::size_t>(n),
               "buffer must hold %d complex points (%d words)", n, 2 * n);
  kernels::active().fft(data.data(), kernels::FftTables(n, inverse));
}

std::vector<double> naive_dft(std::span<const double> in, int n,
                              bool inverse) {
  ALGE_REQUIRE(in.size() == 2 * static_cast<std::size_t>(n),
               "buffer must hold %d complex points", n);
  // Roots of unity w[m] = e^{∓2πi·m/n}. Term (j, k) uses w[j·k mod n], so
  // every angle is reduced exactly in integers before it meets cos/sin.
  const long double sign = inverse ? +1.0L : -1.0L;
  std::vector<double> wr(in.size() / 2);
  std::vector<double> wi(in.size() / 2);
  for (int m = 0; m < n; ++m) {
    const long double ang =
        sign * 2.0L * std::numbers::pi_v<long double> * m / n;
    wr[static_cast<std::size_t>(m)] = static_cast<double>(std::cos(ang));
    wi[static_cast<std::size_t>(m)] = static_cast<double>(std::sin(ang));
  }
  std::vector<double> out(in.size(), 0.0);
  for (int k = 0; k < n; ++k) {
    double sr = 0.0;
    double si = 0.0;
    int m = 0;  // j·k mod n
    for (int j = 0; j < n; ++j) {
      const double cr = wr[static_cast<std::size_t>(m)];
      const double ci = wi[static_cast<std::size_t>(m)];
      const double xr = in[2 * static_cast<std::size_t>(j)];
      const double xi = in[2 * static_cast<std::size_t>(j) + 1];
      sr += xr * cr - xi * ci;
      si += xr * ci + xi * cr;
      m += k;
      if (m >= n) m -= n;
    }
    out[2 * static_cast<std::size_t>(k)] = sr;
    out[2 * static_cast<std::size_t>(k) + 1] = si;
  }
  if (inverse) {
    for (double& x : out) x /= n;
  }
  return out;
}

double fft_flops(int n) {
  return 5.0 * static_cast<double>(n) * ilog2(n);
}

void fft_parallel(sim::Comm& comm, int n, int r_dim, int c_dim,
                  sim::ConstPayload my_cols, sim::Payload my_rows,
                  AllToAllKind kind) {
  const int p = comm.size();
  const bool gm = comm.ghost();
  ALGE_REQUIRE(r_dim >= 1 && c_dim >= 1 && r_dim * c_dim == n,
               "need n = R·C (got %d ≠ %d·%d)", n, r_dim, c_dim);
  ALGE_REQUIRE(is_pow2(r_dim) && is_pow2(c_dim),
               "R=%d and C=%d must be powers of two", r_dim, c_dim);
  ALGE_REQUIRE(r_dim % p == 0 && c_dim % p == 0,
               "p=%d must divide both R=%d and C=%d", p, r_dim, c_dim);
  const int cl = c_dim / p;  // my columns
  const int rl = r_dim / p;  // my output rows
  ALGE_REQUIRE(my_cols.size() == 2 * static_cast<std::size_t>(r_dim) * cl,
               "input must be 2·R·C/p words");
  ALGE_REQUIRE(my_rows.size() == 2 * static_cast<std::size_t>(c_dim) * rl,
               "output must be 2·C·R/p words");
  const int h = comm.rank();

  // Step 1+2: R-point FFT down each of my columns, then twiddle
  // Z[k1,j2] = Y[k1,j2]·w_n^{j2·k1}. One table per transform size.
  std::optional<kernels::FftTables> col_tables;
  std::optional<kernels::FftTables> row_tables;
  if (!gm) {
    col_tables.emplace(r_dim, false);
    row_tables.emplace(c_dim, false);
  }
  const kernels::Isa& isa = kernels::active();
  sim::Buffer work = comm.alloc(my_cols.size());
  if (!gm) std::copy(my_cols.span().begin(), my_cols.span().end(),
                     work.data());
  for (int jl = 0; jl < cl; ++jl) {
    if (!gm) {
      double* col = work.data() + 2 * static_cast<std::size_t>(jl) * r_dim;
      isa.fft(col, *col_tables);
      const int j2 = h * cl + jl;
      for (int k1 = 0; k1 < r_dim; ++k1) {
        const double ang = -2.0 * std::numbers::pi *
                           static_cast<double>(j2) * k1 / n;
        const double cr = std::cos(ang);
        const double ci = std::sin(ang);
        double& re = col[2 * static_cast<std::size_t>(k1)];
        double& im = col[2 * static_cast<std::size_t>(k1) + 1];
        const double nr = re * cr - im * ci;
        im = re * ci + im * cr;
        re = nr;
      }
    }
    comm.compute(fft_flops(r_dim));
    comm.compute(6.0 * r_dim);  // twiddle multiplies
  }

  // Step 3: all-to-all transpose. Block for rank h': my columns × its k1
  // range, (C/p)·(R/p) complex points each: one run of rl points per column.
  const std::size_t blk = 2 * static_cast<std::size_t>(cl) * rl;
  const std::size_t run = 2 * static_cast<std::size_t>(rl);
  sim::Buffer sendbuf = comm.alloc(blk * static_cast<std::size_t>(p));
  sim::Buffer recvbuf = comm.alloc(blk * static_cast<std::size_t>(p));
  if (!gm) {
    for (int dst = 0; dst < p; ++dst) {
      double* out = sendbuf.data() + blk * static_cast<std::size_t>(dst);
      for (int jl = 0; jl < cl; ++jl) {
        const double* in = work.data() +
                           2 * static_cast<std::size_t>(jl) * r_dim +
                           run * static_cast<std::size_t>(dst);
        std::copy_n(in, run, out + run * static_cast<std::size_t>(jl));
      }
    }
  }
  const sim::Group world = sim::Group::world(p);
  if (kind == AllToAllKind::kDirect) {
    comm.alltoall(sendbuf.view(), recvbuf.view(), world);
  } else {
    comm.alltoall_bruck(sendbuf.view(), recvbuf.view(), world);
  }

  // Reassemble my rows: the block from rank `src` holds its columns
  // j2 = src·C/p + jl at my k1 values, column by column.
  if (!gm) {
    for (int src = 0; src < p; ++src) {
      transpose_complex(recvbuf.data() + blk * static_cast<std::size_t>(src),
                        rl, my_rows.span().data() +
                                2 * static_cast<std::size_t>(src) * cl,
                        c_dim, cl, rl);
    }
  }

  // Step 4: C-point FFT along each of my rows; entry k2 of the row FFT is
  // X[k1 + k2·R].
  for (int k1l = 0; k1l < rl; ++k1l) {
    if (!gm) {
      isa.fft(my_rows.span().data() + 2 * static_cast<std::size_t>(k1l) * c_dim,
              *row_tables);
    }
    comm.compute(fft_flops(c_dim));
  }
}

void transpose_complex(const double* src, std::size_t lds, double* dst,
                       std::size_t ldd, int rows, int cols) {
  // Square tiles of points: each tile reads kTile runs of 16·kTile bytes
  // and writes kTile such runs, so neither side strides across memory.
  constexpr int kTile = 16;
  for (int r0 = 0; r0 < rows; r0 += kTile) {
    const int r1 = std::min(rows, r0 + kTile);
    for (int c0 = 0; c0 < cols; c0 += kTile) {
      const int c1 = std::min(cols, c0 + kTile);
      for (int c = c0; c < c1; ++c) {
        double* out = dst + 2 * static_cast<std::size_t>(c) * ldd;
        for (int r = r0; r < r1; ++r) {
          const double* in = src + 2 * (static_cast<std::size_t>(r) * lds +
                                        static_cast<std::size_t>(c));
          out[2 * static_cast<std::size_t>(r)] = in[0];
          out[2 * static_cast<std::size_t>(r) + 1] = in[1];
        }
      }
    }
  }
}

}  // namespace alge::algs
