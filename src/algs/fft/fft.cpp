#include "algs/fft/fft.hpp"

#include <cmath>
#include <numbers>

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
  // Bit-reversal permutation.
  const int lg = ilog2(n);
  for (int i = 0; i < n; ++i) {
    int rev = 0;
    for (int b = 0; b < lg; ++b) rev |= ((i >> b) & 1) << (lg - 1 - b);
    if (i < rev) {
      std::swap(data[2 * static_cast<std::size_t>(i)],
                data[2 * static_cast<std::size_t>(rev)]);
      std::swap(data[2 * static_cast<std::size_t>(i) + 1],
                data[2 * static_cast<std::size_t>(rev) + 1]);
    }
  }
  const double sign = inverse ? +1.0 : -1.0;
  for (int len = 2; len <= n; len <<= 1) {
    const double ang = sign * 2.0 * std::numbers::pi / len;
    const double wr = std::cos(ang);
    const double wi = std::sin(ang);
    for (int start = 0; start < n; start += len) {
      double cr = 1.0;
      double ci = 0.0;
      for (int off = 0; off < len / 2; ++off) {
        const std::size_t a = 2 * static_cast<std::size_t>(start + off);
        const std::size_t b =
            2 * static_cast<std::size_t>(start + off + len / 2);
        const double xr = data[b] * cr - data[b + 1] * ci;
        const double xi = data[b] * ci + data[b + 1] * cr;
        data[b] = data[a] - xr;
        data[b + 1] = data[a + 1] - xi;
        data[a] += xr;
        data[a + 1] += xi;
        const double ncr = cr * wr - ci * wi;
        ci = cr * wi + ci * wr;
        cr = ncr;
      }
    }
  }
  if (inverse) {
    const double inv_n = 1.0 / n;
    for (double& x : data) x *= inv_n;
  }
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
  // Z[k1,j2] = Y[k1,j2]·w_n^{j2·k1}.
  sim::Buffer work = comm.alloc(my_cols.size());
  if (!gm) std::copy(my_cols.span().begin(), my_cols.span().end(),
                     work.data());
  for (int jl = 0; jl < cl; ++jl) {
    if (!gm) {
      auto col = work.span().subspan(2 * static_cast<std::size_t>(jl) * r_dim,
                                     2 * static_cast<std::size_t>(r_dim));
      fft_inplace(col, r_dim);
    }
    comm.compute(fft_flops(r_dim));
    if (!gm) {
      auto col = work.span().subspan(2 * static_cast<std::size_t>(jl) * r_dim,
                                     2 * static_cast<std::size_t>(r_dim));
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
    comm.compute(6.0 * r_dim);  // twiddle multiplies
  }

  // Step 3: all-to-all transpose. Block for rank h': my columns × its k1
  // range, (C/p)·(R/p) complex points each.
  const std::size_t blk = 2 * static_cast<std::size_t>(cl) * rl;
  sim::Buffer sendbuf = comm.alloc(blk * static_cast<std::size_t>(p));
  sim::Buffer recvbuf = comm.alloc(blk * static_cast<std::size_t>(p));
  if (!gm) {
    for (int dst = 0; dst < p; ++dst) {
      double* out = sendbuf.data() + blk * static_cast<std::size_t>(dst);
      std::size_t w = 0;
      for (int jl = 0; jl < cl; ++jl) {
        for (int k1l = 0; k1l < rl; ++k1l) {
          const int k1 = dst * rl + k1l;
          const std::size_t src =
              2 * (static_cast<std::size_t>(jl) * r_dim + k1);
          out[w++] = work[src];
          out[w++] = work[src + 1];
        }
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
  // j2 = src·C/p + jl at my k1 values.
  if (!gm) {
    for (int src = 0; src < p; ++src) {
      const double* in = recvbuf.data() + blk * static_cast<std::size_t>(src);
      std::size_t w = 0;
      for (int jl = 0; jl < cl; ++jl) {
        const int j2 = src * cl + jl;
        for (int k1l = 0; k1l < rl; ++k1l) {
          const std::size_t dst =
              2 * (static_cast<std::size_t>(k1l) * c_dim + j2);
          my_rows.span()[dst] = in[w++];
          my_rows.span()[dst + 1] = in[w++];
        }
      }
    }
  }

  // Step 4: C-point FFT along each of my rows; entry k2 of the row FFT is
  // X[k1 + k2·R].
  for (int k1l = 0; k1l < rl; ++k1l) {
    if (!gm) {
      auto row = my_rows.span().subspan(
          2 * static_cast<std::size_t>(k1l) * c_dim,
          2 * static_cast<std::size_t>(c_dim));
      fft_inplace(row, c_dim);
    }
    comm.compute(fft_flops(c_dim));
  }
}

}  // namespace alge::algs
