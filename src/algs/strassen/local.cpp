#include "algs/strassen/local.hpp"

#include <vector>

#include "algs/matmul/local.hpp"
#include "support/common.hpp"

namespace alge::algs {

namespace {

void add(const double* x, const double* y, double* out, int len) {
  for (int i = 0; i < len; ++i) out[i] = x[i] + y[i];
}

void sub(const double* x, const double* y, double* out, int len) {
  for (int i = 0; i < len; ++i) out[i] = x[i] - y[i];
}

/// Copy quadrant (qi, qj) of the n×n matrix m into the dense h×h buffer.
void get_quadrant(const double* m, int n, int qi, int qj, double* out) {
  const int h = n / 2;
  for (int r = 0; r < h; ++r) {
    const double* src = m + static_cast<std::size_t>(qi * h + r) * n + qj * h;
    std::copy(src, src + h, out + static_cast<std::size_t>(r) * h);
  }
}

void set_quadrant(double* m, int n, int qi, int qj, const double* in) {
  const int h = n / 2;
  for (int r = 0; r < h; ++r) {
    double* dst = m + static_cast<std::size_t>(qi * h + r) * n + qj * h;
    std::copy(in + static_cast<std::size_t>(r) * h,
              in + static_cast<std::size_t>(r + 1) * h, dst);
  }
}

void strassen_rec(const double* a, const double* b, double* c, int n,
                  int cutoff) {
  if (n <= cutoff || n % 2 != 0) {
    // Base case: at or below the cutoff, or an odd size (recursion stops
    // rather than padding).
    std::fill(c, c + static_cast<std::size_t>(n) * n, 0.0);
    matmul_add(a, b, c, n, n, n);
    return;
  }
  const int h = n / 2;
  const std::size_t h2 = static_cast<std::size_t>(h) * h;
  const int len = static_cast<int>(h2);
  // 4 quadrants each of A and B, 7 products, 2 scratch operands.
  std::vector<double> store(h2 * 17);
  double* a11 = store.data();
  double* a12 = a11 + h2;
  double* a21 = a12 + h2;
  double* a22 = a21 + h2;
  double* b11 = a22 + h2;
  double* b12 = b11 + h2;
  double* b21 = b12 + h2;
  double* b22 = b21 + h2;
  double* m1 = b22 + h2;
  double* m2 = m1 + h2;
  double* m3 = m2 + h2;
  double* m4 = m3 + h2;
  double* m5 = m4 + h2;
  double* m6 = m5 + h2;
  double* m7 = m6 + h2;
  double* s = m7 + h2;
  double* t = s + h2;
  get_quadrant(a, n, 0, 0, a11);
  get_quadrant(a, n, 0, 1, a12);
  get_quadrant(a, n, 1, 0, a21);
  get_quadrant(a, n, 1, 1, a22);
  get_quadrant(b, n, 0, 0, b11);
  get_quadrant(b, n, 0, 1, b12);
  get_quadrant(b, n, 1, 0, b21);
  get_quadrant(b, n, 1, 1, b22);

  add(a11, a22, s, len);
  add(b11, b22, t, len);
  strassen_rec(s, t, m1, h, cutoff);  // M1 = (A11+A22)(B11+B22)
  add(a21, a22, s, len);
  strassen_rec(s, b11, m2, h, cutoff);  // M2 = (A21+A22)B11
  sub(b12, b22, t, len);
  strassen_rec(a11, t, m3, h, cutoff);  // M3 = A11(B12-B22)
  sub(b21, b11, t, len);
  strassen_rec(a22, t, m4, h, cutoff);  // M4 = A22(B21-B11)
  add(a11, a12, s, len);
  strassen_rec(s, b22, m5, h, cutoff);  // M5 = (A11+A12)B22
  sub(a21, a11, s, len);
  add(b11, b12, t, len);
  strassen_rec(s, t, m6, h, cutoff);  // M6 = (A21-A11)(B11+B12)
  sub(a12, a22, s, len);
  add(b21, b22, t, len);
  strassen_rec(s, t, m7, h, cutoff);  // M7 = (A12-A22)(B21+B22)

  // C11 = M1+M4-M5+M7, C12 = M3+M5, C21 = M2+M4, C22 = M1-M2+M3+M6.
  add(m1, m4, s, len);
  sub(s, m5, s, len);
  add(s, m7, s, len);
  set_quadrant(c, n, 0, 0, s);
  add(m3, m5, s, len);
  set_quadrant(c, n, 0, 1, s);
  add(m2, m4, s, len);
  set_quadrant(c, n, 1, 0, s);
  sub(m1, m2, s, len);
  add(s, m3, s, len);
  add(s, m6, s, len);
  set_quadrant(c, n, 1, 1, s);
}

}  // namespace

void strassen_multiply(std::span<const double> a, std::span<const double> b,
                       std::span<double> c, int n, int cutoff) {
  ALGE_REQUIRE(n >= 1, "matrix size must be positive");
  ALGE_REQUIRE(cutoff >= 1, "cutoff must be positive");
  const std::size_t n2 = static_cast<std::size_t>(n) * n;
  ALGE_REQUIRE(a.size() == n2 && b.size() == n2 && c.size() == n2,
               "buffers must be n² = %zu words", n2);
  strassen_rec(a.data(), b.data(), c.data(), n, cutoff);
}

double strassen_flops(int n, int cutoff) {
  if (n <= cutoff || n % 2 != 0) {
    return 2.0 * static_cast<double>(n) * n * n;
  }
  const double h2 = static_cast<double>(n / 2) * (n / 2);
  return 7.0 * strassen_flops(n / 2, cutoff) + 18.0 * h2;
}

int strassen_levels(int n, int cutoff) {
  int levels = 0;
  while (n > cutoff && n % 2 == 0) {
    n /= 2;
    ++levels;
  }
  return levels;
}

}  // namespace alge::algs
