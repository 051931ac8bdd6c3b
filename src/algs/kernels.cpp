#include "algs/kernels.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <numbers>
#include <utility>
#include <vector>

#include "support/cpu.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

// The kernels must keep the scalar rounding sequence (kernels.hpp). GCC
// contracts a*b + c into one fused multiply-add under its default
// -ffp-contract=fast whenever the target has FMA, which AVX-512F does, so
// contraction is switched off here in the source: a compile flag would have
// to be repeated in every build that compiles src/.
#pragma GCC optimize("fp-contract=off")

namespace alge::algs::kernels {
namespace {

constexpr double kSoftening2 = 1e-4;  // Plummer softening ε²
constexpr double kG = 1.0;            // gravitational constant (model units)

// Matmul register tile: kRows rows × kVecs vectors of C stay in registers
// while l runs over one k-block of kDepth. The block's kDepth × kVecs·W
// slice of B is copied into t_panel first: read in place, its rows sit n
// doubles apart and, for n a multiple of 512, all fall in the same few L1
// sets. The kernels never yield, so one panel per thread serves every fiber
// on it; it is sized for the widest variant (W = 8).
constexpr int kRows = 4;
constexpr int kVecs = 3;
constexpr int kDepth = 128;
alignas(64) thread_local double t_panel[kDepth * kVecs * 8];

// Each variant is the same source (kernels.inc) under its own target
// options. A vector typedef must name its width as a literal: a vector_size
// computed from a template parameter silently declares a plain double.
#if defined(__x86_64__)
#pragma GCC push_options
#pragma GCC target("avx512f")
namespace avx512 {
constexpr int W = 8;
typedef double V __attribute__((vector_size(64)));
typedef long long M __attribute__((vector_size(64)));
// Every lane selected: the unmasked _mm512_sqrt_pd's undefined pass-through
// operand trips GCC 12's -Wmaybe-uninitialized.
inline V vsqrt(V x) { return _mm512_mask_sqrt_pd(x, 0xFF, x); }
#include "algs/kernels.inc"
}  // namespace avx512
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx2")
namespace avx2 {
constexpr int W = 4;
typedef double V __attribute__((vector_size(32)));
typedef long long M __attribute__((vector_size(32)));
inline V vsqrt(V x) { return _mm256_sqrt_pd(x); }
#include "algs/kernels.inc"
}  // namespace avx2
#pragma GCC pop_options
#endif

namespace baseline {
constexpr int W = 2;
typedef double V __attribute__((vector_size(16)));
typedef long long M __attribute__((vector_size(16)));
inline V vsqrt(V x) {
#if defined(__x86_64__)
  return _mm_sqrt_pd(x);
#else
  return V{std::sqrt(x[0]), std::sqrt(x[1])};
#endif
}
#include "algs/kernels.inc"
}  // namespace baseline

constexpr Isa kIsas[] = {
#if defined(__x86_64__)
    {"avx512", cpu::avx512f, avx512::matmul, avx512::forces, avx512::qr,
     avx512::fft},
    {"avx2", cpu::avx2, avx2::matmul, avx2::forces, avx2::qr, avx2::fft},
#endif
    {"baseline", cpu::baseline, baseline::matmul, baseline::forces,
     baseline::qr, baseline::fft},
};

}  // namespace

FftTables::FftTables(int n, bool inverse) : n(n), inverse(inverse) {
  swaps.reserve(static_cast<std::size_t>(n));
  for (int i = 0, rev = 0; i < n; ++i) {
    if (i < rev) {
      swaps.push_back(i);
      swaps.push_back(rev);
    }
    // rev(i + 1): add one to rev counting from the top bit down.
    int bit = n >> 1;
    while (rev & bit) {
      rev ^= bit;
      bit >>= 1;
    }
    rev |= bit;
  }
  // Per stage, w ← w·e^{∓2πi/len} from w = 1 in the scalar expression
  // order: a fixed recurrence, so every block of the stage reads the same
  // rounded values.
  twiddles.resize(4 * static_cast<std::size_t>(n - 1));
  const double sign = inverse ? +1.0 : -1.0;
  for (int len = 2; len <= n; len <<= 1) {
    const double ang = sign * 2.0 * std::numbers::pi / len;
    const double wr = std::cos(ang);
    const double wi = std::sin(ang);
    const int h = len / 2;
    double* const pr = twiddles.data() + 4 * static_cast<std::size_t>(h - 1);
    double* const pi = pr + 2 * h;
    double cr = 1.0;
    double ci = 0.0;
    for (int off = 0; off < h; ++off) {
      pr[2 * off] = cr;
      pr[2 * off + 1] = cr;
      pi[2 * off] = -ci;
      pi[2 * off + 1] = ci;
      const double ncr = cr * wr - ci * wi;
      ci = cr * wi + ci * wr;
      cr = ncr;
    }
  }
}

std::span<const Isa> isas() { return kIsas; }

const Isa& active() {
  // Resolved on first use rather than by a namespace-scope initializer, so a
  // kernel called during another file's static initialization finds it set.
  static const Isa& chosen = *std::find_if(
      std::begin(kIsas), std::end(kIsas),
      [](const Isa& isa) { return isa.supported(); });
  return chosen;
}

}  // namespace alge::algs::kernels
