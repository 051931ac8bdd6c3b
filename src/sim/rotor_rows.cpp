#include "sim/rotor_rows.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "support/cpu.hpp"

// The kernels must keep every rank's scalar rounding sequence
// (rotor_rows.hpp). None multiplies doubles today; contraction is off in
// the source all the same, so a later multiply-add cannot be fused under
// the AVX-512 target.
#pragma GCC optimize("fp-contract=off")

namespace alge::sim::rotor_rows {
namespace {

// Each variant is the same source (rotor_rows.inc) under its own target
// options, with vectors of that target's native width: a wider GCC vector
// is split into native ones, and its lane shuffles become slow element
// moves. A vector typedef must name its width as a literal.
#if defined(__x86_64__)
#pragma GCC push_options
#pragma GCC target("avx512f")
namespace avx512 {
constexpr int W = 8;
typedef double V __attribute__((vector_size(64)));
typedef std::int64_t M __attribute__((vector_size(64)));
#include "sim/rotor_rows.inc"
}  // namespace avx512
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx2")
namespace avx2 {
constexpr int W = 4;
typedef double V __attribute__((vector_size(32)));
typedef std::int64_t M __attribute__((vector_size(32)));
#include "sim/rotor_rows.inc"
}  // namespace avx2
#pragma GCC pop_options
#endif

namespace baseline {
constexpr int W = 2;
typedef double V __attribute__((vector_size(16)));
typedef std::int64_t M __attribute__((vector_size(16)));
#include "sim/rotor_rows.inc"
}  // namespace baseline

constexpr Isa kIsas[] = {
#if defined(__x86_64__)
    {"avx512", cpu::avx512f, avx512::bcast, avx512::compute, avx512::col_row,
     avx512::send, avx512::recv, avx512::add_scaled, avx512::add},
    {"avx2", cpu::avx2, avx2::bcast, avx2::compute, avx2::col_row, avx2::send,
     avx2::recv, avx2::add_scaled, avx2::add},
#endif
    {"baseline", cpu::baseline, baseline::bcast, baseline::compute,
     baseline::col_row, baseline::send, baseline::recv, baseline::add_scaled,
     baseline::add},
};

}  // namespace

std::span<const Isa> isas() { return kIsas; }

const Isa& active() {
  // Resolved on first use, not by a namespace-scope initializer: the
  // first rotor run pays for the probe, nothing at program start does.
  static const Isa& chosen = *std::find_if(
      std::begin(kIsas), std::end(kIsas),
      [](const Isa& isa) { return isa.supported(); });
  return chosen;
}

}  // namespace alge::sim::rotor_rows
