// The algorithm table (algs/registry.hpp) under the names the transport
// tools, tests and benchmark use. Every entry's program regenerates its
// inputs from Rng(seed) in whichever process runs it, so the identical
// closure runs under the simulator, in a forked shm child, or in a rank's
// own shell over TCP; the conformance suite compares the per-rank outputs
// bitwise across backends.
#pragma once

#include <string>
#include <vector>

#include "algs/registry.hpp"
#include "transport/run.hpp"

namespace alge::transport {

using ProgramSpec = algs::Problem;
using AlgProgram = algs::Instance;

/// Build the rank program for `spec.alg`; throws invalid_argument_error on
/// an unknown name or invalid dimensions.
inline AlgProgram make_program(const ProgramSpec& spec) {
  return algs::find(spec.alg).make(spec);
}

/// The table's algorithm names, in table order.
inline const std::vector<std::string>& program_names() {
  return algs::names();
}

/// A small, fast parameterization of `alg` for the cross-backend
/// conformance matrix (p ≤ 8 everywhere). Problem's defaults are the
/// conformance sizes (n = 8 on a 2×2 grid, 4×4 FFT, p = 4); c = 2 adds
/// mm25d's cross-layer traffic (p = 8) and n-body's teams, n = 14 is CAPS's
/// smallest share-aligned size (p = 7), and TSQR takes 4 rows × 2 columns
/// per rank.
inline ProgramSpec conformance_spec(const std::string& alg) {
  ProgramSpec spec;
  spec.alg = std::string(algs::find(alg).name);
  if (alg == "mm25d" || alg == "nbody") spec.c = 2;
  if (alg == "caps") spec.n = 14;
  if (alg == "tsqr") spec.n = 4;
  return spec;
}

}  // namespace alge::transport
