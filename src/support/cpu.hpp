// What vector instructions this CPU runs: the one probe behind every
// ISA-dispatched kernel table (algs/kernels.hpp, sim/rotor_rows.hpp), so
// all of them pick their variant by the same answer.
#pragma once

namespace alge::cpu {

/// AVX-512 Foundation (false on other architectures).
bool avx512f();
/// AVX2 (false on other architectures).
bool avx2();
/// The build's baseline target, which every CPU that runs the program has.
bool baseline();

}  // namespace alge::cpu
