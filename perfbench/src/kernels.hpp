// Local-kernel replay for algs.kernel_s: the kernels a full-data run calls,
// on the same block shapes and call counts, timed without any simulation
// or transport around them.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

/// One run's dimensions, with the field meanings of engine::ExperimentSpec
/// and transport::ProgramSpec (alg is their shared algorithm name).
struct KernelShape {
  std::string alg;
  int n = 0, q = 0, c = 0, p = 0, nb = 0, r_dim = 0, c_dim = 0;
};

/// Seconds to run the dominant local kernels of every shape: block
/// multiplies for mm25d/summa, force blocks for nbody, row and column FFTs,
/// and TSQR's leaf and tree QRs. CAPS and LU are not replayed (their leaf
/// shapes vary by level and panel).
double replay_kernels(const std::vector<KernelShape>& shapes);

}  // namespace perfbench
