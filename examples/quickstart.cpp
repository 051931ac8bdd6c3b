// Quickstart: the three things this library does, in ~60 lines.
//
//  1. Model a machine with the paper's eight parameters (Eq. 1 / Eq. 2).
//  2. Ask analytic questions: time, energy, the perfect-strong-scaling
//     range, the energy-optimal memory.
//  3. Check the model against an actual (simulated) run of the 2.5D
//     algorithm, with real data and verified results.
//
// Build and run:  ./build/examples/quickstart
#include <iostream>

#include "algs/registry.hpp"
#include "core/algmodel.hpp"
#include "core/opt.hpp"
#include "machines/db.hpp"

int main() {
  using namespace alge;

  // 1. A machine: the paper's dual-socket Sandy Bridge case study.
  const core::MachineParams mp = machines::CaseStudyMachine{}.params();
  std::cout << "Machine: " << mp.to_string() << "\n\n";

  // 2. Analytic questions about classical matmul, n = 35000.
  core::ClassicalMatmulModel mm;
  const double n = 35000;
  const double M = mp.mem_words;  // one socket's memory, in words
  std::cout << "Classical matmul, n = " << n << ", M = " << M << ":\n";
  // With a memory of M0 = n²/64 words per processor, the strong-scaling
  // region spans [64, 512]. (The paper's own 2-socket case study sits
  // outside any such region — its M is far beyond the 3D limit — but T
  // still falls with p while E stays flat, as the rows below show.)
  const double M0 = n * n / 64.0;
  std::cout << "  with M = n^2/64, perfect strong scaling holds for p in ["
            << mm.p_min(n, M0) << ", " << mm.p_max(n, M0) << "]\n";
  for (double p : {2.0, 4.0, 8.0}) {
    std::cout << "  p = " << p << ": T = " << mm.time(n, p, M, mp)
              << " s, E = " << mm.energy(n, p, M, mp)
              << " J  (T halves, E stays)\n";
  }

  // The energy-optimal configuration, numerically (Section V questions).
  core::Optimizer solver(mm, n, mp);
  const auto best = solver.minimize_energy();
  std::cout << "  minimum energy: " << best.E << " J at M = " << best.M
            << " words, from p = " << best.p << " processors up\n\n";

  // 3. Execute the actual 2.5D algorithm on the simulator (small instance,
  // unit costs) and verify the product.
  std::cout << "Simulated 2.5D matmul (n=32, q=4, c=2 -> p=32):\n";
  const auto run = algs::run({.alg = "mm25d", .n = 32, .q = 4, .c = 2},
                             core::MachineParams::unit(), /*verify=*/true);
  std::cout << "  simulated time " << run.makespan << " s, energy "
            << run.energy.total() << " J\n";
  std::cout << "  per-rank words " << run.words_per_proc() << ", messages "
            << run.msgs_per_proc() << "\n";
  std::cout << "  max |C - A*B| = " << run.max_abs_error
            << " (verified against a serial product)\n";
  return 0;
}
