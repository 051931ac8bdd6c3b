// Scenario: a cost dashboard for a simulated cluster — run all five of the
// paper's algorithm families on the same abstract machine and compare
// measured per-rank communication, simulated time, and Eq. (2) energy.
// Every run moves real data and is verified against a sequential
// reference.
//
//   ./build/examples/simulate_cluster
#include <iostream>
#include <utility>

#include "algs/registry.hpp"
#include "support/table.hpp"

int main() {
  using namespace alge;
  core::MachineParams mp;
  mp.gamma_t = 1.0;
  mp.beta_t = 2.0;
  mp.alpha_t = 10.0;
  mp.gamma_e = 1.0;
  mp.beta_e = 4.0;
  mp.alpha_e = 20.0;
  mp.delta_e = 1e-4;
  mp.eps_e = 1e-2;
  mp.max_msg_words = 64;

  std::cout << "Simulated cluster dashboard — " << mp.to_string() << "\n\n";

  Table t({"experiment", "p", "T (sim)", "E (sim)", "avg power", "W/rank",
           "S/rank", "verified max |err|"});
  const std::pair<const char*, algs::Problem> runs[] = {
      {"matmul 2D (Cannon, q=4)", {.alg = "mm25d", .n = 32, .q = 4, .c = 1}},
      {"matmul 2.5D (q=4, c=2)", {.alg = "mm25d", .n = 32, .q = 4, .c = 2}},
      {"matmul 3D (q=c=4)", {.alg = "mm25d", .n = 32, .q = 4, .c = 4}},
      {"matmul SUMMA (q=4)", {.alg = "summa", .n = 32, .q = 4}},
      {"Strassen CAPS (k=1, p=7)", {.alg = "caps", .n = 28, .k = 1}},
      {"Strassen CAPS (k=2, p=49)", {.alg = "caps", .n = 28, .k = 2}},
      {"n-body ring (c=1)", {.alg = "nbody", .n = 128, .c = 1, .p = 8}},
      {"n-body replicated (c=2)", {.alg = "nbody", .n = 128, .c = 2, .p = 16}},
      {"LU 2D (q=2)", {.alg = "lu", .n = 32, .q = 2, .c = 1, .nb = 4}},
      {"LU 2.5D (q=2, c=2)", {.alg = "lu", .n = 32, .q = 2, .c = 2, .nb = 4}},
      {"FFT naive a2a (p=8)",
       {.alg = "fft", .p = 8, .r_dim = 32, .c_dim = 32}},
      {"FFT Bruck a2a (p=8)",
       {.alg = "fft", .p = 8, .r_dim = 32, .c_dim = 32, .fft_bruck = true}},
  };
  for (const auto& [name, pb] : runs) {
    const algs::RunResult r = algs::run(pb, mp, /*verify=*/true);
    t.row()
        .cell(name)
        .cell(r.p)
        .cell(r.makespan, "%.0f")
        .cell(r.energy.total(), "%.4g")
        .cell(r.energy.power(), "%.2f")
        .cell(r.words_per_proc(), "%.0f")
        .cell(r.msgs_per_proc(), "%.0f")
        .cell(r.max_abs_error, "%.2g");
  }
  t.print(std::cout);

  std::cout << "\nReading the table: replication (2.5D/3D, CAPS levels, "
               "n-body c>1) cuts W/rank; LU's S does not fall with "
               "replication; the FFT variants trade W for S.\n";
  return 0;
}
