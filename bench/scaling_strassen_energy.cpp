// Perfect strong scaling check for CAPS Strassen (Eqs. 13–14): p grows by
// 7 per BFS level with the matrix fixed; runtime should fall ~7x per level
// while the Eq. (2) energy stays within a small band (the paper's FLM
// regime claim with ω0 = log2 7).
#include <iostream>

#include "algs/registry.hpp"
#include "bench_common.hpp"
#include "core/algmodel.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace alge;
  CliArgs cli;
  cli.add_flag("n", "28", "matrix dimension (28 or 56 keep layouts aligned)");
  cli.add_flag("kmax", "2", "largest BFS level count (p = 7^k)");
  cli.add_flag("verify", "true", "check against a serial product");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.usage("scaling_strassen_energy");
    return 0;
  }
  const int n = static_cast<int>(cli.get_int("n"));
  const int kmax = static_cast<int>(cli.get_int("kmax"));
  const bool verify = cli.get_bool("verify");

  bench::banner("Strong scaling: CAPS Strassen (Eqs. 13-14)",
                "p = 7^k, fixed n; expect T x p ~ constant (modulo the "
                "local Strassen speedup) and E within a small band.");

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

  Table t({"k", "p", "T (sim)", "T x p / (T x p)_0", "E (sim)", "E/E_0",
           "W/rank", "S/rank", "max |err|"});
  double t0p = -1.0;
  double e0 = -1.0;
  for (int k = 0; k <= kmax; ++k) {
    const auto r = algs::run(
        {.alg = "caps", .n = n, .k = k, .caps_cutoff = 4}, mp, verify);
    const double txp = r.makespan * r.p;
    const double e = r.energy.total();
    if (t0p < 0.0) {
      t0p = txp;
      e0 = e;
    }
    t.row()
        .cell(k)
        .cell(r.p)
        .cell(r.makespan, "%.0f")
        .cell(txp / t0p, "%.3f")
        .cell(e, "%.4g")
        .cell(e / e0, "%.3f")
        .cell(r.words_per_proc(), "%.0f")
        .cell(r.msgs_per_proc(), "%.0f")
        .cell(r.max_abs_error, "%.2g");
  }
  t.print(std::cout);
  std::cout << "\n(The T x p column rises mildly with k because the "
               "distributed levels replace local Strassen levels with the "
               "classical-count additions plus communication; the energy "
               "band is the paper's claim.)\n";
  return 0;
}
