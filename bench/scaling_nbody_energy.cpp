// Perfect strong scaling check for the replicating n-body algorithm
// (Eqs. 15–16): fixed n and fixed per-rank memory (block size constant as
// p and c grow together); expect T·p ~ constant and E ~ constant inside
// n/p <= M <= n/sqrt(p).
#include <iostream>

#include "algs/registry.hpp"
#include "bench_common.hpp"
#include "core/algmodel.hpp"
#include "algs/nbody/nbody.hpp"
#include "core/closed_forms.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace alge;
  CliArgs cli;
  cli.add_flag("n", "256", "particles");
  cli.add_flag("blocks", "4", "particle blocks P = p/c (fixed across rows)");
  cli.add_flag("cmax", "8", "largest replication factor");
  cli.add_flag("verify", "true", "check against serial direct forces");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.usage("scaling_nbody_energy");
    return 0;
  }
  const int n = static_cast<int>(cli.get_int("n"));
  const int blocks = static_cast<int>(cli.get_int("blocks"));
  const int cmax = static_cast<int>(cli.get_int("cmax"));
  const bool verify = cli.get_bool("verify");

  bench::banner("Strong scaling: replicating n-body (Eqs. 15-16)",
                "Fixed n and fixed block size (P = p/c constant); p = P*c "
                "grows with c. Expect T x p ~ constant, E ~ constant.");

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

  Table t({"c", "p", "in range", "T (sim)", "T x p / (T x p)_1", "E (sim)",
           "E/E_1", "W/rank", "S/rank", "max |err|"});
  double t0p = -1.0;
  double e0 = -1.0;
  for (int c = 1; c <= cmax; c *= 2) {
    const int p = blocks * c;
    // Perfect scaling holds for M <= n/sqrt(p), i.e. c <= sqrt(p): past
    // that, replication cannot reduce communication further and the extra
    // team members only add broadcast/reduce traffic.
    const bool in_range = c * c <= p;
    const auto r =
        algs::run({.alg = "nbody", .n = n, .c = c, .p = p}, mp, verify);
    const double txp = r.makespan * r.p;
    const double e = r.energy.total();
    if (t0p < 0.0) {
      t0p = txp;
      e0 = e;
    }
    t.row()
        .cell(c)
        .cell(p)
        .cell(in_range ? "yes" : "no")
        .cell(r.makespan, "%.0f")
        .cell(txp / t0p, "%.3f")
        .cell(e, "%.4g")
        .cell(e / e0, "%.3f")
        .cell(r.words_per_proc(), "%.0f")
        .cell(r.msgs_per_proc(), "%.0f")
        .cell(r.max_abs_error, "%.2g");
  }
  t.print(std::cout);

  std::cout << "\nModel prediction (Eq. 16: E depends on M only):\n";
  core::NBodyModel model(algs::kInteractionFlops);
  Table mt({"c", "p", "T model", "E model", "E/E_1"});
  double em0 = -1.0;
  for (int c = 1; c <= cmax; c *= 2) {
    const double p = static_cast<double>(blocks) * c;
    const double M = static_cast<double>(n) * c / p;
    const double tm = model.time(n, p, M, mp);
    const double em = model.energy(n, p, M, mp);
    if (em0 < 0.0) em0 = em;
    mt.row().cell(c).cell(p, "%.0f").cell(tm, "%.0f").cell(em, "%.4g").cell(
        em / em0, "%.3f");
  }
  mt.print(std::cout);
  return 0;
}
