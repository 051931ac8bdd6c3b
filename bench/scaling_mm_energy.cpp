// Perfect strong scaling check for classical matmul (Eqs. 9–10): fixed n
// and fixed per-rank memory, grow p by the replication factor c; the
// simulator-measured runtime must fall ~c-fold while Eq. (2) energy stays
// ~constant. Uses case-study-like parameters so every energy term is live.
//
// Both sweeps (tree and ring replication) run as one batch through the
// experiment engine: --threads N runs the (c, variant) points concurrently,
// --cache-dir PATH reuses results across invocations. The counters and
// energies are data-independent, so the tables are identical regardless.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/algmodel.hpp"
#include "engine/runner.hpp"
#include "machines/db.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace alge;
  CliArgs cli;
  cli.add_flag("n", "48", "matrix dimension (simulated)");
  cli.add_flag("q", "8", "grid edge (p = q^2 c)");
  cli.add_flag("verify", "true", "check results against a serial product");
  bench::add_engine_flags(cli);
  bench::add_trace_flags(cli);
  bench::add_chaos_flags(cli);
  bench::add_data_mode_flag(cli);
  bench::add_exec_mode_flag(cli);
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.usage("scaling_mm_energy");
    return 0;
  }
  const int n = static_cast<int>(cli.get_int("n"));
  const int q = static_cast<int>(cli.get_int("q"));
  const bool verify = cli.get_bool("verify");

  bench::banner("Strong scaling: classical matmul (Eqs. 9-10)",
                "Fixed n and per-rank block memory; p grows by c. Expect "
                "T x p ~ constant and E ~ constant (perfect strong "
                "scaling in time AND energy).");

  // Parameters tuned so compute, bandwidth, latency, memory and leakage all
  // contribute at the simulated scale.
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

  std::vector<int> cs;
  for (int c = 1; c <= q; c *= 2) {
    if (q % c != 0) continue;
    cs.push_back(c);
  }
  std::vector<engine::ExperimentSpec> specs;
  for (const int c : cs) {  // tree replication, verified
    engine::ExperimentSpec s;
    s.alg = engine::Alg::kMm25d;
    s.params = mp;
    s.n = n;
    s.q = q;
    s.c = c;
    s.verify = verify;
    specs.push_back(s);
  }
  for (const int c : cs) {  // ring (pipelined) replication
    engine::ExperimentSpec s;
    s.alg = engine::Alg::kMm25d;
    s.params = mp;
    s.n = n;
    s.q = q;
    s.c = c;
    s.ring_replication = true;
    specs.push_back(s);
  }
  bench::apply_chaos_flags(cli, specs);
  bench::apply_data_mode_flag(cli, specs);
  bench::apply_exec_mode_flag(cli, specs);
  engine::SweepRunner runner(bench::sweep_options_from_cli(cli));
  const auto results = runner.run(specs);

  Table t({"c", "p", "T (sim)", "T x p / (T x p)_2D", "E (sim)", "E/E_2D",
           "W/rank", "S/rank", "max |err|"});
  double t0p = -1.0;
  double e0 = -1.0;
  for (std::size_t i = 0; i < cs.size(); ++i) {
    const auto& r = results[i];
    const double txp = r.makespan * r.p;
    const double e = r.energy_total();
    if (t0p < 0.0) {
      t0p = txp;
      e0 = e;
    }
    t.row()
        .cell(cs[i])
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

  std::cout << "\nSame sweep with ring (pipelined) depth replication — the\n"
               "per-rank critical-path words drop toward the asymptotic\n"
               "2(q/c)nb^2 (the energy trades a few alpha_e messages for\n"
               "the removed beta_e copies):\n";
  Table t2({"c", "p", "T (sim)", "E (sim)", "E/E_2D", "W/rank"});
  double e0r = -1.0;
  for (std::size_t i = 0; i < cs.size(); ++i) {
    const auto& r = results[cs.size() + i];
    const double e = r.energy_total();
    if (e0r < 0.0) e0r = e;
    t2.row()
        .cell(cs[i])
        .cell(r.p)
        .cell(r.makespan, "%.0f")
        .cell(e, "%.4g")
        .cell(e / e0r, "%.3f")
        .cell(r.words_per_proc(), "%.0f");
  }
  t2.print(std::cout);
  std::cout << "\n(The paper's claim is perfect strong scaling *modulo "
               "log p factors*: the residual rise in T x p and E comes from "
               "the log c replication broadcast/reduction, which the model "
               "below omits.)\n";

  std::cout << "\nModel prediction (same machine parameters, Eqs. 9-10): "
               "energy independent of p for n^2/p <= M <= n^2/p^(2/3).\n";
  core::ClassicalMatmulModel model;
  Table mt({"c", "p", "T model", "E model", "E/E_2D"});
  const double nn = n;
  double em0 = -1.0;
  for (const int c : cs) {
    const double p = static_cast<double>(q) * q * c;
    const double M = nn * nn * c / p;  // fixed per-rank block memory
    const double tm = model.time(nn, p, M, mp);
    const double em = model.energy(nn, p, M, mp);
    if (em0 < 0.0) em0 = em;
    mt.row().cell(c).cell(p, "%.0f").cell(tm, "%.0f").cell(em, "%.4g").cell(
        em / em0, "%.3f");
  }
  mt.print(std::cout);
  bench::write_engine_record("scaling_mm_energy", runner,
                              cli.get("bench-json"));
  // --trace-out: export the largest replicated point's timeline.
  bench::maybe_write_trace(cli, specs[cs.size() - 1]);
  return 0;
}
