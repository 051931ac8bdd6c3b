// Figure 3 — limits of communication strong scaling for matrix
// multiplication: (bandwidth cost W per processor) × p against p, for a
// fixed problem size n and fixed per-processor memory M.
//
// Model series (classical and Strassen-like): flat from p_min = n²/M up to
// p_max = n³/M^{3/2} (classical) / n^ω0/M^{ω0/2} (Strassen), then rising as
// p^{1/3} resp. p^{1-2/ω0}.
//
// Simulator series: the executable 2.5D algorithm / CAPS measured at grid
// points with the same per-rank block memory, showing the same flat-then-
// rising shape with real message counting. The simulator points run through
// the experiment engine (--threads, --cache-dir).
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/algmodel.hpp"
#include "core/scaling.hpp"
#include "engine/runner.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace alge;
  CliArgs cli;
  cli.add_flag("n", "65536", "matrix dimension for the model series");
  cli.add_flag("pmin", "64", "p at the left edge (M = n^2/pmin)");
  cli.add_flag("samples", "17", "model sample count");
  bench::add_engine_flags(cli);
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.usage("fig3_strong_scaling_limits");
    return 0;
  }
  const double n = cli.get_double("n");
  const double pmin = cli.get_double("pmin");
  const int samples = static_cast<int>(cli.get_int("samples"));
  const double M = n * n / pmin;

  bench::banner("Figure 3",
                "Limits of communication strong scaling: W x p vs p, fixed "
                "n and per-processor memory M = n^2/pmin.");

  core::MachineParams mp = core::MachineParams::unit();
  core::ClassicalMatmulModel classical;
  core::StrassenModel strassen;
  const auto cl = core::strong_scaling_series(classical, n, M, mp, 8.0,
                                              samples);
  const auto st = core::strong_scaling_series(strassen, n, M, mp, 8.0,
                                              samples);

  std::cout << "Model series (normalized to the flat value):\n";
  Table t({"p/pmin(classical)", "Wxp classical", "in range",
           "p/pmin(strassen)", "Wxp strassen", "in range "});
  const double cl0 = cl.front().W_times_p;
  const double st0 = st.front().W_times_p;
  for (int i = 0; i < samples; ++i) {
    const auto& a = cl[static_cast<std::size_t>(i)];
    const auto& b = st[static_cast<std::size_t>(i)];
    t.row()
        .cell(a.p / pmin, "%.3g")
        .cell(a.W_times_p / cl0, "%.4f")
        .cell(a.in_scaling_range ? "yes" : "no")
        .cell(b.p / pmin, "%.3g")
        .cell(b.W_times_p / st0, "%.4f")
        .cell(b.in_scaling_range ? "yes" : "no");
  }
  t.print(std::cout);
  std::cout << "Classical region ends at p = pmin^1.5 = "
            << classical.p_max(n, M) / pmin
            << "x pmin; Strassen-like ends earlier, at "
            << strassen.p_max(n, M) / pmin << "x pmin.\n\n";

  // Simulator measurements: same per-rank block size (fixed M), p grown by
  // replication up to the 3D limit and beyond it by shrinking blocks. Both
  // series go through the engine as one sweep.
  struct Cfg {
    int q;
    int c;
    const char* label;
  };
  const Cfg cfgs[] = {{2, 1, "2D q=2"},
                      {2, 2, "3D q=c=2 (scaling limit)"},
                      {3, 3, "3D q=c=3 (beyond: less memory usable)"},
                      {4, 4, "3D q=c=4"},
                      {6, 6, "3D q=c=6"}};
  std::vector<engine::ExperimentSpec> specs;
  for (const auto& cfg : cfgs) {
    engine::ExperimentSpec s;
    s.alg = engine::Alg::kMm25d;
    s.params = mp;
    s.n = 48;
    s.q = cfg.q;
    s.c = cfg.c;
    specs.push_back(s);
  }
  for (int k = 0; k <= 2; ++k) {
    engine::ExperimentSpec s;
    s.alg = engine::Alg::kCaps;
    s.params = mp;
    s.n = 28;
    s.k = k;
    specs.push_back(s);
  }
  engine::SweepRunner runner(bench::sweep_options_from_cli(cli));
  const auto results = runner.run(specs);

  std::cout << "Simulator (2.5D matmul, n=48, fixed block memory until the "
               "3D limit):\n";
  Table s({"p", "config", "W/rank", "W x p", "normalized"});
  double norm = -1.0;
  for (std::size_t i = 0; i < std::size(cfgs); ++i) {
    const auto& r = results[i];
    const double wxp = r.words_per_proc() * r.p;
    if (norm < 0.0) norm = wxp;
    s.row()
        .cell(r.p)
        .cell(cfgs[i].label)
        .cell(r.words_per_proc(), "%.0f")
        .cell(wxp, "%.0f")
        .cell(wxp / norm, "%.3f");
  }
  s.print(std::cout);

  std::cout << "\nSimulator (CAPS Strassen, n=28, p = 7^k):\n";
  Table cs({"p", "k", "W/rank", "W x p", "normalized"});
  double cnorm = -1.0;
  for (int k = 0; k <= 2; ++k) {
    const auto& r = results[std::size(cfgs) + static_cast<std::size_t>(k)];
    const double wxp = r.words_per_proc() * r.p;
    if (k == 1) cnorm = wxp;  // k=0 has no communication
    cs.row()
        .cell(r.p)
        .cell(k)
        .cell(r.words_per_proc(), "%.0f")
        .cell(wxp, "%.0f")
        .cell(cnorm > 0.0 ? wxp / cnorm : 0.0, "%.3f");
  }
  cs.print(std::cout);
  bench::write_engine_record("fig3_strong_scaling_limits", runner,
                              cli.get("bench-json"));
  return 0;
}
