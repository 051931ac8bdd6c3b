// navigator: map the energy/time Pareto frontier of a workload, re-score
// it under fault plans, and self-validate against the Section-III bounds
// and the Section-V optimizer answers.
//
//   navigator --model=nbody --n=1e7 --machine=case-study
//             [--simulate=true --plans=drop1,delay1,reorder1] [--out=x.json]
//
// Prints the analytic frontier, the §V optima it must reproduce
// bit-exactly, and (with --simulate) the engine-measured frontier with its
// robustness verdicts. With --validate=true (the default) every report is
// re-checked: frontier points must be undominated, must not beat the
// core/bounds communication lower bound, the perfect-strong-scaling region
// edges must equal the closed forms bit-exactly, and the frontier must
// contain the optimizer's min-energy / min-time answers verbatim.
//
// Exit codes: 0 report valid, 1 validation failure, 2 usage error.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "machines/db.hpp"
#include "navigator/navigator.hpp"
#include "support/cli.hpp"
#include "support/common.hpp"
#include "support/table.hpp"

namespace {

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > start) out.push_back(s.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace alge;
  CliArgs cli;
  std::string models;
  for (const std::string& name : core::model_names()) {
    models += (models.empty() ? "" : ", ") + name;
  }
  cli.add_flag("model", "nbody", "workload: " + models);
  cli.add_flag("n", "1e7", "analytic problem size");
  cli.add_flag("f", "1", "nbody flops per interaction");
  cli.add_flag("omega0", "2.8073549220576042", "Strassen exponent");
  cli.add_flag("machine", "case-study", "machine family: case-study or unit");
  cli.add_flag("p-available", "1e15", "largest machine we may use");
  cli.add_flag("M-cap", "1e18", "memory per processor cap (words)");
  cli.add_flag("t-max", "0", "time budget (seconds; 0 = none)");
  cli.add_flag("e-max", "0", "energy budget (joules; 0 = none)");
  cli.add_flag("power-max", "0", "total power budget (watts; 0 = none)");
  cli.add_flag("proc-power-max", "0",
               "per-processor power budget (watts; 0 = none)");
  cli.add_flag("p-samples", "48", "log-grid samples in p");
  cli.add_flag("m-samples", "24", "log-grid samples in M per p");
  cli.add_flag("msg-caps", "",
               "extra message-size caps to sweep (comma list, words)");
  cli.add_flag("simulate", "false",
               "score executable survivors with the ghost/folded engine "
               "and re-score the frontier under fault plans");
  cli.add_flag("sim-n", "0", "executable problem size (0 = per-model)");
  cli.add_flag("sim-points", "8", "engine runs after closed-form pruning");
  cli.add_flag("plans", "drop1,delay1,reorder1",
               "bundled fault plans for the robustness re-score");
  cli.add_flag("chaos-seed", "1", "fault/schedule seed for re-scoring");
  cli.add_flag("threads", "1", "engine worker threads");
  cli.add_flag("cache-dir", "", "shared engine result cache directory");
  cli.add_flag("target", "75",
               "crossover efficiency target (GFLOPS/W, Figs. 6/7)");
  cli.add_flag("validate", "true",
               "re-check bounds/endpoint/Pareto invariants; nonzero exit "
               "on failure");
  cli.add_flag("out", "", "write the full report JSON to this path");
  try {
    cli.parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "navigator: %s\n%s", e.what(),
                 cli.usage("navigator").c_str());
    return 2;
  }
  if (cli.help_requested()) {
    std::cout << cli.usage("navigator");
    return 0;
  }

  try {
    navigator::NavRequest req;
    req.model = cli.get("model");
    req.n = cli.get_double("n");
    req.f = cli.get_double("f");
    req.omega0 = cli.get_double("omega0");
    const std::string machine = cli.get("machine");
    if (machine == "case-study") {
      req.params = machines::CaseStudyMachine{}.params();
      // The optimizer chooses M; limits.M_cap bounds it (the
      // bench/sec5_optimizer convention, which the §V cross-checks use).
      req.params.mem_words = 0.0;
    } else if (machine == "unit") {
      req.params = core::MachineParams::unit();
    } else {
      throw invalid_argument_error(
          strfmt("unknown machine \"%s\" (use case-study or unit)",
                 machine.c_str()));
    }
    req.limits.p_available = cli.get_double("p-available");
    req.limits.M_cap = cli.get_double("M-cap");
    if (const double v = cli.get_double("t-max"); v > 0) req.budgets.t_max = v;
    if (const double v = cli.get_double("e-max"); v > 0) req.budgets.e_max = v;
    if (const double v = cli.get_double("power-max"); v > 0) {
      req.budgets.total_power_max = v;
    }
    if (const double v = cli.get_double("proc-power-max"); v > 0) {
      req.budgets.proc_power_max = v;
    }
    req.p_samples = static_cast<int>(cli.get_int("p-samples"));
    req.m_samples = static_cast<int>(cli.get_int("m-samples"));
    for (const std::string& cap : split_csv(cli.get("msg-caps"))) {
      req.msg_caps.push_back(std::stod(cap));
    }
    req.simulate = cli.get_bool("simulate");
    req.sim_n = static_cast<int>(cli.get_int("sim-n"));
    req.sim_points = static_cast<int>(cli.get_int("sim-points"));
    req.fault_plans = split_csv(cli.get("plans"));
    req.chaos_seed = static_cast<std::uint64_t>(cli.get_int("chaos-seed"));
    req.threads = static_cast<int>(cli.get_int("threads"));
    req.cache_dir = cli.get("cache-dir");
    req.crossover_target_gflops_per_watt = cli.get_double("target");

    const navigator::NavReport rep = navigator::navigate(req);

    std::cout << "Pareto navigator: model=" << rep.model << " n=" << rep.n
              << " machine=" << machine << "\n\n";
    Table mt({"p", "M (words)", "msg cap", "T (s)", "E (J)", "W/proc",
              "W bound", "source"});
    for (const navigator::ModelPoint& pt : rep.model_frontier) {
      mt.row()
          .cell(pt.p, "%.6g")
          .cell(pt.M, "%.6g")
          .cell(pt.m, "%.3g")
          .cell(pt.T, "%.6g")
          .cell(pt.E, "%.6g")
          .cell(pt.words, "%.4g")
          .cell(pt.words_bound, "%.4g")
          .cell(pt.source);
    }
    mt.print(std::cout);
    std::cout << "\nSection-V optima (frontier endpoints, bit-exact):\n"
              << strfmt("  min energy: p=%.17g M=%.17g T=%.17g E=%.17g\n",
                        rep.min_energy.p, rep.min_energy.M, rep.min_energy.T,
                        rep.min_energy.E)
              << strfmt("  min time:   p=%.17g M=%.17g T=%.17g E=%.17g\n",
                        rep.min_time.p, rep.min_time.M, rep.min_time.T,
                        rep.min_time.E)
              << strfmt("  perfect strong scaling at M=%.6g: p in [%.6g, "
                        "%.6g]\n",
                        rep.scaling_M, rep.scaling_p_min, rep.scaling_p_max)
              << strfmt("  efficiency at the optimum: %.3f GFLOPS/W "
                        "(crossover to %.0f in %d generations",
                        rep.gflops_per_watt_at_opt, rep.crossover_target,
                        rep.crossover_generations);
    if (req.simulate) {
      std::cout << strfmt(", %d under faults",
                          rep.crossover_generations_faulted);
    }
    std::cout << ")\n";

    if (req.simulate) {
      std::cout << "\nMeasured frontier (ghost/folded engine, "
                << rep.simulated << " runs + " << rep.rescore_runs
                << " fault re-scores, " << rep.cache_hits
                << " cache hits):\n";
      Table st({"config", "topology", "impl", "p", "makespan", "energy",
                "W/rank", "W bound", "robust"});
      for (const navigator::SimPoint& sp : rep.measured_frontier) {
        st.row()
            .cell(sp.label)
            .cell(sp.topology)
            .cell(sp.impl)
            .cell(sp.p)
            .cell(sp.makespan, "%.6g")
            .cell(sp.energy, "%.6g")
            .cell(sp.words_per_rank, "%.4g")
            .cell(sp.words_bound, "%.4g")
            .cell(sp.robust ? "yes" : "no");
      }
      st.print(std::cout);
      std::cout << strfmt(
          "\n  robust: %d/%zu points stay Pareto-optimal under every plan; "
          "worst energy inflation at the min-energy point: %.4fx\n",
          rep.robust_points, rep.measured_frontier.size(),
          rep.fault_energy_inflation);
    }

    if (const std::string out = cli.get("out"); !out.empty()) {
      std::ofstream f(out, std::ios::binary | std::ios::trunc);
      ALGE_REQUIRE(f.good(), "cannot open --out=%s", out.c_str());
      f << rep.to_json().dump() << "\n";
      std::cout << "\nreport written to " << out << "\n";
    }

    if (cli.get_bool("validate")) {
      const navigator::ValidationResult vr = navigator::validate(rep, req);
      if (!vr.ok) {
        for (const std::string& msg : vr.failures) {
          std::fprintf(stderr, "navigator: VALIDATION FAILED: %s\n",
                       msg.c_str());
        }
        return 1;
      }
      std::cout << "\nvalidation: all bounds/endpoint/Pareto invariants "
                   "hold\n";
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "navigator: %s\n", e.what());
    return 2;
  }
  return 0;
}
