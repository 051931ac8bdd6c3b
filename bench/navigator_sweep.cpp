// navigator_sweep: track the Pareto navigator's headline metrics across
// machine generations (the Figs. 6/7 energy-parameter halvings applied to
// the Section-VI case-study machine) and, at generation 0, across the
// ghost/folded engine's measured frontier with its chaos re-score.
//
//   navigator_sweep [--generations=0,2,4] [--simulate=true] [--bench-json=PATH]
//
// Every metric except navigate_seconds is deterministic (the navigator has
// no wall clocks or RNG beyond the chaos seed), so BENCH_navigator.json
// diffs flag real frontier shifts: a larger frontier_area means the
// frontier pulled away from the ideal corner, a larger
// fault_energy_inflation means faults cost more energy at the optimum, and
// crossover_generations moving means the 75 GFLOPS/W machine-generation
// crossover (Figs. 6/7) shifted. CI re-runs this and diffs against the
// committed BENCH_navigator.json, every deterministic metric an exact
// gate. A crossover the sweep never reaches (-1) is left out of the file
// rather than recorded as a small count.
#include <chrono>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/codesign.hpp"
#include "machines/db.hpp"
#include "navigator/navigator.hpp"
#include "support/cli.hpp"
#include "support/common.hpp"
#include "support/table.hpp"

namespace {

using namespace alge;

double elapsed(const std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace alge;
  CliArgs cli;
  cli.add_flag("generations", "0,2,4",
               "energy-parameter halvings of the case-study machine to "
               "sweep (comma list; Figs. 6/7 scaling)");
  cli.add_flag("simulate", "true",
               "add the generation-0 measured-frontier rows (ghost/folded "
               "engine runs + chaos re-score)");
  cli.add_flag("threads", "2", "engine worker threads for the sim rows");
  bench::add_bench_json_flag(cli);
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.usage("navigator_sweep");
    return 0;
  }

  bench::banner(
      "Navigator sweep: frontier metrics across machine generations",
      "navigate() on the case-study machine after g halvings of every "
      "energy parameter (Figs. 6/7). frontier_area is the normalized "
      "staircase area between the frontier and its ideal corner; "
      "crossover_gen counts further halvings to 75 GFLOPS/W. The sim rows "
      "re-score the measured frontier under 1% drop/delay/reorder plans.");

  std::vector<int> generations;
  for (const long long g : cli.get_int_list("generations")) {
    generations.push_back(static_cast<int>(g));
  }
  ALGE_REQUIRE(!generations.empty(), "--generations must be non-empty");
  const bool simulate = cli.get_bool("simulate");
  const int threads = static_cast<int>(cli.get_int("threads"));

  const core::MachineParams base = [] {
    core::MachineParams mp = machines::CaseStudyMachine{}.params();
    mp.mem_words = 0.0;  // the optimizer chooses M (sec5 convention)
    return mp;
  }();

  bench::BenchJson records("navigator");
  Table t({"model", "gen", "pts", "area", "E_opt (J)", "GF/W", "xover",
           "robust", "inflate", "seconds"});

  struct SweepCase {
    const char* model;
    double n;
    // Sim-stage grid caps (keep the CI run in seconds).
    double sim_p_available;
  };
  const std::vector<SweepCase> cases = {
      {"nbody", 1e7, 256.0},
      {"classical-mm", 1e5, 1024.0},
      {"strassen", 1e5, 512.0},
  };

  for (const SweepCase& sc : cases) {
    for (const int gen : generations) {
      navigator::NavRequest req;
      req.model = sc.model;
      req.n = sc.n;
      req.params = core::scale_energy_params(
          base, core::ParamScaleSpec::all(),
          std::pow(0.5, static_cast<double>(gen)));
      req.p_samples = 24;
      req.m_samples = 12;
      // One machine-size cap for every generation so frontier_area is
      // comparable down a model's column (and the grid stays CI-sized).
      req.limits.p_available = sc.sim_p_available;
      // The sim stage only runs at generation 0: fault robustness is a
      // property of the schedule, not of the energy coefficients, so one
      // measured frontier per model is the tracked signal.
      const bool sim_row = simulate && gen == 0;
      if (sim_row) {
        req.simulate = true;
        req.sim_points = 6;
        req.threads = threads;
      }

      const auto t0 = std::chrono::steady_clock::now();
      const navigator::NavReport rep = navigator::navigate(req);
      const double seconds = elapsed(t0);
      const navigator::ValidationResult vr = navigator::validate(rep, req);
      ALGE_REQUIRE(vr.ok, "navigator validation failed for %s gen %d: %s",
                   sc.model, gen,
                   vr.failures.empty() ? "?" : vr.failures.front().c_str());

      t.row()
          .cell(sc.model)
          .cell(gen)
          .cell(static_cast<int>(rep.model_frontier.size()))
          .cell(rep.frontier_area, "%.4g")
          .cell(rep.min_energy.E, "%.6g")
          .cell(rep.gflops_per_watt_at_opt, "%.3f")
          .cell(rep.crossover_generations)
          .cell(sim_row ? strfmt("%d/%zu", rep.robust_points,
                                 rep.measured_frontier.size())
                        : std::string("--"))
          .cell(sim_row ? strfmt("%.4f", rep.fault_energy_inflation)
                        : std::string("--"))
          .cell(seconds, "%.3f");

      // Losing frontier points or folded scoring is the regression; a
      // frontier that gains dominated points fails validate() above.
      using obs::Better;
      const std::string name = strfmt("%s gen=%d", sc.model, gen);
      auto crossover = [&](const char* metric, int generations) {
        if (generations >= 0) {
          records.exact(name, metric, generations, "generations");
        }
      };
      records.exact(name, "generation", gen, "generations", Better::kNone);
      records.exact(name, "frontier_points",
                    static_cast<double>(rep.model_frontier.size()), "points",
                    Better::kHigher);
      records.exact(name, "frontier_area", rep.frontier_area, "ratio");
      records.exact(name, "min_energy_joules", rep.min_energy.E, "J");
      records.exact(name, "min_time_seconds", rep.min_time.T, "s");
      records.exact(name, "gflops_per_watt_at_opt",
                    rep.gflops_per_watt_at_opt, "GFLOPS/W", Better::kHigher);
      crossover("crossover_generations", rep.crossover_generations);
      if (sim_row) {
        records.exact(name, "measured_frontier_points",
                      static_cast<double>(rep.measured_frontier.size()),
                      "points", Better::kHigher);
        records.exact(name, "measured_frontier_area",
                      rep.measured_frontier_area, "ratio");
        records.exact(name, "robust_fraction", rep.robust_fraction, "ratio",
                      Better::kHigher);
        records.exact(name, "fault_energy_inflation",
                      rep.fault_energy_inflation, "ratio");
        crossover("crossover_generations_faulted",
                  rep.crossover_generations_faulted);
        records.exact(name, "engine_runs",
                      rep.simulated + rep.rescore_runs, "runs");
        records.exact(name, "cache_hits", rep.cache_hits, "runs",
                      Better::kHigher);
        records.exact(name, "folded_scored", rep.folded_scored, "points",
                      Better::kHigher);
        records.exact(name, "fiber_scored", rep.fiber_scored, "points");
      }
      records.wall(name, "navigate_seconds", seconds, "s");
    }
  }

  t.print(std::cout);
  std::cout << "\nAll rows passed the navigator's own validation (bounds, "
               "Pareto, bit-exact Section-V endpoints). frontier_area and "
               "the energy columns are deterministic; only the seconds "
               "column is wall-clock. See EXPERIMENTS.md \"Navigator\".\n";

  records.write(cli.get("bench-json"));
  return 0;
}
