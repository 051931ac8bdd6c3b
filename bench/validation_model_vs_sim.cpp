// Validation — the glue between theory and execution: for every algorithm
// family, compare the analytic per-processor cost formulas of Section IV
// against the counts the simulator measures on the real implementation.
// Ratios near 1 mean the asymptotic formulas hold with small constants;
// the table records them per configuration.
//
// Runs its configuration grid through the experiment engine: --threads N
// executes the independent simulations concurrently and --cache-dir PATH
// persists results so a re-run only computes changed points. Output is
// identical regardless of thread count or cache state.
#include <cmath>
#include <functional>
#include <iostream>
#include <vector>

#include "algs/nbody/nbody.hpp"
#include "bench_common.hpp"
#include "core/algmodel.hpp"
#include "engine/runner.hpp"
#include "support/cli.hpp"
#include "support/common.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace alge;
  CliArgs cli;
  bench::add_engine_flags(cli);
  bench::add_trace_flags(cli);
  bench::add_chaos_flags(cli);
  bench::add_data_mode_flag(cli);
  bench::add_exec_mode_flag(cli);
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.usage("validation_model_vs_sim");
    return 0;
  }

  bench::banner("Validation: measured counts vs Section-IV formulas",
                "measured / model per-processor ratios (F exact by "
                "construction; W carries the algorithm's constant).");
  core::MachineParams mp = core::MachineParams::unit();
  Table t({"experiment", "p", "model F", "meas F", "F ratio", "model W",
           "meas W/rank", "W ratio"});

  std::vector<engine::ExperimentSpec> specs;
  // One row-formatter per spec, applied in order once results are in.
  std::vector<std::function<void(const engine::ExperimentResult&)>> rows;

  auto add = [&](const std::string& name, const core::AlgModel& model,
                 double n, double M, engine::ExperimentSpec spec) {
    spec.params = mp;
    specs.push_back(std::move(spec));
    rows.push_back([&t, &model, &mp, name, n,
                    M](const engine::ExperimentResult& r) {
      const auto costs = model.costs(n, r.p, M, mp.max_msg_words);
      t.row()
          .cell(name)
          .cell(r.p)
          .cell(costs.F, "%.3g")
          .cell(r.totals.flops_total / r.p, "%.3g")
          .cell(r.totals.flops_total / r.p / costs.F, "%.2f")
          .cell(costs.W, "%.3g")
          .cell(r.words_per_proc(), "%.3g")
          .cell(r.words_per_proc() / costs.W, "%.2f");
    });
  };

  // Classical matmul: F model = n³/p (we count 2 flops per multiply-add:
  // expect F ratio ≈ 2); W model = n²·c... = n³/(p·sqrt(M)).
  core::ClassicalMatmulModel mm;
  for (auto [q, c] : {std::pair{4, 1}, {4, 2}, {4, 4}, {8, 2}}) {
    const int n = 48;
    const double p = static_cast<double>(q) * q * c;
    const double M = static_cast<double>(n) * n * c / p;
    engine::ExperimentSpec s;
    s.alg = engine::Alg::kMm25d;
    s.n = n;
    s.q = q;
    s.c = c;
    add(strfmt("mm 2.5D q=%d c=%d", q, c), mm, n, M, s);
  }

  // Strassen CAPS: F model = n^w0/p; the implementation runs k levels of
  // distributed Strassen + local Strassen with a cutoff, so the ratio
  // drifts with the cutoff but stays O(1).
  core::StrassenModel st;
  for (int k : {1, 2}) {
    const int n = 28;
    const double p = std::pow(7.0, k);
    const double M = 3.0 * n * n / p;  // roughly what CAPS BFS holds
    engine::ExperimentSpec s;
    s.alg = engine::Alg::kCaps;
    s.n = n;
    s.k = k;
    s.caps_cutoff = 4;
    add(strfmt("caps k=%d", k), st, n, std::min(M, st.max_useful_memory(n, p)),
        s);
  }

  // n-body: F model = f n²/p with f = 20; W = n²/(p·M) with M = particle
  // words per rank (4 words each).
  core::NBodyModel nb(algs::kInteractionFlops);
  for (auto [p, c] : {std::pair{8, 1}, {8, 2}, {16, 4}}) {
    const int n = 128;
    const double M = static_cast<double>(n) * c / p;  // particles per rank
    engine::ExperimentSpec s;
    s.alg = engine::Alg::kNBody;
    s.n = n;
    s.p = p;
    s.c = c;
    add(strfmt("nbody p=%d c=%d", p, c), nb, n, M, s);
  }

  // LU: F = n³/p; W = n³/(p·sqrt(M)).
  core::LuModel lu;
  for (auto [q, c] : {std::pair{2, 1}, {2, 2}, {4, 1}}) {
    const int n = 32;
    const double p = static_cast<double>(q) * q * c;
    const double M = static_cast<double>(n) * n * c / p;
    engine::ExperimentSpec s;
    s.alg = engine::Alg::kLu;
    s.n = n;
    s.nb = 4;
    s.q = q;
    s.c = c;
    add(strfmt("lu q=%d c=%d", q, c), lu, n, M, s);
  }

  // FFT: F = n log2 n per the model; the kernel charges 5 n log2 n (the
  // classic operation count), so expect F ratio ≈ 5; words are complex
  // (2 doubles), expect W ratio ≈ 2.
  core::FftModel fft_naive(core::FftModel::AllToAll::kNaive);
  core::FftModel fft_tree(core::FftModel::AllToAll::kTree);
  for (int p : {8, 16}) {
    const int n = 1024;
    engine::ExperimentSpec direct;
    direct.alg = engine::Alg::kFft;
    direct.r_dim = 32;
    direct.c_dim = 32;
    direct.p = p;
    add(strfmt("fft naive p=%d", p), fft_naive, n, 2.0 * n / p, direct);
    engine::ExperimentSpec bruck = direct;
    bruck.fft_bruck = true;
    add(strfmt("fft bruck p=%d", p), fft_tree, n, 2.0 * n / p, bruck);
  }

  bench::apply_chaos_flags(cli, specs);
  bench::apply_data_mode_flag(cli, specs);
  bench::apply_exec_mode_flag(cli, specs);
  engine::SweepRunner runner(bench::sweep_options_from_cli(cli));
  const auto results = runner.run(specs);
  for (std::size_t i = 0; i < results.size(); ++i) rows[i](results[i]);

  t.print(std::cout);
  std::cout << "\nReading the ratios: F ≈ 2 (multiply-add counted as 2 "
               "flops) except FFT ≈ 5 (butterfly count) and CAPS < 2 "
               "(Strassen saves flops). W ratios are the algorithms' "
               "leading constants (Cannon ≈ 2, replication/collective "
               "overheads on top); they stay O(1) across p, which is the "
               "content of the communication-optimality claims. The n-body W "
               "ratios carry the 4-words-per-particle packing and, at "
               "c > 1, the team broadcast/reduce floor that dominates at "
               "these tiny scales.\n";
  bench::write_engine_record("validation_model_vs_sim", runner,
                              cli.get("bench-json"));
  // --trace-out: export the first configuration's timeline (2.5D matmul).
  bench::maybe_write_trace(cli, specs.front());
  return 0;
}
