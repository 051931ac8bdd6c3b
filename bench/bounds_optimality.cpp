// Optimality certificate — Section III: the measured per-processor word
// traffic of each executable algorithm against its communication lower
// bound (Eqs. 3–5 and the memory-independent floors of [12], [13]).
// "Communication-optimal" means the ratio column is O(1) and stays flat as
// p grows; a growing ratio would mean the implementation wastes bandwidth
// asymptotically.
//
// The configuration grid runs through the experiment engine (--threads,
// --cache-dir); the printed table is identical regardless of concurrency.
#include <functional>
#include <iostream>
#include <vector>

#include "algs/nbody/nbody.hpp"
#include "bench_common.hpp"
#include "core/algmodel.hpp"
#include "core/bounds.hpp"
#include "engine/runner.hpp"
#include "support/cli.hpp"
#include "support/common.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace alge;
  CliArgs cli;
  bench::add_engine_flags(cli);
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.usage("bounds_optimality");
    return 0;
  }

  bench::banner("Lower-bound optimality check (Section III)",
                "measured W/rank vs the per-processor communication lower "
                "bound; flat O(1) ratios certify communication "
                "optimality.");
  core::MachineParams mp = core::MachineParams::unit();
  Table t({"experiment", "p", "M/rank (words)", "W bound", "measured W/rank",
           "ratio"});

  std::vector<engine::ExperimentSpec> specs;
  std::vector<std::function<void(const engine::ExperimentResult&)>> rows;

  // `bound` is a function of the measured p so row math matches the
  // original serial code exactly.
  auto add = [&](const std::string& name, double M,
                 std::function<double(double)> bound,
                 engine::ExperimentSpec spec) {
    spec.params = mp;
    specs.push_back(std::move(spec));
    rows.push_back(
        [&t, name, M, bound](const engine::ExperimentResult& r) {
          const double b = bound(static_cast<double>(r.p));
          t.row()
              .cell(name)
              .cell(r.p)
              .cell(M, "%.0f")
              .cell(b, "%.0f")
              .cell(r.words_per_proc(), "%.0f")
              .cell(r.words_per_proc() / b, "%.2f");
        });
  };

  // Classical matmul across the 2D..3D range.
  for (auto [q, c] : {std::pair{4, 1}, {4, 2}, {4, 4}, {8, 1}, {8, 2}}) {
    const int n = 48;
    const double p = static_cast<double>(q) * q * c;
    const double M = 3.0 * n * n * c / p;  // A, B, C blocks
    engine::ExperimentSpec s;
    s.alg = engine::Alg::kMm25d;
    s.n = n;
    s.q = q;
    s.c = c;
    add(strfmt("mm q=%d c=%d", q, c), M,
        [n, M](double pp) { return core::bounds::matmul_words(n, pp, M); }, s);
  }

  // CAPS Strassen.
  for (int k : {1, 2}) {
    const int n = 28;
    const double p = k == 1 ? 7.0 : 49.0;
    const double M = 7.0 * n * n / (4.0 * p) * 3.0;  // BFS working set
    engine::ExperimentSpec s;
    s.alg = engine::Alg::kCaps;
    s.n = n;
    s.k = k;
    add(strfmt("caps k=%d", k), M,
        [n, M](double pp) {
          return core::bounds::strassen_words(
              n, pp, M, core::StrassenModel::kStrassenOmega);
        },
        s);
  }

  // Replicating n-body (bound in particle units; measured words carry the
  // 4-words-per-particle factor, part of the O(1)).
  for (auto [p, c] : {std::pair{8, 1}, {16, 2}, {16, 4}, {64, 4}}) {
    const int n = 128;
    const double M = static_cast<double>(n) * c / p;
    engine::ExperimentSpec s;
    s.alg = engine::Alg::kNBody;
    s.n = n;
    s.p = p;
    s.c = c;
    add(strfmt("nbody p=%d c=%d", p, c), M * algs::kParticleWords,
        [n, M](double pp) {
          return core::bounds::nbody_words(n, pp, M) * algs::kParticleWords;
        },
        s);
  }

  // LU (same matmul-type bound).
  for (auto [q, c] : {std::pair{2, 1}, {4, 1}, {2, 2}}) {
    const int n = 32;
    const double p = static_cast<double>(q) * q * c;
    const double M = static_cast<double>(n) * n * c / p;
    engine::ExperimentSpec s;
    s.alg = engine::Alg::kLu;
    s.n = n;
    s.nb = 4;
    s.q = q;
    s.c = c;
    add(strfmt("lu q=%d c=%d", q, c), M,
        [n, M](double pp) {
          return core::bounds::matmul_words(n, pp, M) / 3.0;  // n³/3 flops
        },
        s);
  }

  engine::SweepRunner runner(bench::sweep_options_from_cli(cli));
  const auto results = runner.run(specs);
  for (std::size_t i = 0; i < results.size(); ++i) rows[i](results[i]);

  t.print(std::cout);
  std::cout << "\nSequential FFT floor (Hong & Kung, Eq. in Section IV): "
               "W = n log n / log M; e.g. n = 2^20 through M = 2^15 words "
               "of cache: "
            << core::bounds::fft_sequential_words(1 << 20, 1 << 15)
            << " words.\n";
  bench::write_engine_record("bounds_optimality", runner,
                              cli.get("bench-json"));
  return 0;
}
