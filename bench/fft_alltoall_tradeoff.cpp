// Section IV, FFT: no perfect strong scaling range, and the all-to-all
// choice trades words for messages — naive: W = n/p, S = p; tree (Bruck):
// W = (n/p)·log p, S = log p. Measured on the four-step FFT, with the
// model rows alongside.
#include <cmath>
#include <iostream>

#include "algs/registry.hpp"
#include "bench_common.hpp"
#include "core/algmodel.hpp"
#include "support/cli.hpp"
#include "support/common.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace alge;
  CliArgs cli;
  cli.add_flag("r", "32", "R dimension (n = R*C complex points)");
  cli.add_flag("c", "32", "C dimension");
  cli.add_flag("verify", "true", "check against a naive DFT");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.usage("fft_alltoall_tradeoff");
    return 0;
  }
  const int r_dim = static_cast<int>(cli.get_int("r"));
  const int c_dim = static_cast<int>(cli.get_int("c"));
  const bool verify = cli.get_bool("verify");
  const int n = r_dim * c_dim;

  bench::banner("FFT all-to-all trade-off (Section IV)",
                "Naive exchange: W = n/p, S = p. Tree (Bruck): W = "
                "(n/p)·log2 p, S = log2 p. Words are 2 doubles per complex "
                "point.");

  core::MachineParams mp = core::MachineParams::unit();
  Table t({"p", "variant", "W/rank", "S/rank", "T (sim)", "E (sim)",
           "max |err|"});
  for (int p : {4, 8, 16, 32}) {
    if (r_dim % p != 0 || c_dim % p != 0) continue;
    for (bool bruck : {false, true}) {
      // Verification is O(n^2); only do it at the smallest size.
      const bool v = verify && p == 4;
      const auto r = algs::run({.alg = "fft", .p = p, .r_dim = r_dim,
                                .c_dim = c_dim, .fft_bruck = bruck},
                               mp, v);
      t.row()
          .cell(p)
          .cell(bruck ? "bruck" : "naive")
          .cell(r.words_per_proc(), "%.0f")
          .cell(r.msgs_per_proc(), "%.0f")
          .cell(r.makespan, "%.0f")
          .cell(r.energy.total(), "%.4g")
          .cell(v ? strfmt("%.2g", r.max_abs_error) : std::string("-"));
    }
  }
  t.print(std::cout);

  std::cout << "\nModel (per-processor costs, constants omitted):\n";
  core::FftModel naive(core::FftModel::AllToAll::kNaive);
  core::FftModel tree(core::FftModel::AllToAll::kTree);
  Table m({"p", "naive W", "naive S", "tree W", "tree S"});
  for (double p : {4.0, 8.0, 16.0, 32.0}) {
    const auto cn = naive.costs(n, p, n / p, mp.max_msg_words);
    const auto ct = tree.costs(n, p, n / p, mp.max_msg_words);
    m.row()
        .cell(p, "%.0f")
        .cell(cn.W, "%.0f")
        .cell(cn.S, "%.0f")
        .cell(ct.W, "%.0f")
        .cell(ct.S, "%.1f");
  }
  m.print(std::cout);
  std::cout << "\nNo strong-scaling region: the naive S grows with p and "
               "the tree S never falls — and extra memory is useless "
               "(M = n/p always).\n";
  return 0;
}
