// Ablation — Cannon vs SUMMA as the 2D baseline inside 2.5D (DESIGN.md §5):
// same asymptotics, different constants — Cannon shifts 2 blocks per step
// point-to-point; SUMMA broadcasts 2 panels per step down binomial trees.
#include <iostream>

#include "algs/registry.hpp"
#include "bench_common.hpp"
#include "support/table.hpp"

int main() {
  using namespace alge;
  bench::banner("Ablation: Cannon vs SUMMA (2D baselines)",
                "Same n and grid; per-rank words/messages and simulated "
                "time under unit parameters.");
  Table t({"q", "p", "algorithm", "W/rank", "S/rank", "T (sim)",
           "max |err|"});
  for (int q : {2, 4, 8}) {
    const int n = 8 * q;
    const auto cannon = algs::run({.alg = "mm25d", .n = n, .q = q, .c = 1},
                                  core::MachineParams::unit(), true);
    const auto summa = algs::run({.alg = "summa", .n = n, .q = q},
                                 core::MachineParams::unit(), true);
    t.row()
        .cell(q)
        .cell(cannon.p)
        .cell("cannon(2.5D c=1)")
        .cell(cannon.words_per_proc(), "%.0f")
        .cell(cannon.msgs_per_proc(), "%.0f")
        .cell(cannon.makespan, "%.0f")
        .cell(cannon.max_abs_error, "%.2g");
    t.row()
        .cell(q)
        .cell(summa.p)
        .cell("summa")
        .cell(summa.words_per_proc(), "%.0f")
        .cell(summa.msgs_per_proc(), "%.0f")
        .cell(summa.makespan, "%.0f")
        .cell(summa.max_abs_error, "%.2g");
  }
  t.print(std::cout);
  std::cout << "\nSUMMA pays a log q broadcast factor on the critical path; "
               "Cannon's shifts are nearest-neighbour (the reason the 2.5D "
               "implementation uses Cannon steps).\n";
  return 0;
}
