// Ablation — CAPS schedules and the local cutoff (DESIGN.md §5): BFS-early
// minimizes traffic but needs 7/4 more memory per level; DFS defers the
// exchange to smaller subproblems (more words, less memory) — the paper's
// FLM memory-communication trade-off made concrete. Also sweeps the local
// Strassen cutoff's effect on flop counts.
#include <iostream>

#include "algs/registry.hpp"
#include "algs/strassen/local.hpp"
#include "bench_common.hpp"
#include "support/table.hpp"

int main() {
  using namespace alge;
  bench::banner("Ablation: CAPS schedule (BFS/DFS order) and local cutoff",
                "n=56, p=7 (k=1), unit parameters. B early = fewer words, "
                "more memory; D early = the reverse.");
  Table t({"schedule", "W/rank", "S/rank", "mem high-water/rank (words)",
           "T (sim)", "max |err|"});
  for (const char* sched : {"BD", "DB"}) {
    const auto r = algs::run({.alg = "caps", .n = 56, .k = 1,
                              .caps_schedule = sched, .caps_cutoff = 4},
                             core::MachineParams::unit(), /*verify=*/true);
    t.row()
        .cell(sched)
        .cell(r.words_per_proc(), "%.0f")
        .cell(r.msgs_per_proc(), "%.0f")
        .cell(r.totals.mem_highwater_max)
        .cell(r.makespan, "%.0f")
        .cell(r.max_abs_error, "%.2g");
  }
  t.print(std::cout);

  std::cout << "\nLocal cutoff: flops of the sequential base-case multiply "
               "(n=64):\n";
  Table c({"cutoff", "levels", "flops", "vs classical"});
  const double classical = 2.0 * 64.0 * 64.0 * 64.0;
  for (int cutoff : {64, 32, 16, 8, 4, 2}) {
    c.row()
        .cell(cutoff)
        .cell(algs::strassen_levels(64, cutoff))
        .cell(algs::strassen_flops(64, cutoff), "%.0f")
        .cell(algs::strassen_flops(64, cutoff) / classical, "%.3f");
  }
  c.print(std::cout);
  std::cout << "\nEach Strassen level trades an 8x recursion for 7 products "
               "plus 18 quadrant additions; at small sizes the additions "
               "win, which is why a cutoff exists.\n";
  return 0;
}
