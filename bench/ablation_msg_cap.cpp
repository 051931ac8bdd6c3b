// Ablation — the message-size cap m (DESIGN.md §5): the models couple
// S = W/m; the simulator splits every send at m words. Sweeping m on a
// fixed 2.5D matmul shows S rising as W/m while W stays put, and the
// latency share of T and E growing accordingly.
#include <iostream>

#include "algs/registry.hpp"
#include "bench_common.hpp"
#include "support/common.hpp"
#include "support/table.hpp"

int main() {
  using namespace alge;
  bench::banner("Ablation: message-size cap m (S = W/m coupling)",
                "2.5D matmul, n=48, q=4, c=2; alpha_t=100 so latency is "
                "visible. Splitting at m words multiplies S without "
                "touching W.");
  Table t({"m (words)", "W/rank", "S/rank", "T (sim)", "E messages",
           "E total"});
  for (double m : {1e18, 256.0, 64.0, 16.0, 4.0}) {
    core::MachineParams mp = core::MachineParams::unit();
    mp.alpha_t = 100.0;
    mp.alpha_e = 100.0;
    mp.max_msg_words = m;
    const auto r = algs::run({.alg = "mm25d", .n = 48, .q = 4, .c = 2}, mp);
    t.row()
        .cell(m >= 1e17 ? std::string("unbounded") : strfmt("%.0f", m))
        .cell(r.words_per_proc(), "%.0f")
        .cell(r.msgs_per_proc(), "%.0f")
        .cell(r.makespan, "%.0f")
        .cell(r.energy.breakdown.messages, "%.0f")
        .cell(r.energy.total(), "%.4g");
  }
  t.print(std::cout);
  return 0;
}
