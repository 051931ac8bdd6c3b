// Ablation — energy-ledger conventions (DESIGN.md §5): Eq. (2) charges
// p·δe·M·T for memory. The simulator can price M as the measured per-rank
// high-water mark (pay for what the algorithm touched) or as the full
// configured memory (pay for what the machine has — the paper's "memory
// that we are utilizing" assumption, upper-bounded). The gap quantifies
// how much of the energy story depends on that assumption.
#include <iostream>

#include "algs/registry.hpp"
#include "bench_common.hpp"
#include "sim/machine.hpp"
#include "support/table.hpp"

int main() {
  using namespace alge;
  bench::banner("Ablation: memory-energy accounting",
                "2.5D matmul across replication factors; energy with M = "
                "measured high-water vs M = full configured memory.");
  core::MachineParams mp;
  mp.gamma_t = 1.0;
  mp.beta_t = 2.0;
  mp.alpha_t = 10.0;
  mp.gamma_e = 1.0;
  mp.beta_e = 4.0;
  mp.alpha_e = 20.0;
  mp.delta_e = 1e-3;
  mp.eps_e = 0.0;
  mp.max_msg_words = 64;

  Table t({"c", "p", "mem HW/rank", "E (M=high-water)", "E (M=2x HW cap)",
           "memory share HW", "memory share cap"});
  const int n = 48;
  const int q = 4;
  for (int c : {1, 2, 4}) {
    const auto r = algs::run({.alg = "mm25d", .n = n, .q = q, .c = c}, mp);
    const double hw =
        static_cast<double>(r.totals.mem_highwater_total) / r.p;
    // Re-price with a machine that carries twice the needed memory.
    sim::SimEnergy cap_priced = r.energy;
    const double cap = 2.0 * static_cast<double>(r.totals.mem_highwater_max);
    cap_priced.breakdown.memory =
        r.p * mp.delta_e * cap * r.makespan;
    t.row()
        .cell(c)
        .cell(r.p)
        .cell(hw, "%.0f")
        .cell(r.energy.total(), "%.4g")
        .cell(cap_priced.total(), "%.4g")
        .cell(r.energy.breakdown.memory / r.energy.total(), "%.3f")
        .cell(cap_priced.breakdown.memory / cap_priced.total(), "%.3f");
  }
  t.print(std::cout);
  std::cout << "\nThe paper's δe·M·T term assumes you pay only for memory "
               "in use; a machine provisioned with idle memory pays the "
               "cap-priced column — replication then looks even better, "
               "since it puts the idle memory to work.\n";
  return 0;
}
