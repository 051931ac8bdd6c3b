// Section IV, LU: replication reduces 2.5D LU's bandwidth like matmul's,
// but the per-panel critical path keeps the message count from scaling —
// S_LU = Ω((cp)^1/2) against matmul's S = O((p/c^3)^1/2). Measured side by
// side on the simulator.
#include <iostream>

#include "algs/registry.hpp"
#include "bench_common.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace alge;
  CliArgs cli;
  cli.add_flag("n", "32", "matrix dimension");
  cli.add_flag("nb", "4", "LU block size");
  cli.add_flag("q", "2", "grid edge");
  cli.add_flag("verify", "true", "check LU against the serial factorization");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.usage("scaling_lu_latency");
    return 0;
  }
  const int n = static_cast<int>(cli.get_int("n"));
  const int nb = static_cast<int>(cli.get_int("nb"));
  const int q = static_cast<int>(cli.get_int("q"));
  const bool verify = cli.get_bool("verify");

  bench::banner("2.5D LU vs 2.5D matmul: latency does not strong-scale",
                "Same grid growth by replication factor c; matmul's "
                "messages per rank fall with c, LU's do not (critical "
                "path).");

  core::MachineParams mp = core::MachineParams::unit();

  Table t({"c", "p", "LU S/rank", "LU W/rank", "LU max|err|", "MM S/rank",
           "MM W/rank"});
  for (int c = 1; c <= q * 2; c *= 2) {
    const auto lu = algs::run(
        {.alg = "lu", .n = n, .q = q, .c = c, .nb = nb}, mp, verify);
    // Matmul on the same q x q x c machine (q must be divisible by c for
    // the step partition; skip otherwise).
    double mm_s = -1.0;
    double mm_w = -1.0;
    if (c <= q && q % c == 0) {
      const auto mm = algs::run({.alg = "mm25d", .n = n, .q = q, .c = c}, mp);
      mm_s = mm.msgs_per_proc();
      mm_w = mm.words_per_proc();
    }
    auto& row = t.row()
                    .cell(c)
                    .cell(lu.p)
                    .cell(lu.msgs_per_proc(), "%.0f")
                    .cell(lu.words_per_proc(), "%.0f")
                    .cell(lu.max_abs_error, "%.2g");
    if (mm_s >= 0.0) {
      row.cell(mm_s, "%.0f").cell(mm_w, "%.0f");
    } else {
      row.cell("-").cell("-");
    }
  }
  t.print(std::cout);

  std::cout << "\nPanel-count effect (2D LU, finer blocks = more panels = "
               "more messages; S ~ nt = n/nb):\n";
  Table s({"nb", "panels nt", "S/rank", "W/rank"});
  for (int b : {2, 4, 8}) {
    if (n % (b * q) != 0) continue;
    const auto lu =
        algs::run({.alg = "lu", .n = n, .q = q, .c = 1, .nb = b}, mp);
    s.row().cell(b).cell(n / b).cell(lu.msgs_per_proc(), "%.0f").cell(
        lu.words_per_proc(), "%.0f");
  }
  s.print(std::cout);
  return 0;
}
