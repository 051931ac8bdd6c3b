// Ablation — collective implementations (DESIGN.md §5): the binomial
// broadcast/reduce behind the `log c` term of Eq. (7)'s S, ring allgather,
// and direct vs Bruck all-to-all, measured per group size on the simulator.
//
// The (p, collective) grid runs through the experiment engine: each point
// is one engine job (see Alg::kColl*), so --threads N measures the group
// sizes concurrently and --cache-dir PATH skips re-measuring known points.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "engine/runner.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace alge;
  CliArgs cli;
  bench::add_engine_flags(cli);
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.usage("ablation_collectives");
    return 0;
  }

  bench::banner("Ablation: collective algorithms",
                "Per-rank maximum words/messages for a k=64-word payload as "
                "the group grows. Binomial trees give the log p critical "
                "path assumed by the models.");
  const int k = 64;
  const engine::Alg kinds[] = {
      engine::Alg::kCollBcast, engine::Alg::kCollReduce,
      engine::Alg::kCollAllgather, engine::Alg::kCollA2aDirect,
      engine::Alg::kCollA2aBruck};
  const int ps[] = {2, 4, 8, 16, 32, 64};

  std::vector<engine::ExperimentSpec> specs;
  for (const int p : ps) {
    for (const engine::Alg kind : kinds) {
      engine::ExperimentSpec s;
      s.alg = kind;
      s.params = core::MachineParams::unit();
      s.p = p;
      s.payload_words = k;
      specs.push_back(s);
    }
  }
  engine::SweepRunner runner(bench::sweep_options_from_cli(cli));
  const auto results = runner.run(specs);

  Table t({"p", "bcast S/rank", "bcast T", "reduce T", "allgather W/rank",
           "a2a-direct S/rank", "a2a-bruck S/rank", "a2a-bruck W/rank"});
  for (std::size_t i = 0; i < std::size(ps); ++i) {
    const auto& bcast = results[i * std::size(kinds) + 0];
    const auto& reduce = results[i * std::size(kinds) + 1];
    const auto& gather = results[i * std::size(kinds) + 2];
    const auto& a2a = results[i * std::size(kinds) + 3];
    const auto& bruck = results[i * std::size(kinds) + 4];
    t.row()
        .cell(ps[i])
        .cell(bcast.totals.msgs_sent_max, "%.0f")
        .cell(bcast.makespan, "%.0f")
        .cell(reduce.makespan, "%.0f")
        .cell(gather.totals.words_sent_max, "%.0f")
        .cell(a2a.totals.msgs_sent_max, "%.0f")
        .cell(bruck.totals.msgs_sent_max, "%.0f")
        .cell(bruck.totals.words_sent_max, "%.0f");
  }
  t.print(std::cout);
  std::cout << "\nExpected: bcast S/rank = log2 p; allgather W = (p-1)k; "
               "bruck S = ceil(log2 p) at ~(k p/2) log2 p words.\n";
  bench::write_engine_record("ablation_collectives", runner,
                              cli.get("bench-json"));
  return 0;
}
