// chaos_explore: the differential determinism harness as a CI gate.
//
//   chaos_explore [--algs=all|mm25d,caps,...] [--p=4,8] [--seeds=32]
//                 [--plans=all|delay,drop,...] [--verbose] [--ghost]
//
// For every (algorithm, machine size) case it establishes the fault-free
// round-robin baseline, then (a) re-runs under --seeds permuted fiber wake
// orders and asserts the full run signature — per-rank F/W/S counters,
// clocks, makespan, Eq. (2) energy terms, numerical error — is
// bit-identical, and (b) re-runs under every bundled fault plan asserting
// convergence (bounded retries, no deadlock) and graceful, monotone
// degradation (see src/chaos/differential.hpp for the exact contract).
//
// --ghost runs the ghost-payload differential instead: every case runs
// full-data and DataMode::kGhost back to back — fault-free and under every
// plan × seed — and the cost signatures (per-rank counters, clocks,
// energy, injected faults) must be bit-identical.
//
// --fold runs the folded-execution differential: every case runs
// fiber-ghost and ExecMode::kFolded ghost back to back — fault-free and
// under every plan × seed (faulted runs exercise the transparent fallback
// to fibers, which must still match) — and the cost signatures must be
// bit-identical. This is the CI gate behind bench/frontier_folded.
//
// Exit codes: 0 all invariants hold, 1 mismatch or divergence, 2 usage
// error.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "chaos/differential.hpp"
#include "support/cli.hpp"
#include "support/common.hpp"

namespace {

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > start) out.push_back(s.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace alge;
  CliArgs cli;
  cli.add_flag("algs", "all",
               "algorithms to test: all or a comma list of " +
                   algs::names_list(","));
  cli.add_flag("p", "4,8", "machine size classes (comma list)");
  cli.add_flag("seeds", "32", "schedule/fault seeds per case");
  cli.add_flag("plans", "all",
               "fault plans: all or a comma list of "
               "delay,drop,duplicate,reorder,pause,mixed");
  cli.add_flag("verbose", "false", "per-case summary lines");
  cli.add_flag("ghost", "false",
               "run the ghost-payload differential (full vs "
               "--data-mode=ghost cost-signature bit-identity) instead of "
               "the schedule/fault sweep");
  cli.add_flag("fold", "false",
               "run the folded-execution differential (fiber-ghost vs "
               "--exec-mode=folded cost-signature bit-identity) instead of "
               "the schedule/fault sweep");
  try {
    cli.parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "chaos_explore: %s\n%s", e.what(),
                 cli.usage("chaos_explore").c_str());
    return 2;
  }
  if (cli.help_requested()) {
    std::fputs(cli.usage("chaos_explore").c_str(), stdout);
    return 0;
  }

  chaos::DiffOptions opts;
  opts.out = &std::cout;
  opts.verbose = cli.get_bool("verbose");
  try {
    if (cli.get("algs") != "all") {
      opts.algs.clear();
      for (const std::string& name : split_csv(cli.get("algs"))) {
        opts.algs.emplace_back(algs::find(name).name);
      }
    }
    opts.ps.clear();
    for (long long p : cli.get_int_list("p")) {
      ALGE_REQUIRE(p >= 1, "--p entries must be >= 1");
      opts.ps.push_back(static_cast<int>(p));
    }
    opts.seeds = static_cast<int>(cli.get_int("seeds"));
    ALGE_REQUIRE(opts.seeds >= 1, "--seeds must be >= 1");
    if (cli.get("plans") != "all") {
      opts.plans = split_csv(cli.get("plans"));
      for (const std::string& name : opts.plans) {
        (void)chaos::FaultPlan::bundled(name);  // validate early
      }
    }
    ALGE_REQUIRE(!opts.algs.empty() && !opts.ps.empty(),
                 "need at least one algorithm and one machine size");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "chaos_explore: %s\n%s", e.what(),
                 cli.usage("chaos_explore").c_str());
    return 2;
  }

  if (cli.get_bool("fold")) return chaos::fold_explore(opts).ok() ? 0 : 1;
  if (cli.get_bool("ghost")) return chaos::ghost_explore(opts).ok() ? 0 : 1;
  return chaos::explore(opts).ok() ? 0 : 1;
}
