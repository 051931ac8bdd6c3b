// frontier_folded: the Fig.-3 strong-scaling frontier at machine sizes no
// per-fiber simulator can reach. --exec-mode=folded (sim/fold.hpp) runs one
// fiber per symmetry class and replays per-class cost deltas — or, for
// schedules whose communication pattern rotates with the step (SUMMA's
// moving bcast root, LU's moving panel owner, 2.5D's skew/shift), replays
// a rotor schedule over a per-rank counter array (sim/fold_rotor.hpp) — so
// a p = 10^6..10^8 ghost run finishes in seconds on one core while
// producing the same makespan / energy / per-rank counters a
// million-fiber run would.
//
//   frontier_folded [--deep=true] [--json=PATH]
//
// Two kinds of rows:
//   - parity anchors (small p): the SAME spec is run fiber-ghost and
//     folded-ghost and every cost field is compared bit-for-bit — the
//     self-check that the frontier rows rest on (chaos::fold_explore and
//     tests/test_fold.cpp gate the same claim across faults and seeds).
//   - frontier points (p >= 10^6): folded-only; a per-fiber run at this
//     scale would need ~p fiber stacks of memory. The bench exits nonzero
//     if any such point silently fell back to per-fiber execution or any
//     anchor mismatched.
//
// The default set finishes in seconds and is what the committed
// BENCH_frontier.json records (generated with --deep=true, which adds the
// largest q=8192 / k=9 points). Machine: the scaling_mm_energy parameter
// set with uncapped messages, as in ghost_speedup's frontier row.
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>

#include "algs/registry.hpp"
#include "bench_common.hpp"
#include "core/params.hpp"
#include "sim/fold.hpp"
#include "support/cli.hpp"
#include "support/common.hpp"
#include "support/json.hpp"
#include "support/table.hpp"

namespace {

using namespace alge;
using algs::RunResult;

double elapsed(const std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Exact cost-signature equality: the folded contract is bit-identity, not
/// tolerance.
bool cost_equal(const RunResult& a, const RunResult& b) {
  return a.p == b.p && a.makespan == b.makespan &&
         a.totals.flops_total == b.totals.flops_total &&
         a.totals.words_total == b.totals.words_total &&
         a.totals.msgs_total == b.totals.msgs_total &&
         a.totals.words_hops_total == b.totals.words_hops_total &&
         a.totals.msgs_hops_total == b.totals.msgs_hops_total &&
         a.totals.flops_max == b.totals.flops_max &&
         a.totals.words_sent_max == b.totals.words_sent_max &&
         a.totals.msgs_sent_max == b.totals.msgs_sent_max &&
         a.totals.mem_highwater_max == b.totals.mem_highwater_max &&
         a.totals.mem_highwater_total == b.totals.mem_highwater_total &&
         a.energy.total() == b.energy.total() &&
         a.energy.makespan == b.energy.makespan;
}

struct Observed {
  bool fold_active = false;
  int slots = 0;
};

/// Run `pb` in ghost mode under the given exec mode, capturing whether the
/// machine actually folded and how many fibers it ran.
RunResult run_ghost(sim::ExecMode mode, Observed* seen,
                    const algs::Problem& pb, const core::MachineParams& mp) {
  sim::MachineConfig cfg;
  cfg.params = mp;
  cfg.data_mode = sim::DataMode::kGhost;
  cfg.exec_mode = mode;
  return algs::run(pb, std::move(cfg), false, [seen](const sim::Machine& m) {
    seen->fold_active = m.fold_active();
    seen->slots = m.num_slots();
  });
}

}  // namespace

int main(int argc, char** argv) {
  using namespace alge;
  CliArgs cli;
  cli.add_flag("deep", "false",
               "add the largest frontier points (mm25d q=8192: p = 6.7e7; "
               "CAPS k=9: p = 4.0e7); the committed BENCH_frontier.json is "
               "generated with this set");
  cli.add_flag("json", "",
               "write the BENCH_frontier.json record to this path (empty = "
               "table only)");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.usage("frontier_folded");
    return 0;
  }
  const bool deep = cli.get_bool("deep");

  bench::banner(
      "Folded-execution frontier: p = 10^6..10^8 ghost points in seconds",
      "One fiber per symmetry class, per-class cost replay on the virtual "
      "clock. Anchors run the same spec per-fiber and folded and demand "
      "bit-identical costs; frontier rows are folded-only (a fiber per rank "
      "would need ~p stacks of memory).");

  // scaling_mm_energy's machine (every Eq. (2) term live), uncapped
  // messages: at frontier scale the message-cap sweep is its own
  // experiment (see ghost_speedup's frontier row).
  core::MachineParams mp;
  mp.gamma_t = 1.0;
  mp.beta_t = 2.0;
  mp.alpha_t = 10.0;
  mp.gamma_e = 1.0;
  mp.beta_e = 4.0;
  mp.alpha_e = 20.0;
  mp.delta_e = 1e-4;
  mp.eps_e = 1e-2;
  mp.max_msg_words = 1e18;

  json::Value results = json::Value::array();
  Table t({"point", "p", "slots", "fold x", "wall s", "makespan", "energy"});
  bool ok = true;

  auto record = [&](const std::string& name, const RunResult& r,
                    const Observed& seen, double wall, bool folded_row,
                    bool anchor_identical) {
    const double foldx =
        seen.slots > 0 ? static_cast<double>(r.p) / seen.slots : 0.0;
    t.row()
        .cell(name)
        .cell(r.p)
        .cell(seen.slots)
        .cell(foldx, "%.0f")
        .cell(wall, "%.3f")
        .cell(r.makespan, "%.3e")
        .cell(r.energy.total(), "%.3e");
    json::Value e = json::Value::object();
    e.set("name", name);
    e.set("p", r.p);
    e.set("slots", seen.slots);
    e.set("folded", folded_row);
    e.set("seconds", wall);
    e.set("makespan", r.makespan);
    e.set("energy", r.energy.total());
    e.set("flops_per_rank", r.totals.flops_max);
    e.set("words_per_rank", r.totals.words_sent_max);
    e.set("msgs_per_rank", r.totals.msgs_sent_max);
    if (!folded_row) e.set("anchor_identical", anchor_identical);
    results.push_back(std::move(e));
  };

  // Parity anchor: fiber-ghost vs folded-ghost on one spec, bit-identical
  // or the bench fails.
  auto anchor = [&](const std::string& name, const algs::Problem& pb) {
    Observed fib, fold;
    const RunResult rf = run_ghost(sim::ExecMode::kFibers, &fib, pb, mp);
    auto t0 = std::chrono::steady_clock::now();
    const RunResult rd = run_ghost(sim::ExecMode::kFolded, &fold, pb, mp);
    const double wall = elapsed(t0);
    const bool identical = cost_equal(rf, rd);
    if (!identical) {
      std::fprintf(stderr, "[frontier] ANCHOR MISMATCH: %s\n", name.c_str());
      ok = false;
    }
    record("anchor " + name, rd, fold, wall, false, identical);
  };

  // Frontier point: folded-only; must actually fold.
  auto frontier = [&](const std::string& name, const algs::Problem& pb) {
    Observed seen;
    auto t0 = std::chrono::steady_clock::now();
    const RunResult r = run_ghost(sim::ExecMode::kFolded, &seen, pb, mp);
    const double wall = elapsed(t0);
    if (!seen.fold_active) {
      std::fprintf(stderr, "[frontier] FELL BACK TO FIBERS: %s\n",
                   name.c_str());
      ok = false;
    }
    record(name, r, seen, wall, true, true);
  };

  // ---- Parity anchors (small p, both modes run) ----------------------
  anchor("mm25d q=16", {.alg = "mm25d", .n = 1024, .q = 16, .c = 1});
  // Rotor-replay folds (rotating roots / moving panel owners).
  anchor("summa q=16", {.alg = "summa", .n = 1024, .q = 16});
  anchor("lu q=16 nb=8", {.alg = "lu", .n = 512, .q = 16, .c = 1, .nb = 8});
  anchor("mm25d q=16 c=4", {.alg = "mm25d", .n = 1024, .q = 16, .c = 4});
  // CAPS share alignment needs n = 2^k * 7^ceil(k/2) * m (all-BFS).
  anchor("caps k=3", {.alg = "caps", .n = 392, .k = 3});
  anchor("fft p=256",
         {.alg = "fft", .p = 256, .r_dim = 1024, .c_dim = 1024});
  anchor("tsqr p=256", {.alg = "tsqr", .n = 32, .p = 256, .nb = 4});
  anchor("nbody p=256 c=4", {.alg = "nbody", .n = 4096, .c = 4, .p = 256});

  // ---- Fig. 3 frontier points (folded-only) --------------------------
  // 2.5D matmul, c=1 (2D Cannon): p = q^2 ranks in 4 fold classes.
  frontier("mm25d n=65536 q=1024",
           {.alg = "mm25d", .n = 65536, .q = 1024, .c = 1});
  frontier("mm25d n=65536 q=4096",
           {.alg = "mm25d", .n = 65536, .q = 4096, .c = 1});
  // CAPS Strassen, all-BFS: all 7^k ranks are one class — one fiber.
  frontier("caps n=614656 k=8", {.alg = "caps", .n = 614656, .k = 8});
  // FFT: p bounded by n = R*C fitting an int (R = C = 2^15).
  frontier("fft n=2^30 p=32768",
           {.alg = "fft", .p = 32768, .r_dim = 32768, .c_dim = 32768});
  // SUMMA and LU rotate the bcast root / panel owner every step, so no
  // static class partition exists: these replay a rotor schedule over a
  // per-rank counter array (sim/fold_rotor.hpp) — one sweep, p = q^2
  // million-rank points in single-digit seconds.
  frontier("summa n=8192 q=1024", {.alg = "summa", .n = 8192, .q = 1024});
  frontier("lu n=8192 nb=8 q=1024",
           {.alg = "lu", .n = 8192, .q = 1024, .c = 1, .nb = 8});
  // 2.5D with real replication (c > 1): rotor-folded skew/shift/depth.
  frontier("mm25d n=4096 q=512 c=4",
           {.alg = "mm25d", .n = 4096, .q = 512, .c = 4});
  // TSQR binomial tree: ~log2(p)+1 scatter classes.
  frontier("tsqr p=2^20", {.alg = "tsqr", .n = 32, .p = 1 << 20, .nb = 4});
  // Replicating n-body: c row classes.
  frontier("nbody p=2^20 c=4",
           {.alg = "nbody", .n = 1 << 20, .c = 4, .p = 1 << 20});
  if (deep) {
    frontier("mm25d n=65536 q=8192",
             {.alg = "mm25d", .n = 65536, .q = 8192, .c = 1});
    frontier("caps n=8605184 k=9", {.alg = "caps", .n = 8605184, .k = 9});
  }

  t.print(std::cout);
  std::cout << "\n'fold x' is ranks per executed fiber (p/slots). Frontier "
               "rows at p >= 10^6 correspond to the Fig. 3 model-scale "
               "regime; see EXPERIMENTS.md \"Folded execution\".\n";

  const std::string json_path = cli.get("json");
  if (!json_path.empty()) {
    json::Value doc = json::Value::object();
    doc.set("bench", "frontier");
    doc.set("results", std::move(results));
    std::ofstream out(json_path);
    ALGE_REQUIRE(out.good(), "cannot write %s", json_path.c_str());
    out << doc.dump() << "\n";
    std::fprintf(stderr, "[frontier] wrote %s\n", json_path.c_str());
  }
  return ok ? 0 : 1;
}
