#include "chaos/differential.hpp"

#include <ostream>
#include <utility>

#include "chaos/schedule.hpp"
#include "support/common.hpp"

namespace alge::chaos {

namespace {

/// Relative slack for "may only grow" clock comparisons: injected stalls
/// interleave extra additions into the clock accumulation, so the faulted
/// sum is not bit-for-bit a superset of the baseline's rounding sequence.
constexpr double kGrowSlack = 1e-12;

bool grew(double faulted, double baseline) {
  return faulted >= baseline * (1.0 - kGrowSlack);
}

/// Non-unit parameters (bench/scaling_mm_energy.cpp's tuning) so injected
/// latency, retries, and stalls are visible in time and every Eq. (2) term.
core::MachineParams tuned_params() {
  core::MachineParams mp;
  mp.gamma_t = 1.0;
  mp.beta_t = 2.0;
  mp.alpha_t = 10.0;
  mp.gamma_e = 1.0;
  mp.beta_e = 4.0;
  mp.alpha_e = 20.0;
  mp.delta_e = 1e-4;
  mp.eps_e = 1e-2;
  mp.max_msg_words = 64.0;
  return mp;
}

/// The rank count `alg` actually runs on for size class `p`.
int effective_p(const std::string& alg, int p) {
  const algs::Entry& e = algs::find(alg);
  return e.make(e.preset(p)).p;
}

}  // namespace

bool RunSignature::identical_to(const RunSignature& o) const {
  return ranks == o.ranks && totals == o.totals && makespan == o.makespan &&
         energy == o.energy && max_abs_error == o.max_abs_error;
}

bool RunSignature::cost_identical_to(const RunSignature& o) const {
  return ranks == o.ranks && totals == o.totals && makespan == o.makespan &&
         energy == o.energy && faults == o.faults;
}

RunSignature run_case(const CaseSpec& spec, const ChaosConfig& chaos) {
  const algs::Entry& entry = algs::find(spec.alg);
  algs::Problem pb = entry.preset(spec.p);
  pb.seed = spec.problem_seed;
  sim::MachineConfig cfg;
  cfg.params = spec.params;
  cfg.data_mode = chaos.data_mode;
  cfg.exec_mode = chaos.exec_mode;
  if (chaos.schedule_seed != 0) {
    cfg.wake_policy = std::make_shared<SchedulePermuter>(chaos.schedule_seed);
  }
  std::shared_ptr<PlanInjector> injector;
  if (!chaos.plan.inert()) {
    injector = chaos.plan.make_injector(chaos.fault_seed, cfg.params.alpha_t);
    cfg.faults = injector;
  }
  RunSignature sig;
  // Ghost runs have no output, so verification only makes sense in full
  // mode (algs::run rejects the combination outright).
  const algs::RunResult res = algs::run(
      pb, std::move(cfg), /*verify=*/chaos.data_mode == sim::DataMode::kFull,
      [&sig](const sim::Machine& m) {
        sig.fold_active = m.fold_active();
        sig.ranks.reserve(static_cast<std::size_t>(m.p()));
        for (int r = 0; r < m.p(); ++r) sig.ranks.push_back(m.rank_counters(r));
      });
  sig.totals = res.totals;
  sig.makespan = res.makespan;
  sig.energy = res.energy.breakdown;
  sig.max_abs_error = res.max_abs_error;
  if (injector) sig.faults = injector->stats();
  return sig;
}

namespace {

/// Name the first field that differs between two signatures (diagnostics).
/// `cost_only` compares what cost_identical_to does: memory high-water and
/// injected faults, but not max_abs_error (ghost runs have no output).
std::string first_difference(const RunSignature& a, const RunSignature& b,
                             bool cost_only) {
  if (a.ranks.size() != b.ranks.size()) return "rank count";
  for (std::size_t r = 0; r < a.ranks.size(); ++r) {
    const sim::RankCounters& x = a.ranks[r];
    const sim::RankCounters& y = b.ranks[r];
    if (x == y) continue;
    if (x.flops != y.flops) return strfmt("rank %zu flops", r);
    if (x.words_sent != y.words_sent) return strfmt("rank %zu words", r);
    if (x.msgs_sent != y.msgs_sent) return strfmt("rank %zu msgs", r);
    if (x.clock != y.clock) return strfmt("rank %zu clock", r);
    if (x.idle_time != y.idle_time) return strfmt("rank %zu idle", r);
    if (cost_only && x.mem_highwater != y.mem_highwater) {
      return strfmt("rank %zu memory high-water", r);
    }
    return strfmt("rank %zu counters", r);
  }
  if (!(a.totals == b.totals)) return "totals";
  if (a.makespan != b.makespan) return "makespan";
  if (!(a.energy == b.energy)) return "energy";
  if (!cost_only && a.max_abs_error != b.max_abs_error) {
    return "max_abs_error";
  }
  if (cost_only && !(a.faults == b.faults)) return "injected faults";
  return "(none)";
}

/// Invariants a faulted run must satisfy vs the fault-free baseline.
/// Returns an empty string when all hold.
std::string check_faulted(const RunSignature& base, const RunSignature& sig,
                          const FaultPlan& plan) {
  if (sig.ranks.size() != base.ranks.size()) return "rank count changed";
  // The transport hides faults from the algorithm: identical work and
  // identical numerics, bit for bit.
  for (std::size_t r = 0; r < sig.ranks.size(); ++r) {
    if (sig.ranks[r].flops != base.ranks[r].flops) {
      return strfmt("rank %zu flops changed", r);
    }
    if (sig.ranks[r].mem_highwater != base.ranks[r].mem_highwater) {
      return strfmt("rank %zu memory high-water changed", r);
    }
  }
  if (sig.max_abs_error != base.max_abs_error) {
    return "numerical result changed";
  }
  // Faults only ever add cost.
  for (std::size_t r = 0; r < sig.ranks.size(); ++r) {
    if (sig.ranks[r].words_sent < base.ranks[r].words_sent ||
        sig.ranks[r].msgs_sent < base.ranks[r].msgs_sent) {
      return strfmt("rank %zu traffic shrank", r);
    }
    if (!grew(sig.ranks[r].clock, base.ranks[r].clock)) {
      return strfmt("rank %zu clock shrank", r);
    }
  }
  if (!grew(sig.makespan, base.makespan)) return "makespan shrank";
  // Plans that never retransmit (delay/reorder/pause) shift time only:
  // W, S — and therefore the traffic terms of Eq. (2) — are *exactly* the
  // baseline's.
  const FaultPlanConfig& c = plan.config();
  if (c.p_drop <= 0.0 && c.p_duplicate <= 0.0) {
    for (std::size_t r = 0; r < sig.ranks.size(); ++r) {
      const sim::RankCounters& x = sig.ranks[r];
      const sim::RankCounters& y = base.ranks[r];
      if (x.words_sent != y.words_sent || x.msgs_sent != y.msgs_sent ||
          x.words_recv != y.words_recv || x.msgs_recv != y.msgs_recv ||
          x.words_hops != y.words_hops || x.msgs_hops != y.msgs_hops) {
        return strfmt("rank %zu traffic changed under a time-only plan", r);
      }
    }
    if (sig.energy.flops != base.energy.flops ||
        sig.energy.words != base.energy.words ||
        sig.energy.messages != base.energy.messages) {
      return "traffic energy changed under a time-only plan";
    }
  }
  return {};
}

/// Mismatch and failure counts of one sweep, with its FAIL-line printer.
struct Tally {
  std::ostream* out = nullptr;
  int mismatches = 0;
  int failures = 0;

  /// Runs `check`, which returns the violated invariant ("" when all hold),
  /// and reports a violation — or an exception, after `threw` — as one
  /// FAIL line about `what`. Returns whether the run passed.
  template <typename Check>
  bool probe(const std::string& what, const char* threw, Check check) {
    try {
      const std::string err = check();
      if (err.empty()) return true;
      ++mismatches;
      if (out != nullptr) *out << "FAIL " << what << ": " << err << "\n";
    } catch (const std::exception& e) {
      ++failures;
      if (out != nullptr) {
        *out << "FAIL " << what << ": " << threw << e.what() << "\n";
      }
    }
    return false;
  }
};

/// One fault-free pairing, then every bundled plan × seed.
struct Pairing {
  std::string label;
  ChaosConfig cc;
};

std::vector<Pairing> pairings(const std::vector<std::string>& plans,
                              int seeds) {
  std::vector<Pairing> out{{"fault-free", ChaosConfig{}}};
  for (const std::string& plan_name : plans) {
    if (plan_name == "none") continue;  // that *is* the baseline
    const FaultPlan plan = FaultPlan::bundled(plan_name);
    for (int s = 1; s <= seeds; ++s) {
      ChaosConfig cc;
      cc.plan = plan;
      cc.fault_seed = static_cast<std::uint64_t>(s);
      out.push_back({strfmt("plan=%s seed=%d", plan_name.c_str(), s), cc});
    }
  }
  return out;
}

}  // namespace

DiffReport explore(const DiffOptions& opts) {
  ALGE_REQUIRE(opts.seeds >= 1, "need at least one seed");
  DiffReport rep;
  Tally tally{opts.out};
  for (const std::string& alg : opts.algs) {
    for (int p : opts.ps) {
      ++rep.cases;
      const CaseSpec spec{alg, p, opts.problem_seed, tuned_params()};
      const std::string where = strfmt("%s p=%d", alg.c_str(), p);

      RunSignature base;
      if (!tally.probe(where, "baseline threw: ", [&] {
            base = run_case(spec, ChaosConfig{});
            return std::string();
          })) {
        continue;
      }

      // (b) Schedule permutation: dataflow determinism demands full bit
      // identity — F, W, S, clocks, energy, numerics.
      int sched_bad = 0;
      for (int s = 1; s <= opts.seeds; ++s) {
        ++rep.schedule_runs;
        ChaosConfig cc;
        cc.schedule_seed = static_cast<std::uint64_t>(s);
        const bool ok = tally.probe(
            strfmt("%s schedule seed %d", where.c_str(), s), "threw: ", [&] {
              const RunSignature sig = run_case(spec, cc);
              return sig.identical_to(base)
                         ? std::string()
                         : "differs from round-robin baseline at " +
                               first_difference(base, sig, false);
            });
        sched_bad += ok ? 0 : 1;
      }

      // (a) Fault plans: convergence plus graceful, monotone degradation.
      int fault_bad = 0;
      int case_fault_runs = 0;
      std::uint64_t injected = 0;
      for (const Pairing& run : pairings(opts.plans, opts.seeds)) {
        if (run.cc.plan.inert()) continue;  // the baseline above
        ++rep.fault_runs;
        ++case_fault_runs;
        const bool ok = tally.probe(
            strfmt("%s plan=%s seed %llu", where.c_str(),
                   run.cc.plan.name().c_str(),
                   static_cast<unsigned long long>(run.cc.fault_seed)),
            "did not converge: ", [&] {
              const RunSignature sig = run_case(spec, run.cc);
              injected += sig.faults.total();
              return check_faulted(base, sig, run.cc.plan);
            });
        fault_bad += ok ? 0 : 1;
      }

      if (opts.out != nullptr && opts.verbose) {
        *opts.out << strfmt(
            "%-6s p=%d (runs on %d ranks): %d/%d schedules bit-identical, "
            "%d/%d fault runs converged (%llu faults injected)\n",
            alg.c_str(), p, effective_p(alg, p), opts.seeds - sched_bad,
            opts.seeds, case_fault_runs - fault_bad, case_fault_runs,
            static_cast<unsigned long long>(injected));
      }
    }
  }
  rep.mismatches = tally.mismatches;
  rep.failures = tally.failures;
  rep.summary = strfmt(
      "%d cases: %d schedule runs, %d fault runs; %d mismatches, %d "
      "failures -> %s",
      rep.cases, rep.schedule_runs, rep.fault_runs, rep.mismatches,
      rep.failures, rep.ok() ? "OK" : "FAIL");
  if (opts.out != nullptr) *opts.out << rep.summary << "\n";
  return rep;
}

namespace {

/// The data and execution modes one side of a pairing runs in.
struct Mode {
  sim::DataMode data;
  sim::ExecMode exec;
};

/// The pairing loop behind ghost_explore and fold_explore: for every
/// (alg, p), one fault-free pairing, then every plan × seed, each run in
/// mode `first` and then `second`; the cost signatures must be
/// bit-identical. `pair` names the two modes in reports ("full/ghost"),
/// `side` the second one ("ghost"); `fold` adds whether it actually folded.
FoldDiffReport explore_pairs(const ExploreOptions& opts, Mode first,
                             Mode second, const char* pair, const char* side,
                             bool fold) {
  ALGE_REQUIRE(opts.seeds >= 1, "need at least one seed");
  FoldDiffReport rep;
  Tally tally{opts.out};
  for (const std::string& alg : opts.algs) {
    for (int p : opts.ps) {
      ++rep.cases;
      const CaseSpec spec{alg, p, opts.problem_seed, tuned_params()};
      const std::vector<Pairing> runs = pairings(opts.plans, opts.seeds);
      int case_bad = 0;
      int case_folded = 0;
      for (const Pairing& run : runs) {
        ++rep.pairs;
        const bool ok = tally.probe(
            strfmt("%s p=%d %s", alg.c_str(), p, run.label.c_str()),
            "threw: ", [&] {
              ChaosConfig cc = run.cc;
              cc.data_mode = first.data;
              cc.exec_mode = first.exec;
              const RunSignature a = run_case(spec, cc);
              cc.data_mode = second.data;
              cc.exec_mode = second.exec;
              const RunSignature b = run_case(spec, cc);
              rep.folded_pairs += b.fold_active ? 1 : 0;
              case_folded += b.fold_active ? 1 : 0;
              if (b.cost_identical_to(a)) return std::string();
              return strfmt("%s cost signature differs at %s%s", side,
                            first_difference(a, b, true).c_str(),
                            !fold           ? ""
                            : b.fold_active ? " (fold active)"
                                            : " (fold fell back)");
            });
        case_bad += ok ? 0 : 1;
      }
      if (opts.out != nullptr && opts.verbose) {
        *opts.out << strfmt(
            "%-6s p=%d (runs on %d ranks): %zu/%zu %s pairs "
            "bit-identical%s\n",
            alg.c_str(), p, effective_p(alg, p),
            runs.size() - static_cast<std::size_t>(case_bad), runs.size(),
            pair, fold ? strfmt(", %d folded", case_folded).c_str() : "");
      }
    }
  }
  rep.mismatches = tally.mismatches;
  rep.failures = tally.failures;
  return rep;
}

}  // namespace

GhostDiffReport ghost_explore(const ExploreOptions& opts) {
  GhostDiffReport rep = explore_pairs(
      opts, {sim::DataMode::kFull, sim::ExecMode::kFibers},
      {sim::DataMode::kGhost, sim::ExecMode::kFibers}, "full/ghost", "ghost",
      false);
  rep.summary = strfmt(
      "%d cases: %d full/ghost pairs; %d mismatches, %d failures -> %s",
      rep.cases, rep.pairs, rep.mismatches, rep.failures,
      rep.ok() ? "OK" : "FAIL");
  if (opts.out != nullptr) *opts.out << rep.summary << "\n";
  return rep;
}

FoldDiffReport fold_explore(const ExploreOptions& opts) {
  // Faulted pairings force the per-fiber fallback on the folded side,
  // which must still match bit for bit.
  FoldDiffReport rep = explore_pairs(
      opts, {sim::DataMode::kGhost, sim::ExecMode::kFibers},
      {sim::DataMode::kGhost, sim::ExecMode::kFolded}, "fiber/folded",
      "folded", true);
  rep.summary = strfmt(
      "%d cases: %d fiber/folded pairs (%d actually folded); %d "
      "mismatches, %d failures -> %s",
      rep.cases, rep.pairs, rep.folded_pairs, rep.mismatches, rep.failures,
      rep.ok() ? "OK" : "FAIL");
  if (opts.out != nullptr) *opts.out << rep.summary << "\n";
  return rep;
}

}  // namespace alge::chaos
