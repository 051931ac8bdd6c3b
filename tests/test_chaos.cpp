// The chaos subsystem: scripted fault accounting in Comm, ReadySet::select,
// plan-injector determinism, schedule/fault differential invariants, and
// the engine's chaos axes (spec round-trip, cache-key stability, execute
// wiring).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "chaos/differential.hpp"
#include "chaos/fault_plan.hpp"
#include "chaos/schedule.hpp"
#include "engine/job.hpp"
#include "engine/runner.hpp"
#include "fiber/ready_set.hpp"
#include "sim/comm.hpp"
#include "sim/machine.hpp"
#include "support/common.hpp"

namespace alge {
namespace {

// ------------------------------------------------------ ReadySet::select

TEST(ReadySetSelect, ReturnsKthSmallestAcrossWords) {
  fiber::ReadySet rs;
  rs.resize(300);
  const std::vector<std::size_t> ids = {3, 64, 65, 100, 190, 256};
  for (std::size_t id : ids) rs.insert(id);
  ASSERT_EQ(rs.size(), ids.size());
  for (std::size_t k = 0; k < ids.size(); ++k) {
    EXPECT_EQ(rs.select(k), static_cast<std::ptrdiff_t>(ids[k])) << k;
  }
  EXPECT_EQ(rs.select(ids.size()), -1);
  rs.erase(64);
  EXPECT_EQ(rs.select(1), 65);
  rs.erase(3);
  EXPECT_EQ(rs.select(0), 65);
}

// ------------------------------------------- scripted fault accounting

/// Fixed per-send decisions (in program order), for exact-cost assertions.
class ScriptedInjector final : public sim::FaultInjector {
 public:
  std::vector<sim::FaultDecision> script;
  double pause_len = 0.0;
  int pause_rank = -1;

  sim::FaultDecision on_message(const sim::FaultSite&) override {
    sim::FaultDecision d;
    if (calls_ < script.size()) d = script[calls_];
    ++calls_;
    return d;
  }
  double pause_before_event(int rank, std::uint64_t k) override {
    return (rank == pause_rank && k == 0) ? pause_len : 0.0;
  }

 private:
  std::size_t calls_ = 0;
};

struct FaultFixture {
  sim::MachineConfig cfg;
  std::shared_ptr<ScriptedInjector> injector;

  explicit FaultFixture(int p = 2) {
    cfg.p = p;
    cfg.params = core::MachineParams::unit();
    injector = std::make_shared<ScriptedInjector>();
    cfg.faults = injector;
  }
};

/// rank 0 sends 10 words to rank 1; unit params make the fault-free send
/// cost exactly alpha*1 + beta*10 = 11 virtual seconds.
void one_message(sim::Machine& m, std::vector<double>* got) {
  got->assign(10, 0.0);
  m.run([&](sim::Comm& c) {
    if (c.rank() == 0) {
      std::vector<double> data(10, 3.5);
      c.send(1, data);
    } else {
      c.recv(0, *got);
    }
  });
}

TEST(FaultAccounting, DelayShiftsArrivalOnly) {
  FaultFixture fx;
  sim::FaultDecision d;
  d.delay = 5.0;
  fx.injector->script = {d};
  sim::Machine m(fx.cfg);
  std::vector<double> got;
  one_message(m, &got);
  // Sender pays nothing extra; the receiver idles until arrival.
  EXPECT_DOUBLE_EQ(m.rank_counters(0).clock, 11.0);
  EXPECT_DOUBLE_EQ(m.rank_counters(0).words_sent, 10.0);
  EXPECT_DOUBLE_EQ(m.rank_counters(1).clock, 16.0);
  EXPECT_EQ(got, std::vector<double>(10, 3.5));
}

TEST(FaultAccounting, DropPaysRetransmissionAndTimeout) {
  FaultFixture fx;
  sim::FaultDecision d;
  d.drops = 1;
  fx.injector->script = {d};
  sim::Machine m(fx.cfg);
  std::vector<double> got;
  one_message(m, &got);
  // One loss: the message moves twice (2x words/msgs/link time) and the
  // sender idles one transport timeout (4*alpha_t = 4).
  EXPECT_DOUBLE_EQ(m.rank_counters(0).words_sent, 20.0);
  EXPECT_DOUBLE_EQ(m.rank_counters(0).msgs_sent, 2.0);
  EXPECT_DOUBLE_EQ(m.rank_counters(0).clock, 2.0 * 11.0 + 4.0);
  EXPECT_DOUBLE_EQ(m.rank_counters(0).idle_time, 4.0);
  EXPECT_DOUBLE_EQ(m.rank_counters(1).clock, 26.0);
  EXPECT_EQ(got, std::vector<double>(10, 3.5));
}

TEST(FaultAccounting, RepeatedDropsBackOffExponentially) {
  FaultFixture fx;
  sim::FaultDecision d;
  d.drops = 2;
  fx.injector->script = {d};
  sim::Machine m(fx.cfg);
  std::vector<double> got;
  one_message(m, &got);
  // Two losses: 3 transmissions, waits 4 then 4*backoff(2.0) = 8.
  EXPECT_DOUBLE_EQ(m.rank_counters(0).words_sent, 30.0);
  EXPECT_DOUBLE_EQ(m.rank_counters(0).msgs_sent, 3.0);
  EXPECT_DOUBLE_EQ(m.rank_counters(0).clock, 3.0 * 11.0 + 4.0 + 8.0);
  EXPECT_DOUBLE_EQ(m.rank_counters(0).idle_time, 12.0);
}

TEST(FaultAccounting, DuplicateIsPaidButDeduped) {
  FaultFixture fx;
  sim::FaultDecision d;
  d.duplicates = 1;
  fx.injector->script = {d};
  sim::Machine m(fx.cfg);
  std::vector<double> got;
  one_message(m, &got);
  EXPECT_DOUBLE_EQ(m.rank_counters(0).words_sent, 20.0);
  EXPECT_DOUBLE_EQ(m.rank_counters(0).msgs_sent, 2.0);
  EXPECT_DOUBLE_EQ(m.rank_counters(0).clock, 22.0);
  EXPECT_DOUBLE_EQ(m.rank_counters(0).idle_time, 0.0);  // no timeout
  EXPECT_EQ(got, std::vector<double>(10, 3.5));          // exactly once
}

TEST(FaultAccounting, ExcessDropsExhaustRetriesAndAbort) {
  FaultFixture fx;
  fx.cfg.retry.max_retries = 2;
  sim::FaultDecision d;
  d.drops = 3;
  fx.injector->script = {d};
  sim::Machine m(fx.cfg);
  std::vector<double> got;
  EXPECT_THROW(one_message(m, &got), sim::SimError);
}

TEST(FaultAccounting, PauseStallsTheRankBeforeItsCommEvent) {
  FaultFixture fx;
  fx.injector->pause_rank = 0;
  fx.injector->pause_len = 7.0;
  sim::Machine m(fx.cfg);
  std::vector<double> got;
  one_message(m, &got);
  EXPECT_DOUBLE_EQ(m.rank_counters(0).clock, 7.0 + 11.0);
  EXPECT_DOUBLE_EQ(m.rank_counters(0).idle_time, 7.0);
  EXPECT_DOUBLE_EQ(m.rank_counters(1).clock, 18.0);
}

TEST(FaultAccounting, OvertakeSwapsArrivalsButPreservesPayloadOrder) {
  FaultFixture fx;
  sim::FaultDecision none;
  sim::FaultDecision take;
  take.overtake = true;
  take.reorder_window = 3.0;
  fx.injector->script = {none, take};
  sim::Machine m(fx.cfg);
  std::vector<double> first(10), second(10);
  m.run([&](sim::Comm& c) {
    if (c.rank() == 0) {
      // Round-robin runs rank 0 first, so both sends queue at rank 1.
      c.send(1, std::vector<double>(10, 1.0));
      c.send(1, std::vector<double>(10, 2.0));
    } else {
      c.recv(0, first);
      c.recv(0, second);
    }
  });
  // The transport resequences: payload order is FIFO regardless.
  EXPECT_EQ(first, std::vector<double>(10, 1.0));
  EXPECT_EQ(second, std::vector<double>(10, 2.0));
  // First message was delayed to the overtaker's arrival (22): the
  // receiver synchronizes there, and no extra traffic was charged.
  EXPECT_DOUBLE_EQ(m.rank_counters(1).clock, 22.0);
  EXPECT_DOUBLE_EQ(m.rank_counters(0).words_sent, 20.0);
  EXPECT_DOUBLE_EQ(m.rank_counters(0).msgs_sent, 2.0);
}

TEST(FaultAccounting, OvertakeWithNothingQueuedDegradesToWindowDelay) {
  FaultFixture fx;
  sim::FaultDecision take;
  take.overtake = true;
  take.reorder_window = 3.0;
  fx.injector->script = {take};
  sim::Machine m(fx.cfg);
  std::vector<double> got;
  one_message(m, &got);
  EXPECT_DOUBLE_EQ(m.rank_counters(0).clock, 11.0);
  EXPECT_DOUBLE_EQ(m.rank_counters(1).clock, 14.0);
}

TEST(FaultAccounting, InjectedFaultsAppearInTheTrace) {
  FaultFixture fx;
  fx.cfg.enable_trace = true;
  sim::FaultDecision d;
  d.drops = 1;
  fx.injector->script = {d};
  sim::Machine m(fx.cfg);
  std::vector<double> got;
  one_message(m, &got);
  bool saw_drop = false;
  for (const sim::TraceEvent& ev : m.trace().events()) {
    if (ev.kind == sim::TraceEvent::Kind::kFault) {
      EXPECT_STREQ(ev.label, "drop");
      EXPECT_EQ(ev.rank, 0);
      EXPECT_EQ(ev.peer, 1);
      saw_drop = true;
    }
  }
  EXPECT_TRUE(saw_drop);
}

// ------------------------------------------------ plan-injector hashing

bool same_decision(const sim::FaultDecision& a, const sim::FaultDecision& b) {
  return a.delay == b.delay && a.drops == b.drops &&
         a.duplicates == b.duplicates && a.overtake == b.overtake &&
         a.reorder_window == b.reorder_window;
}

chaos::FaultPlanConfig busy_plan() {
  chaos::FaultPlanConfig cfg;
  cfg.name = "test-busy";
  cfg.p_delay = 0.4;
  cfg.p_drop = 0.3;
  cfg.p_duplicate = 0.3;
  cfg.p_reorder = 0.4;
  cfg.p_pause = 0.2;
  return cfg;
}

TEST(PlanInjector, DecisionsAreAPureFunctionOfSeedAndSite) {
  chaos::PlanInjector a(busy_plan(), 42, 1.0);
  chaos::PlanInjector b(busy_plan(), 42, 1.0);
  const sim::FaultSite f1{0, 1, 0, 10.0};
  const sim::FaultSite f2{2, 3, 5, 10.0};
  // Interleave the two flows differently in each injector: the n-th
  // message of a flow must still get the same decision (this is the
  // schedule-independence the differential harness relies on).
  std::vector<sim::FaultDecision> da(5), db(5);
  da[0] = a.on_message(f1);  // f1 #0
  da[1] = a.on_message(f1);  // f1 #1
  da[3] = a.on_message(f2);  // f2 #0
  da[2] = a.on_message(f1);  // f1 #2
  da[4] = a.on_message(f2);  // f2 #1
  db[3] = b.on_message(f2);  // f2 #0
  db[0] = b.on_message(f1);  // f1 #0
  db[4] = b.on_message(f2);  // f2 #1
  db[1] = b.on_message(f1);  // f1 #1
  db[2] = b.on_message(f1);  // f1 #2
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(same_decision(da[i], db[i])) << "site " << i;
  }
  EXPECT_EQ(a.stats().total(), b.stats().total());
  for (std::uint64_t k = 0; k < 16; ++k) {
    EXPECT_EQ(a.pause_before_event(1, k), b.pause_before_event(1, k));
  }
}

TEST(PlanInjector, DifferentSeedsProduceDifferentFaultStreams) {
  chaos::PlanInjector a(busy_plan(), 1, 1.0);
  chaos::PlanInjector b(busy_plan(), 2, 1.0);
  const sim::FaultSite f{0, 1, 0, 10.0};
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (!same_decision(a.on_message(f), b.on_message(f))) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultPlan, BundledNamesResolveAndUnknownThrows) {
  EXPECT_TRUE(chaos::FaultPlan{}.inert());
  EXPECT_TRUE(chaos::FaultPlan::bundled("none").inert());
  for (const std::string& name : chaos::FaultPlan::bundled_names()) {
    const chaos::FaultPlan plan = chaos::FaultPlan::bundled(name);
    EXPECT_EQ(plan.name(), name);
    EXPECT_EQ(plan.inert(), name == "none") << name;
  }
  EXPECT_THROW(chaos::FaultPlan::bundled("byzantine"),
               invalid_argument_error);
}

// ------------------------------------------------ differential contract

TEST(Differential, ScheduleRunsAreBitIdentical) {
  chaos::CaseSpec spec;
  spec.alg = "summa";
  spec.p = 4;
  const chaos::RunSignature base = chaos::run_case(spec, {});
  for (std::uint64_t seed : {1ull, 2ull, 97ull}) {
    chaos::ChaosConfig cc;
    cc.schedule_seed = seed;
    const chaos::RunSignature run = chaos::run_case(spec, cc);
    EXPECT_TRUE(run.identical_to(base)) << "seed " << seed;
  }
}

TEST(Differential, FaultedRunsConvergeWithIdenticalResults) {
  chaos::CaseSpec spec;
  spec.alg = "mm25d";
  spec.p = 8;
  const chaos::RunSignature base = chaos::run_case(spec, {});
  chaos::ChaosConfig cc;
  cc.plan = chaos::FaultPlan::bundled("mixed");
  cc.fault_seed = 3;
  const chaos::RunSignature run = chaos::run_case(spec, cc);
  EXPECT_GT(run.faults.total(), 0u);
  ASSERT_EQ(run.ranks.size(), base.ranks.size());
  for (std::size_t r = 0; r < base.ranks.size(); ++r) {
    // The algorithm's work and numerical output are untouched by the
    // transport's recovery; only time/traffic may grow.
    EXPECT_EQ(run.ranks[r].flops, base.ranks[r].flops) << r;
    EXPECT_GE(run.ranks[r].words_sent, base.ranks[r].words_sent) << r;
  }
  EXPECT_EQ(run.max_abs_error, base.max_abs_error);
  EXPECT_GE(run.makespan, base.makespan * (1.0 - 1e-12));
}

TEST(Differential, FoldedExecutionMatchesFibersAcrossPlans) {
  // Fiber-ghost vs folded-ghost across every algorithm, fault-free and
  // under a fault plan (which forces the transparent fallback to fibers):
  // cost signatures must be bit-identical either way. The fast subset of
  // the tools/chaos_explore --fold=true CI gate; tests/test_fold.cpp runs
  // the wider sweep.
  chaos::FoldDiffOptions opts;
  opts.ps = {4, 9};
  opts.seeds = 1;
  opts.plans = {"drop"};
  const chaos::FoldDiffReport rep = chaos::fold_explore(opts);
  EXPECT_TRUE(rep.ok()) << rep.summary;
  EXPECT_GT(rep.folded_pairs, 0) << "nothing actually folded";
}

// ------------------------------------------------------ engine wiring

TEST(EngineChaos, SpecRoundTripsAndDefaultsKeepCacheKeys) {
  engine::ExperimentSpec spec;
  spec.alg = engine::Alg::kTsqr;
  spec.n = 8;
  spec.nb = 4;
  spec.p = 4;
  spec.verify = true;
  // Default-inert chaos fields must not appear in the canonical key, so
  // pre-chaos cached results stay addressable.
  const std::string key = spec.canonical_json();
  EXPECT_EQ(key.find("chaos_seed"), std::string::npos) << key;
  EXPECT_EQ(key.find("fault_plan"), std::string::npos) << key;

  engine::ExperimentSpec chaotic = spec;
  chaotic.chaos_seed = 7;
  chaotic.fault_plan = "mixed";
  const engine::ExperimentSpec round =
      engine::ExperimentSpec::from_json(chaotic.to_json());
  EXPECT_EQ(round.chaos_seed, 7u);
  EXPECT_EQ(round.fault_plan, "mixed");
  EXPECT_TRUE(round == chaotic);
  EXPECT_NE(chaotic.canonical_json(), key);
}

TEST(EngineChaos, ExecuteHonorsChaosAxes) {
  engine::ExperimentSpec spec;
  spec.alg = engine::Alg::kTsqr;
  spec.n = 8;
  spec.nb = 4;
  spec.p = 4;
  spec.verify = true;
  const engine::ExperimentResult base = engine::execute(spec);

  engine::ExperimentSpec permuted = spec;
  permuted.chaos_seed = 5;
  // A schedule permutation must not change anything observable.
  EXPECT_TRUE(engine::execute(permuted) == base);

  engine::ExperimentSpec faulted = spec;
  faulted.fault_plan = "delay";
  const engine::ExperimentResult slow = engine::execute(faulted);
  // Delays move no extra traffic; they can only stretch the makespan.
  EXPECT_EQ(slow.totals.words_total, base.totals.words_total);
  EXPECT_EQ(slow.totals.msgs_total, base.totals.msgs_total);
  EXPECT_EQ(slow.totals.flops_total, base.totals.flops_total);
  EXPECT_GE(slow.makespan, base.makespan * (1.0 - 1e-12));
  EXPECT_EQ(slow.max_abs_error, base.max_abs_error);
}

}  // namespace
}  // namespace alge
