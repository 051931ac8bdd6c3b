// Symmetry-folded execution (sim/fold.hpp, ExecMode::kFolded): one fiber
// per fold-equivalence class, per-class cost replay on the virtual clock,
// bit-identical cost signatures to per-fiber execution. These tests pin
//
//   - the FoldMap structural contract (validate(), trivial maps),
//   - the per-algorithm builders in algs/foldmaps.hpp,
//   - fold <-> fiber cost parity across all algorithms, sizes, and fault
//     plans (faults force the transparent fallback, which must still
//     match) via chaos::fold_explore — the same gate CI runs through
//     tools/chaos_explore --fold=true,
//   - the *congruence property* behind every fold map: members of a class
//     never differ in their (kind, tag, size) event schedules, checked
//     against per-fiber execution traces rather than trusted,
//   - the engine spec axis: exec_mode=folded serializes canonically,
//     defaults stay unserialized (cache keys unchanged), folded results
//     equal fiber results bit for bit, and folded + full data is rejected.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "algs/foldmaps.hpp"
#include "algs/registry.hpp"
#include "chaos/differential.hpp"
#include "chaos/fault_plan.hpp"
#include "engine/job.hpp"
#include "engine/runner.hpp"
#include "sim/comm.hpp"
#include "sim/fold.hpp"
#include "sim/fold_rotor.hpp"
#include "sim/group.hpp"
#include "sim/machine.hpp"
#include "sim/trace.hpp"
#include "support/common.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace alge {
namespace {

// ------------------------------------------------------ FoldMap contract

TEST(FoldMap, ValidateAcceptsAConsistentPartition) {
  // Even/odd ranks of p=6: reps 0 and 1, sizes 3 and 3.
  sim::FoldMap map(6, {{0, 3, false}, {1, 3, false}},
                   [](int r) { return r % 2; });
  EXPECT_EQ(map.num_classes(), 2);
  EXPECT_FALSE(map.trivial());
  EXPECT_NO_THROW(map.validate());
}

TEST(FoldMap, ValidateRejectsOutOfRangeClassIds) {
  sim::FoldMap map(4, {{0, 4, false}}, [](int r) { return r == 3 ? 1 : 0; });
  EXPECT_THROW(map.validate(), invalid_argument_error);
}

TEST(FoldMap, ValidateRejectsWrongSizes) {
  sim::FoldMap map(4, {{0, 3, false}, {3, 1, false}},
                   [](int r) { return r % 2; });
  EXPECT_THROW(map.validate(), invalid_argument_error);
}

TEST(FoldMap, ValidateRejectsNonMinimalReps) {
  // Declared rep 2 is not the minimum member of its class {0, 2}.
  sim::FoldMap map(4, {{2, 2, false}, {1, 2, false}},
                   [](int r) { return r % 2; });
  EXPECT_THROW(map.validate(), invalid_argument_error);
}

TEST(FoldMap, AllSingletonsIsTrivial) {
  sim::FoldMap map(3, {{0, 1, false}, {1, 1, false}, {2, 1, false}},
                   [](int r) { return r; });
  EXPECT_TRUE(map.trivial());
  EXPECT_NO_THROW(map.validate());
}

// ------------------------------------------------------ builder shapes

TEST(FoldBuilders, Mm25dFoldsCannonIntoFourClasses) {
  const auto map = algs::foldmap_mm25d(3, 1);
  ASSERT_NE(map, nullptr);
  EXPECT_EQ(map->p(), 9);
  ASSERT_EQ(map->num_classes(), 4);
  EXPECT_NO_THROW(map->validate());
  // Origin; rest of row 0; rest of column 0; interior.
  EXPECT_EQ(map->cls(0).size, 1);
  EXPECT_EQ(map->cls(1).size, 2);
  EXPECT_EQ(map->cls(2).size, 2);
  EXPECT_EQ(map->cls(3).size, 4);
  for (int c = 0; c < 4; ++c) EXPECT_TRUE(map->cls(c).scatter) << c;
}

TEST(FoldBuilders, Mm25dRefusesReplicatedLayers) {
  // c > 1 depth-broadcasts across misaligned layers, so no *static class*
  // fold exists; the 4-argument overload below covers that case with a
  // rotor schedule instead.
  EXPECT_EQ(algs::foldmap_mm25d(4, 2), nullptr);
  EXPECT_EQ(algs::foldmap_mm25d(1, 1), nullptr);  // single rank: trivial
}

TEST(FoldBuilders, RotorMapsForRotatingSchedules) {
  // SUMMA rotates the bcast root every step, LU moves the panel owner,
  // replicated 2.5D skews per layer: all fold through a position-
  // parameterized rotor schedule (FoldMap::rotor() != nullptr) rather
  // than a static class partition.
  const auto summa = algs::foldmap_summa(64, 4);
  ASSERT_NE(summa, nullptr);
  EXPECT_EQ(summa->p(), 16);
  ASSERT_NE(summa->rotor(), nullptr);
  EXPECT_EQ(summa->rotor()->p(), 16);
  EXPECT_FALSE(summa->trivial());
  EXPECT_NO_THROW(summa->validate());
  EXPECT_EQ(algs::foldmap_summa(63, 4), nullptr);  // q must divide n
  EXPECT_EQ(algs::foldmap_summa(64, 1), nullptr);  // single rank: trivial

  const auto lu = algs::foldmap_lu(64, 8, 4, 1);
  ASSERT_NE(lu, nullptr);
  EXPECT_EQ(lu->p(), 16);
  EXPECT_NE(lu->rotor(), nullptr);
  // 2.5D LU gathers blocks point-to-point per owner; no rotor op covers
  // it. Block size must tile n.
  EXPECT_EQ(algs::foldmap_lu(64, 8, 4, 2), nullptr);
  EXPECT_EQ(algs::foldmap_lu(60, 8, 4, 1), nullptr);

  const auto mm = algs::foldmap_mm25d(4, 2, 8, false);
  ASSERT_NE(mm, nullptr);
  EXPECT_EQ(mm->p(), 32);
  EXPECT_NE(mm->rotor(), nullptr);
  // Ring replication bcasts along a pipeline, not the binomial tree the
  // rotor replays.
  EXPECT_EQ(algs::foldmap_mm25d(4, 2, 8, true), nullptr);
}

TEST(FoldBuilders, CapsAndFftAreSingleClass) {
  for (const auto& map : {algs::foldmap_caps(49), algs::foldmap_fft(16)}) {
    ASSERT_NE(map, nullptr);
    EXPECT_EQ(map->num_classes(), 1);
    EXPECT_EQ(map->cls(0).size, map->p());
    EXPECT_NO_THROW(map->validate());
  }
}

TEST(FoldBuilders, NbodyFoldsByReplicaRow) {
  const auto map = algs::foldmap_nbody(8, 2);
  ASSERT_NE(map, nullptr);
  ASSERT_EQ(map->num_classes(), 2);
  EXPECT_NO_THROW(map->validate());
  // Team roles and ring distances depend only on the row, and at every
  // schedule position all row members address the same destination row:
  // uniform, not scatter.
  EXPECT_FALSE(map->cls(0).scatter);
  EXPECT_FALSE(map->cls(1).scatter);
  EXPECT_EQ(algs::foldmap_nbody(8, 3), nullptr);  // c must divide p
}

TEST(FoldBuilders, TsqrRefinesTheBinomialSkeleton) {
  // p=8 fan-in: {0} (receives at every level), {1,3,5,7} (send at level
  // 0), {2,6} (recv then send), {4} (recv twice then send).
  const auto map = algs::foldmap_tsqr(8);
  ASSERT_NE(map, nullptr);
  EXPECT_NO_THROW(map->validate());
  ASSERT_EQ(map->num_classes(), 4);
  EXPECT_EQ(map->class_of(1), map->class_of(7));
  EXPECT_EQ(map->class_of(2), map->class_of(6));
  EXPECT_NE(map->class_of(2), map->class_of(4));
}

// ------------------------------------------- fold <-> fiber differential

// The same differential gate CI runs (tools/chaos_explore --fold=true):
// every algorithm x size class, fault-free and under every bundled plan,
// fiber-ghost vs folded-ghost, bit-identical cost signatures. Faulted
// machines transparently fall back to fibers — those pairs prove the
// fallback never perturbs the signature.
TEST(FoldDifferential, AllAlgorithmsMatchFibersBitForBit) {
  chaos::FoldDiffOptions opts;
  opts.ps = {4, 9, 16};
  opts.seeds = 2;
  const chaos::FoldDiffReport rep = chaos::fold_explore(opts);
  EXPECT_TRUE(rep.ok()) << rep.summary;
  EXPECT_GT(rep.folded_pairs, 0) << "nothing actually folded";
}

TEST(FoldDifferential, FaultedRunFallsBackAndStillMatches) {
  chaos::CaseSpec spec;
  spec.alg = "mm25d";
  spec.p = 9;
  chaos::ChaosConfig fiber_cc;
  fiber_cc.data_mode = sim::DataMode::kGhost;
  chaos::ChaosConfig folded_cc = fiber_cc;
  folded_cc.exec_mode = sim::ExecMode::kFolded;

  // Fault-free: the fold actually engages and matches.
  const chaos::RunSignature fiber = chaos::run_case(spec, fiber_cc);
  const chaos::RunSignature folded = chaos::run_case(spec, folded_cc);
  EXPECT_TRUE(folded.fold_active);
  EXPECT_TRUE(folded.cost_identical_to(fiber));

  // Faulted: folding cannot represent per-rank fault streams, so the
  // machine must fall back to per-fiber execution — and still match.
  fiber_cc.plan = chaos::FaultPlan::bundled("drop");
  folded_cc.plan = fiber_cc.plan;
  const chaos::RunSignature fiber_f = chaos::run_case(spec, fiber_cc);
  const chaos::RunSignature folded_f = chaos::run_case(spec, folded_cc);
  EXPECT_FALSE(folded_f.fold_active);
  EXPECT_GT(folded_f.faults.total(), 0u);
  EXPECT_TRUE(folded_f.cost_identical_to(fiber_f));
}

TEST(FoldMachine, FallsBackWhenFaultsAreInstalled) {
  sim::MachineConfig cfg;
  cfg.p = 7;
  cfg.params = core::MachineParams::unit();
  cfg.data_mode = sim::DataMode::kGhost;
  cfg.exec_mode = sim::ExecMode::kFolded;
  cfg.fold = algs::foldmap_caps(7);
  EXPECT_TRUE(sim::Machine(cfg).fold_active());
  cfg.faults = chaos::FaultPlan::bundled("drop").make_injector(
      1, cfg.params.alpha_t);
  EXPECT_FALSE(sim::Machine(cfg).fold_active());
}

// --------------------------------------------- congruence property test

/// Normalized per-rank event schedule from a per-fiber ghost trace: the
/// (kind, tag, words/flops, peer-class) sequence a fold claims is shared
/// by every member of a class. For scatter classes the peer *class* is
/// per-member (TSQR's fan-in), so peers are excluded there; everything
/// else — order, tags, sizes — must still agree exactly.
std::vector<std::string> schedule_of(const sim::Trace& trace, int rank,
                                     const sim::FoldMap& map,
                                     bool include_peers) {
  std::vector<std::string> out;
  for (const sim::TraceEvent& ev : trace.rank_events(rank)) {
    switch (ev.kind) {
      case sim::TraceEvent::Kind::kCompute:
        out.push_back(strfmt("compute f=%.17g", ev.flops));
        break;
      case sim::TraceEvent::Kind::kSend:
        out.push_back(strfmt(
            "send tag=%d w=%.17g m=%.17g peer_cls=%d", ev.tag, ev.words,
            ev.msgs, include_peers ? map.class_of(ev.peer) : -1));
        break;
      case sim::TraceEvent::Kind::kRecv:
        out.push_back(
            strfmt("recv tag=%d w=%.17g peer_cls=%d", ev.tag, ev.words,
                   include_peers ? map.class_of(ev.peer) : -1));
        break;
      default:
        break;  // idle/mem/coll spans are timing, not schedule structure
    }
  }
  return out;
}

/// The trace of `pb` run per-fiber in ghost mode under unit parameters.
sim::Trace ghost_trace(const algs::Problem& pb) {
  sim::Trace trace;
  sim::MachineConfig cfg;
  cfg.params = core::MachineParams::unit();
  cfg.data_mode = sim::DataMode::kGhost;
  cfg.enable_trace = true;
  (void)algs::run(pb, std::move(cfg), false,
                  [&trace](const sim::Machine& m) { trace = m.trace(); });
  return trace;
}

/// Run `pb` per-fiber in ghost mode with tracing and assert every fold
/// class's members produce identical normalized schedules — i.e. the
/// builder never merges ranks whose (src, tag) schedules differ.
void expect_congruent_classes(const std::shared_ptr<const sim::FoldMap>& map,
                              const algs::Problem& pb) {
  ASSERT_NE(map, nullptr);
  ASSERT_NO_THROW(map->validate());
  const sim::Trace trace = ghost_trace(pb);
  for (int c = 0; c < map->num_classes(); ++c) {
    const sim::FoldClass& fc = map->cls(c);
    const bool include_peers = !fc.scatter;
    const std::vector<std::string> rep_sched =
        schedule_of(trace, fc.rep, *map, include_peers);
    for (int r = fc.rep + 1; r < map->p(); ++r) {
      if (map->class_of(r) != c) continue;
      EXPECT_EQ(schedule_of(trace, r, *map, include_peers), rep_sched)
          << "rank " << r << " diverges from class " << c << " rep "
          << fc.rep;
    }
  }
}

TEST(FoldProperty, Mm25dClassesAreCongruent) {
  expect_congruent_classes(algs::foldmap_mm25d(3, 1),
                           {.alg = "mm25d", .n = 18, .q = 3, .c = 1});
}

TEST(FoldProperty, CapsClassIsCongruent) {
  expect_congruent_classes(algs::foldmap_caps(7),
                           {.alg = "caps", .n = 14, .k = 1});
}

TEST(FoldProperty, FftClassIsCongruent) {
  expect_congruent_classes(algs::foldmap_fft(4),
                           {.alg = "fft", .p = 4, .r_dim = 8, .c_dim = 8});
}

TEST(FoldProperty, NbodyRowClassesAreCongruent) {
  expect_congruent_classes(algs::foldmap_nbody(8, 2),
                           {.alg = "nbody", .n = 8, .c = 2, .p = 8});
}

TEST(FoldProperty, TsqrSkeletonClassesAreCongruent) {
  expect_congruent_classes(algs::foldmap_tsqr(8),
                           {.alg = "tsqr", .n = 8, .p = 8, .nb = 2});
}

// ------------------------------------------- rotor per-rank parity

/// Machine parameters that exercise every cost term, with a message cap
/// small enough that multi-message sends occur (nmsg > 1).
core::MachineParams rotor_mp() {
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

/// Per-rank counters of `pb` run in ghost mode under the given exec mode.
std::vector<sim::RankCounters> ghost_counters(sim::ExecMode mode,
                                              bool* folded,
                                              const algs::Problem& pb) {
  std::vector<sim::RankCounters> out;
  sim::MachineConfig cfg;
  cfg.params = rotor_mp();
  cfg.data_mode = sim::DataMode::kGhost;
  cfg.exec_mode = mode;
  (void)algs::run(pb, std::move(cfg), false,
                  [&out, folded](const sim::Machine& m) {
                    if (folded != nullptr) *folded = m.fold_active();
                    for (int r = 0; r < m.p(); ++r) {
                      out.push_back(m.rank_counters(r));
                    }
                  });
  return out;
}

/// Rotor congruence is per-rank, not per-class: the replay must reproduce
/// every rank's full counter record bit for bit, world-rank order.
void expect_rotor_parity(const algs::Problem& pb) {
  bool folded = false;
  const auto fib = ghost_counters(sim::ExecMode::kFibers, nullptr, pb);
  const auto fol = ghost_counters(sim::ExecMode::kFolded, &folded, pb);
  ASSERT_TRUE(folded) << "rotor map did not engage";
  ASSERT_EQ(fib.size(), fol.size());
  for (std::size_t r = 0; r < fib.size(); ++r) {
    ASSERT_EQ(
        std::memcmp(&fib[r], &fol[r], sizeof(sim::RankCounters)), 0)
        << "rank " << r << ": clock " << fib[r].clock << " vs "
        << fol[r].clock << ", words_sent " << fib[r].words_sent << " vs "
        << fol[r].words_sent;
  }
}

TEST(FoldProperty, SummaRotorMatchesFibersPerRank) {
  expect_rotor_parity({.alg = "summa", .n = 40, .q = 5});
}

TEST(FoldProperty, LuRotorMatchesFibersPerRank) {
  // nt = 12 > q = 4: block-cyclic reps above 1 and a moving panel owner.
  expect_rotor_parity({.alg = "lu", .n = 48, .q = 4, .c = 1, .nb = 4});
}

TEST(FoldProperty, Mm25dReplicatedRotorMatchesFibersPerRank) {
  // c > 1: depth replication, per-layer skew, shift loop, depth reduce.
  expect_rotor_parity({.alg = "mm25d", .n = 32, .q = 4, .c = 2});
}

// Seeded per-rank parity at larger grids (up to p = 129² = 16,641): a
// power of two, 2^k + 1 and a random q per seed, so the column
// broadcasts' virtual-rank blocks are full, end in a one-row block, or end
// part-filled. Slow tier: the fiber runs take seconds.
TEST(FoldDifferentialSlow, SummaAndLuMatchFibersAtSeededGrids) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    Rng rng(seed);
    const int k = 2 + static_cast<int>(rng.next_below(6));  // 4 .. 128
    for (const int q : {1 << k, (1 << k) + 1,
                        2 + static_cast<int>(rng.next_below(128))}) {
      const int nb = 1 + static_cast<int>(rng.next_below(4));
      const int ld = 1 + static_cast<int>(rng.next_below(2));
      SCOPED_TRACE(testing::Message() << "seed " << seed << ", q " << q
                                      << ", LU nb " << nb << " x " << ld);
      expect_rotor_parity({.alg = "summa", .n = 2 * q, .q = q});
      expect_rotor_parity(
          {.alg = "lu", .n = nb * ld * q, .q = q, .c = 1, .nb = nb});
    }
  }
}

// An off-by-one root rotation in the rotor schedule must be caught by the
// per-rank parity check above — this is the mutation a wrong
// position-to-root mapping would produce. Guards the guard.
TEST(FoldProperty, DetectsAWrongRootRotation) {
  const core::MachineParams mp = rotor_mp();
  const auto fib = ghost_counters(sim::ExecMode::kFibers, nullptr,
                                  {.alg = "summa", .n = 40, .q = 5});
  const auto good = algs::foldmap_summa(40, 5);
  ASSERT_NE(good, nullptr);
  auto mutant = std::make_shared<sim::RotorSchedule>(*good->rotor());
  for (sim::RotorOp& op : mutant->ops) {
    if (op.kind == sim::RotorOp::Kind::kBcastRow ||
        op.kind == sim::RotorOp::Kind::kBcastCol) {
      op.root = (op.root + 1) % mutant->q;
    }
  }
  sim::MachineConfig cfg;
  cfg.p = 25;
  cfg.params = mp;
  cfg.data_mode = sim::DataMode::kGhost;
  cfg.exec_mode = sim::ExecMode::kFolded;
  cfg.fold = std::make_shared<const sim::FoldMap>(
      sim::FoldMap::with_rotor(25, std::move(mutant)));
  sim::Machine m(cfg);
  ASSERT_TRUE(m.fold_active());
  m.run([](sim::Comm&) {});
  bool any_diff = false;
  for (int r = 0; r < 25; ++r) {
    const sim::RankCounters rc = m.rank_counters(r);
    any_diff = any_diff ||
               std::memcmp(&fib[static_cast<std::size_t>(r)], &rc,
                           sizeof(sim::RankCounters)) != 0;
  }
  EXPECT_TRUE(any_diff)
      << "parity check failed to distinguish a rotated-root schedule";
}

// A deliberately wrong merge must be caught by the same property check:
// in Cannon, interior ranks and column-0 ranks have different (src, tag)
// schedules (column 0's A-alignment self-sends are free), so a map that
// merges them fails congruence. Guards the guard.
TEST(FoldProperty, DetectsAWrongMerge) {
  // One class for rank 0, one for everything else: merges row/column/
  // interior ranks whose schedules differ.
  auto bad = std::make_shared<sim::FoldMap>(
      9, std::vector<sim::FoldClass>{{0, 1, true}, {1, 8, true}},
      [](int r) { return r == 0 ? 0 : 1; });
  const sim::Trace trace =
      ghost_trace({.alg = "mm25d", .n = 18, .q = 3, .c = 1});
  bool all_equal = true;
  const auto rep_sched = schedule_of(trace, 1, *bad, false);
  for (int r = 2; r < 9; ++r) {
    all_equal = all_equal && schedule_of(trace, r, *bad, false) == rep_sched;
  }
  EXPECT_FALSE(all_equal)
      << "congruence check failed to distinguish known-divergent ranks";
}

// ------------------------------------------------- rotor thread teams

const int kTeamSizes[] = {1, 2, 3, 4, 7};

sim::MachineConfig rotor_cfg(const core::MachineParams& mp, int p) {
  sim::MachineConfig cfg;
  cfg.p = p;
  cfg.params = mp;
  cfg.data_mode = sim::DataMode::kGhost;
  cfg.exec_mode = sim::ExecMode::kFolded;
  return cfg;
}

/// Two back-to-back rotor_run calls (the second accumulates onto the
/// first's counters) with a team of `threads`.
std::vector<sim::RankCounters> rotor_counters(const sim::RotorSchedule& rs,
                                              int threads) {
  const sim::MachineConfig cfg = rotor_cfg(rotor_mp(), rs.p());
  std::vector<sim::RankCounters> out(static_cast<std::size_t>(rs.p()));
  sim::rotor_run(rs, cfg, out, threads);
  sim::rotor_run(rs, cfg, out, threads);
  return out;
}

/// Every team size must reproduce the inline sweep bit for bit, per rank.
void expect_team_invariant(const std::shared_ptr<const sim::FoldMap>& map) {
  ASSERT_NE(map, nullptr);
  ASSERT_NE(map->rotor(), nullptr);
  const sim::RotorSchedule& rs = *map->rotor();
  const auto serial = rotor_counters(rs, 1);
  for (const int threads : kTeamSizes) {
    const auto team = rotor_counters(rs, threads);
    ASSERT_EQ(team.size(), serial.size());
    for (std::size_t r = 0; r < serial.size(); ++r) {
      ASSERT_EQ(std::memcmp(&serial[r], &team[r], sizeof(sim::RankCounters)),
                0)
          << threads << " threads, rank " << r << ": clock "
          << serial[r].clock << " vs " << team[r].clock << ", words_sent "
          << serial[r].words_sent << " vs " << team[r].words_sent;
    }
  }
}

TEST(RotorTeam, SummaOddGridIsBitIdentical) {
  // q = 37: column broadcasts cut the virtual ranks into power-of-two
  // blocks. Inline and at 2 threads the last block is partial (37 rows
  // of 64; 19 blocks of two, the last with one row); from 3 threads on
  // (24 or more chunks per phase) every row is a block of its own.
  expect_team_invariant(algs::foldmap_summa(74, 37));
  // q = 5 at 7 threads: five one-row blocks for 56 chunks, so most
  // chunks of every column-broadcast phase have no rows.
  expect_team_invariant(algs::foldmap_summa(10, 5));
}

TEST(RotorTeam, SummaSeveralFullBlocksAreBitIdentical) {
  // q = 64: 64 blocks of one row at 7 threads, 32 of two at 3 and 4
  // threads, 16 of four at 2, one of 64 inline.
  expect_team_invariant(algs::foldmap_summa(128, 64));
}

TEST(RotorTeam, LuShrinkingMasksAreBitIdentical) {
  // nt = 36 > q = 12: masked ops with repetition counts up to 3.
  expect_team_invariant(algs::foldmap_lu(144, 4, 12, 1));
}

/// Per-rank counters of the fiber program that `rs` describes, for a
/// schedule of compute ops and column broadcasts only: member (i, j, l)
/// takes part row_rep[i]·col_rep[j]·layer_rep[l] times in a row.
std::vector<sim::RankCounters> fiber_counters(const sim::RotorSchedule& rs) {
  const int q = rs.q;
  sim::MachineConfig cfg = rotor_cfg(rotor_mp(), rs.p());
  cfg.exec_mode = sim::ExecMode::kFibers;
  sim::Machine m(cfg);
  m.run([&rs, q](sim::Comm& comm) {
    const int r = comm.rank();
    const int l = r / (q * q);
    const int i = r / q % q;
    const int j = r % q;
    auto rep = [](const std::vector<std::int32_t>& mask, int x) {
      return mask.empty() ? 1 : mask[static_cast<std::size_t>(x)];
    };
    for (const sim::RotorOp& op : rs.ops) {
      const int reps =
          rep(op.row_rep, i) * rep(op.col_rep, j) * rep(op.layer_rep, l);
      std::vector<double> buf(op.words);
      for (int t = 0; t < reps; ++t) {
        if (op.kind == sim::RotorOp::Kind::kCompute) {
          comm.compute(op.flops);
        } else {
          comm.bcast(buf, op.root,
                     sim::Group::strided(l * q * q + j, q, q));
        }
      }
    }
  });
  std::vector<sim::RankCounters> out;
  for (int r = 0; r < m.p(); ++r) out.push_back(m.rank_counters(r));
  return out;
}

TEST(RotorTeam, LayeredMaskedColumnBroadcastsMatchFibers) {
  // No builder emits column broadcasts with c > 1 or a layer mask: this
  // schedule runs the layer loop, replays up to 6 deep (layer count 2 ×
  // column count 3) and skipped columns and layers, against fibers.
  sim::RotorSchedule rs;
  rs.q = 11;
  rs.c = 3;
  using K = sim::RotorOp::Kind;
  auto add = [&rs](K kind, int root, std::vector<std::int32_t> col_rep,
                   std::vector<std::int32_t> layer_rep) {
    sim::RotorOp op;
    op.kind = kind;
    op.root = root;
    op.words = 100;
    op.flops = 7.0 + root;
    op.col_rep = std::move(col_rep);
    op.layer_rep = std::move(layer_rep);
    rs.ops.push_back(std::move(op));
  };
  const std::vector<std::int32_t> cols = {3, 0, 1, 2, 0, 1, 1, 3, 0, 2, 1};
  add(K::kCompute, 3, cols, {1, 2, 0});
  add(K::kBcastCol, 4, {}, {});
  add(K::kBcastCol, 10, cols, {2, 0, 1});
  add(K::kCompute, 1, {}, {0, 1, 3});
  add(K::kBcastCol, 0, {0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}, {});
  add(K::kBcastCol, 7, {}, {1, 0, 2});
  const auto fib = fiber_counters(rs);
  const sim::MachineConfig cfg = rotor_cfg(rotor_mp(), rs.p());
  for (const int threads : kTeamSizes) {
    std::vector<sim::RankCounters> rot(fib.size());
    sim::rotor_run(rs, cfg, rot, threads);
    for (std::size_t r = 0; r < fib.size(); ++r) {
      ASSERT_EQ(std::memcmp(&fib[r], &rot[r], sizeof(sim::RankCounters)), 0)
          << threads << " threads, rank " << r << ": clock " << fib[r].clock
          << " vs " << rot[r].clock << ", words_sent " << fib[r].words_sent
          << " vs " << rot[r].words_sent;
    }
  }
}

TEST(RotorTeam, Mm25dSkewShiftAndDepthAreBitIdentical) {
  expect_team_invariant(algs::foldmap_mm25d(8, 2, 4, false));
  expect_team_invariant(algs::foldmap_mm25d(8, 4, 4, false));
}

TEST(RotorTeam, CapacityOverflowThrowsTheSameErrorAndLeavesOutUnchanged) {
  const auto map = algs::foldmap_summa(74, 37);
  ASSERT_NE(map, nullptr);
  const auto before = rotor_counters(*map->rotor(), 1);
  // One more alloc after the last op overflows the cap only at the very
  // end, when an unchecked sweep would already have evaluated every op.
  sim::RotorSchedule rs = *map->rotor();
  rs.ops.push_back({});
  rs.ops.back().kind = sim::RotorOp::Kind::kAlloc;
  rs.ops.back().words = before[0].mem_highwater + 1;
  core::MachineParams mp = rotor_mp();
  mp.mem_words = static_cast<double>(before[0].mem_highwater);
  const sim::MachineConfig cfg = rotor_cfg(mp, rs.p());
  std::string first;
  for (const int threads : kTeamSizes) {
    std::vector<sim::RankCounters> out = before;
    try {
      sim::rotor_run(rs, cfg, out, threads);
      ADD_FAILURE() << threads << " threads: no SimError";
    } catch (const sim::SimError& e) {
      if (first.empty()) first = e.what();
      EXPECT_EQ(first, e.what()) << threads << " threads";
    }
    EXPECT_TRUE(out == before) << threads << " threads: out was modified";
  }
  EXPECT_NE(first.find("out of memory"), std::string::npos) << first;
}

// ------------------------------------------------------ engine spec axis

engine::ExperimentSpec foldable_mm_spec() {
  engine::ExperimentSpec s;
  s.alg = engine::Alg::kMm25d;
  s.params = core::MachineParams::unit();
  s.n = 18;
  s.q = 3;
  s.c = 1;
  s.data_mode = sim::DataMode::kGhost;
  return s;
}

TEST(FoldEngine, CacheKeysUnchangedForFiberMode) {
  const engine::ExperimentSpec fiber = foldable_mm_spec();
  EXPECT_EQ(fiber.canonical_json().find("exec_mode"), std::string::npos)
      << "default kFibers must stay unserialized or every cached result "
         "dies";

  engine::ExperimentSpec folded = foldable_mm_spec();
  folded.exec_mode = sim::ExecMode::kFolded;
  EXPECT_NE(folded.canonical_json().find("\"exec_mode\":\"folded\""),
            std::string::npos);
  EXPECT_NE(fiber.canonical_json(), folded.canonical_json());

  const engine::ExperimentSpec back =
      engine::ExperimentSpec::from_json(json::parse(folded.canonical_json()));
  EXPECT_EQ(back.canonical_json(), folded.canonical_json());
  EXPECT_EQ(back.exec_mode, sim::ExecMode::kFolded);
}

TEST(FoldEngine, ExecuteMatchesFibersBitForBit) {
  engine::ExperimentSpec folded = foldable_mm_spec();
  folded.exec_mode = sim::ExecMode::kFolded;
  const engine::ExperimentResult rf = engine::execute(foldable_mm_spec());
  engine::ExperimentResult rd = engine::execute(folded);
  // The folded run reports its slot count; every cost field matches.
  EXPECT_EQ(rf.fold_slots, 0);
  EXPECT_GT(rd.fold_slots, 0);
  rd.fold_slots = 0;
  EXPECT_EQ(rf, rd);
}

TEST(FoldEngine, FoldedRequiresGhostData) {
  engine::ExperimentSpec bad = foldable_mm_spec();
  bad.data_mode = sim::DataMode::kFull;
  bad.exec_mode = sim::ExecMode::kFolded;
  EXPECT_THROW(engine::execute(bad), invalid_argument_error);
}

}  // namespace
}  // namespace alge
