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

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
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
#include "sim/rotor_rows.hpp"
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

using Runs = std::vector<sim::RotorRun>;
using Dense = std::vector<std::int32_t>;

/// Participation count of coordinate x under `mask`: its run's, 0 outside
/// every run, 1 when the mask is empty.
int rep_at(const Runs& mask, int x) {
  if (mask.empty()) return 1;
  for (const sim::RotorRun& r : mask) {
    if (r.begin <= x && x < r.end) return r.rep;
  }
  return 0;
}

/// `mask` as one count per coordinate of an axis of n (empty stays empty).
Dense expand(const Runs& mask, int n) {
  if (mask.empty()) return {};
  Dense d(static_cast<std::size_t>(n));
  for (int x = 0; x < n; ++x) d[static_cast<std::size_t>(x)] = rep_at(mask, x);
  return d;
}

/// Bytes a schedule holds: its ops and their mask runs (sizes, not
/// capacities), as bench/frontier_folded records them.
std::size_t schedule_bytes(const sim::RotorSchedule& rs) {
  std::size_t bytes = rs.ops.size() * sizeof(sim::RotorOp);
  for (const sim::RotorOp& op : rs.ops) {
    bytes += (op.row_rep.size() + op.col_rep.size() + op.layer_rep.size()) *
             sizeof(sim::RotorRun);
  }
  return bytes;
}

/// The reference for foldmap_lu's runs: per op after the three
/// allocations, its row and column masks as q-length counts, counted block
/// by block (no op masks layers).
std::vector<std::pair<Dense, Dense>> dense_lu_masks(int n, int nb, int q) {
  const int nt = n / nb;
  std::vector<std::pair<Dense, Dense>> ops;
  for (int k = 0; k < nt; ++k) {
    Dense diag(static_cast<std::size_t>(q), 0);
    diag[static_cast<std::size_t>(k % q)] = 1;
    Dense t(static_cast<std::size_t>(q), 0);
    for (int m = k + 1; m < nt; ++m) ++t[static_cast<std::size_t>(m % q)];
    ops.push_back({diag, diag});  // getrf
    ops.push_back({{}, diag});    // A(k,k) down its column
    ops.push_back({diag, {}});    // and across its row
    if (k + 1 < nt) {
      ops.push_back({t, diag});  // L panel solves
      ops.push_back({diag, t});  // U panel solves
      ops.push_back({t, {}});    // L broadcast
      ops.push_back({{}, t});    // U broadcast
      ops.push_back({t, t});     // trailing update
    }
  }
  return ops;
}

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
  EXPECT_EQ(algs::foldmap_mm25d(46341, 1), nullptr);  // q² overflows an int
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

TEST(FoldBuilders, LuMasksMatchTheDenseOracle) {
  for (const auto& [n, nb, q] : {std::array{48, 4, 4}, std::array{144, 4, 12},
                                 std::array{148, 4, 37},
                                 std::array{512, 8, 16},
                                 std::array{4096, 8, 512}}) {
    SCOPED_TRACE(testing::Message() << "n " << n << ", nb " << nb << ", q "
                                    << q);
    const auto map = algs::foldmap_lu(n, nb, q, 1);
    const sim::RotorSchedule& rs = *map->rotor();
    const auto ref = dense_lu_masks(n, nb, q);
    ASSERT_EQ(rs.ops.size(), ref.size() + 6);  // three allocs, three frees
    for (std::size_t o = 0; o < ref.size(); ++o) {
      const sim::RotorOp& op = rs.ops[o + 3];
      ASSERT_EQ(expand(op.row_rep, q), ref[o].first) << "op " << o + 3;
      ASSERT_EQ(expand(op.col_rep, q), ref[o].second) << "op " << o + 3;
      ASSERT_TRUE(op.layer_rep.empty()) << "op " << o + 3;
    }
  }
}

TEST(FoldBuilders, LuAtQ2048KeepsItsMasksSmall) {
  // nt = q = 2048: ~16k ops. q-length masks would take ~200 MB here.
  const auto map = algs::foldmap_lu(16384, 8, 2048, 1);
  const sim::RotorSchedule& rs = *map->rotor();
  for (const sim::RotorOp& op : rs.ops) {
    EXPECT_LE(op.row_rep.size(), 2u);
    EXPECT_LE(op.col_rep.size(), 2u);
    EXPECT_TRUE(op.layer_rep.empty());
  }
  EXPECT_LT(schedule_bytes(rs), std::size_t{4} << 20);
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
/// schedule of compute ops and row and column broadcasts only: member
/// (i, j, l) takes part row_rep(i)·col_rep(j)·layer_rep(l) times in a row.
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
    for (const sim::RotorOp& op : rs.ops) {
      const int reps = rep_at(op.row_rep, i) * rep_at(op.col_rep, j) *
                       rep_at(op.layer_rep, l);
      std::vector<double> buf(op.words);
      for (int t = 0; t < reps; ++t) {
        if (op.kind == sim::RotorOp::Kind::kCompute) {
          comm.compute(op.flops);
        } else if (op.kind == sim::RotorOp::Kind::kBcastRow) {
          comm.bcast(buf, op.root,
                     sim::Group::strided(l * q * q + i * q, q, 1));
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

/// Every team size reproduces the fiber program of `rs` bit for bit.
void expect_fiber_parity(const sim::RotorSchedule& rs) {
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

TEST(RotorTeam, LayeredMaskedColumnBroadcastsMatchFibers) {
  // No builder emits column broadcasts with c > 1 or a layer mask: this
  // schedule runs the layer loop, replays up to 6 deep (layer count 2 ×
  // column count 3) and skipped columns and layers, against fibers.
  sim::RotorSchedule rs;
  rs.q = 11;
  rs.c = 3;
  using K = sim::RotorOp::Kind;
  auto add = [&rs](K kind, int root, Runs col_rep, Runs layer_rep) {
    sim::RotorOp op;
    op.kind = kind;
    op.root = root;
    op.words = 100;
    op.flops = 7.0 + root;
    op.col_rep = std::move(col_rep);
    op.layer_rep = std::move(layer_rep);
    rs.ops.push_back(std::move(op));
  };
  // Column counts 3 0 1 2 0 1 1 3 0 2 1.
  const Runs cols = {{0, 1, 3}, {2, 3, 1}, {3, 4, 2}, {5, 7, 1},
                     {7, 8, 3}, {9, 10, 2}, {10, 11, 1}};
  add(K::kCompute, 3, cols, {{0, 1, 1}, {1, 2, 2}});
  add(K::kBcastCol, 4, {}, {});
  add(K::kBcastCol, 10, cols, {{0, 1, 2}, {2, 3, 1}});
  add(K::kCompute, 1, {}, {{1, 2, 1}, {2, 3, 3}});
  add(K::kBcastCol, 0, {{6, 7, 1}}, {});
  add(K::kBcastCol, 7, {}, {{0, 1, 1}, {2, 3, 2}});
  expect_fiber_parity(rs);
}

TEST(RotorTeam, FusedLayeredMaskedPhasesMatchFibers) {
  // Ops that share phases: compute and row broadcasts run on a column
  // broadcast's rows right after its last replay round when they stay in
  // its layer, a masked row broadcast leads a phase of its own rows that a
  // compute on one of them joins, and ops on fewer ranks than a chunk's
  // share run serially (at 2 to 4 threads: the one-rank compute, the
  // one-row broadcast and compute, the one-column broadcast replayed
  // twice), all against the fiber program.
  sim::RotorSchedule rs;
  rs.q = 11;
  rs.c = 3;
  using K = sim::RotorOp::Kind;
  auto add = [&rs](K kind, int root, Runs row_rep, Runs col_rep,
                   Runs layer_rep) {
    sim::RotorOp op;
    op.kind = kind;
    op.root = root;
    op.words = 100;
    op.flops = 7.0 + root;
    op.row_rep = std::move(row_rep);
    op.col_rep = std::move(col_rep);
    op.layer_rep = std::move(layer_rep);
    rs.ops.push_back(std::move(op));
  };
  // Row counts 2 0 1 1 3 0 1 2 1 0 1, column counts 3 0 1 2 0 1 1 3 0 2 1.
  const Runs rows = {{0, 1, 2}, {2, 4, 1}, {4, 5, 3}, {6, 7, 1},
                     {7, 8, 2}, {8, 9, 1}, {10, 11, 1}};
  const Runs cols = {{0, 1, 3}, {2, 3, 1}, {3, 4, 2}, {5, 7, 1},
                     {7, 8, 3}, {9, 10, 2}, {10, 11, 1}};
  add(K::kCompute, 5, rows, {}, {{0, 1, 1}, {1, 2, 2}});
  add(K::kBcastRow, 3, {}, {}, {});
  add(K::kBcastCol, 4, {}, {}, {{2, 3, 1}});
  add(K::kCompute, 6, rows, cols, {{2, 3, 2}});
  add(K::kBcastRow, 8, rows, {}, {{2, 3, 1}});
  add(K::kBcastCol, 10, {}, cols, {{0, 1, 2}, {2, 3, 1}});
  add(K::kCompute, 1, {{5, 6, 1}}, {{7, 8, 2}}, {{1, 2, 1}});
  add(K::kBcastRow, 2, {{2, 3, 1}}, {}, {{0, 1, 1}});
  add(K::kCompute, 4, {{2, 3, 2}}, cols, {{0, 1, 1}});
  add(K::kBcastCol, 2, {}, {{6, 7, 2}}, {{1, 2, 1}});
  add(K::kCompute, 0, {}, {}, {});
  add(K::kBcastRow, 9, rows, {}, {});
  add(K::kBcastCol, 7, {}, {}, {});
  add(K::kBcastRow, 0, {}, {}, {{2, 3, 1}});
  add(K::kCompute, 3, {}, cols, {{2, 3, 1}});
  expect_fiber_parity(rs);
}

TEST(RotorTeam, Mm25dSkewShiftAndDepthAreBitIdentical) {
  expect_team_invariant(algs::foldmap_mm25d(8, 2, 4, false));
  expect_team_invariant(algs::foldmap_mm25d(8, 4, 4, false));
}

TEST(RotorTeam, Mm25dOddStepCountsMatchFibers) {
  // q/c = 3 and 5 Cannon steps: the shifts' arrivals alternate between
  // two buffers, so an odd count ends on the other parity than it began.
  for (const algs::Problem& pb :
       {algs::Problem{.alg = "mm25d", .n = 24, .q = 6, .c = 2},
        algs::Problem{.alg = "mm25d", .n = 40, .q = 10, .c = 2},
        algs::Problem{.alg = "mm25d", .n = 24, .q = 12, .c = 4}}) {
    SCOPED_TRACE(testing::Message() << "q " << pb.q << ", c " << pb.c);
    const auto fib = ghost_counters(sim::ExecMode::kFibers, nullptr, pb);
    const auto map = algs::find(pb.alg).fold(pb);
    ASSERT_NE(map, nullptr);
    ASSERT_NE(map->rotor(), nullptr);
    const sim::RotorSchedule& rs = *map->rotor();
    const sim::MachineConfig cfg = rotor_cfg(rotor_mp(), rs.p());
    for (const int threads : kTeamSizes) {
      std::vector<sim::RankCounters> rot(fib.size());
      sim::rotor_run(rs, cfg, rot, threads);
      for (std::size_t r = 0; r < fib.size(); ++r) {
        ASSERT_EQ(std::memcmp(&fib[r], &rot[r], sizeof(sim::RankCounters)),
                  0)
            << threads << " threads, rank " << r << ": clock "
            << fib[r].clock << " vs " << rot[r].clock;
      }
    }
  }
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

// --------------------------------------------------- rotor schedule checks

/// rotor_run must refuse `rs` with an internal_error whose message holds
/// `what`, leaving the p counters it is given as they were.
void expect_refused(const sim::RotorSchedule& rs, const std::string& what,
                    int p) {
  std::vector<sim::RankCounters> before(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    before[static_cast<std::size_t>(r)].clock = r + 0.5;
  }
  std::vector<sim::RankCounters> out = before;
  try {
    sim::rotor_run(rs, rotor_cfg(rotor_mp(), p), out, 1);
    ADD_FAILURE() << "not refused: " << what;
  } catch (const internal_error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(out == before) << what << ": out was modified";
}

sim::RotorOp rotor_op(sim::RotorOp::Kind kind, int root, Runs row_rep,
                      Runs col_rep, Runs layer_rep) {
  sim::RotorOp op;
  op.kind = kind;
  op.root = root;
  op.row_rep = std::move(row_rep);
  op.col_rep = std::move(col_rep);
  op.layer_rep = std::move(layer_rep);
  return op;
}

/// expect_refused for a 4 x 4 x 2 schedule of the single op `op`.
void expect_op_refused(const sim::RotorOp& op, const std::string& what) {
  sim::RotorSchedule rs;
  rs.q = 4;
  rs.c = 2;
  rs.ops.push_back(op);
  expect_refused(rs, what, 32);
}

using K = sim::RotorOp::Kind;

TEST(RotorCheck, RefusesRunsOutsideTheAxis) {
  expect_op_refused(rotor_op(K::kCompute, 0, {{2, 5, 1}}, {}, {}),
                    "rotor mask run [2, 5) not in [0, 4)");
  expect_op_refused(rotor_op(K::kCompute, 0, {}, {{-1, 2, 1}}, {}),
                    "rotor mask run [-1, 2) not in [0, 4)");
  expect_op_refused(rotor_op(K::kCompute, 0, {}, {{2, 2, 1}}, {}),
                    "rotor mask run [2, 2) not in [0, 4)");
  expect_op_refused(rotor_op(K::kCompute, 0, {}, {}, {{1, 3, 1}}),
                    "rotor mask run [1, 3) not in [0, 2)");
}

TEST(RotorCheck, RefusesOverlappingAndUnsortedRuns) {
  expect_op_refused(
      rotor_op(K::kCompute, 0, {{0, 2, 1}, {1, 3, 2}}, {}, {}),
      "rotor mask run [1, 3) out of order");
  expect_op_refused(
      rotor_op(K::kBcastRow, 0, {{2, 3, 1}, {0, 1, 1}}, {}, {}),
      "rotor mask run [0, 1) out of order");
}

TEST(RotorCheck, RefusesCountsBelowOne) {
  expect_op_refused(rotor_op(K::kCompute, 0, {}, {{0, 1, 0}}, {}),
                    "rotor mask run [0, 1) takes part 0 times");
  expect_op_refused(rotor_op(K::kBcastCol, 0, {}, {}, {{1, 2, -1}}),
                    "rotor mask run [1, 2) takes part -1 times");
}

TEST(RotorCheck, RefusesMaskedMemberAxes) {
  expect_op_refused(rotor_op(K::kBcastRow, 0, {}, {{0, 1, 1}}, {}),
                    "row collective with a masked column axis");
  expect_op_refused(rotor_op(K::kBcastCol, 0, {{0, 1, 1}}, {}, {}),
                    "column collective with a masked row axis");
  for (const K kind : {K::kBcastDepth, K::kReduceDepth}) {
    expect_op_refused(rotor_op(kind, 0, {}, {}, {{0, 1, 1}}),
                      "depth collective with a masked layer axis");
  }
}

TEST(RotorCheck, RefusesMaskedSkewsAndShifts) {
  for (const K kind : {K::kSkewA, K::kSkewB, K::kShiftA, K::kShiftB}) {
    expect_op_refused(rotor_op(kind, 0, {{0, 1, 1}}, {}, {}),
                      "skew/shift ops are unmasked");
    expect_op_refused(rotor_op(kind, 0, {}, {}, {{1, 2, 1}}),
                      "skew/shift ops are unmasked");
  }
}

TEST(RotorCheck, RefusesRootsOutOfRange) {
  expect_op_refused(rotor_op(K::kBcastRow, 4, {}, {}, {}),
                    "rotor collective root 4 on a group of 4");
  expect_op_refused(rotor_op(K::kBcastCol, -1, {}, {}, {}),
                    "rotor collective root -1 on a group of 4");
  expect_op_refused(rotor_op(K::kReduceDepth, 2, {}, {}, {}),
                    "rotor collective root 2 on a group of 2");
}

TEST(RotorCheck, RefusesGridsWhoseRankCountOverflowsAnInt) {
  // 65537² wraps to 131,073 in int arithmetic; 46341² wraps negative.
  sim::RotorSchedule rs;
  rs.q = 65537;
  expect_refused(rs, "rotor grid 65537 x 65537 x 1 has more ranks", 4);
  rs.q = 46341;
  expect_refused(rs, "rotor grid 46341 x 46341 x 1 has more ranks", 4);
  rs.q = 32768;
  rs.c = 2;
  expect_refused(rs, "rotor grid 32768 x 32768 x 2 has more ranks", 4);
}

// ------------------------------------------------------- rotor phase plan

// Phase counts of the sweep's plan (one team synchronization each). The
// sweep used to open a phase per op and two per column broadcast; these
// pin the fused counts exactly.

TEST(RotorPlan, SummaRunsTwoPhasesPerStep) {
  // Step k: [column roots(k)], then [column rows(k) -> compute(k) -> row
  // broadcast(k+1)] row by row; the first row broadcast joins the load
  // and the store joins the last step: 2q + 1 (one phase per op: 4q + 2).
  const auto map = algs::foldmap_summa(4096, 512);
  for (const int threads : {1, 3, 7}) {
    EXPECT_EQ(sim::rotor_phases(*map->rotor(), threads), 2 * 512 + 1)
        << threads << " threads";
  }
}

TEST(RotorPlan, LuRunsFourPhasesPerStep) {
  // nt = q = 512 (one phase per op: 5,116). At 3 threads (24 chunks) a
  // step is [getrf, the A(k,k) broadcasts and both trsm run serially],
  // [the L broadcast], [U broadcast roots], [U broadcast rows -> gemm ->
  // next getrf] while the trailing broadcasts reach 22 of the 512 rows
  // and columns (k <= 489: a chunk's share is 2^18 / 24 ranks); the last
  // 22 steps run serially in one phase. Load and store add two.
  const auto map = algs::foldmap_lu(4096, 8, 512, 1);
  const int phases = sim::rotor_phases(*map->rotor(), 3);
  EXPECT_LE(phases, 4 * 512 + 2);
  EXPECT_EQ(phases, 2 + 4 * 490 + 1);
}

TEST(RotorPlan, LuReplayRoundsAddTwoPhasesEach) {
  // nt = 36 > q = 12: the U broadcast replays max(t) rounds, each round
  // its own phase A and B; the gemm joins only the last round's B.
  const sim::RotorSchedule rs = *algs::foldmap_lu(144, 4, 12, 1)->rotor();
  // The same schedule with every column broadcast cut to one round.
  sim::RotorSchedule once = rs;
  int extra = 0;
  for (sim::RotorOp& op : once.ops) {
    if (op.kind != sim::RotorOp::Kind::kBcastCol || op.col_rep.empty()) {
      continue;
    }
    int most = 1;
    for (sim::RotorRun& run : op.col_rep) {
      most = std::max(most, run.rep);
      run.rep = 1;
    }
    extra += most - 1;
  }
  ASSERT_GT(extra, 0);
  for (const int threads : {1, 3, 7}) {
    EXPECT_EQ(sim::rotor_phases(rs, threads) - sim::rotor_phases(once, threads),
              2 * extra)
        << threads << " threads";
  }
}

TEST(RotorPlan, Mm25dRunsTwoPhasesPerCannonStep) {
  // q/c = 64 steps: [recv B(s-1) -> compute(s) -> send A(s)] and
  // [recv A(s) -> send B(s)], with the skews as step -1; plus load, the
  // two depth broadcasts, skew A's sends, the depth reduce and the store
  // (one phase per op: 325).
  const auto map = algs::foldmap_mm25d(256, 4, 16, false);
  for (const int threads : {1, 3}) {
    EXPECT_EQ(sim::rotor_phases(*map->rotor(), threads), 2 * 64 + 6)
        << threads << " threads";
  }
}

/// The SUMMA schedule cut down to its ops of one kind, as
/// bench/micro_sim's BM_RotorSweepKind runs it.
sim::RotorSchedule summa_kind(int n, int q, sim::RotorOp::Kind kind) {
  sim::RotorSchedule rs = *algs::foldmap_summa(n, q)->rotor();
  std::erase_if(rs.ops, [kind](const sim::RotorOp& op) {
    return op.kind != kind;
  });
  return rs;
}

TEST(RotorPlan, SingleKindSchedulesPlanAndRun) {
  using K = sim::RotorOp::Kind;
  // All computes, or all row broadcasts, share one phase with the load
  // and store; each column broadcast needs its A and B.
  EXPECT_EQ(sim::rotor_phases(summa_kind(4096, 256, K::kCompute), 3), 1);
  EXPECT_EQ(sim::rotor_phases(summa_kind(4096, 256, K::kBcastRow), 3), 1);
  EXPECT_EQ(sim::rotor_phases(summa_kind(4096, 256, K::kBcastCol), 3),
            2 * 256 + 1);
  for (const K kind : {K::kCompute, K::kBcastRow, K::kBcastCol}) {
    expect_fiber_parity(summa_kind(34, 17, kind));
  }
}

// ------------------------------------------------------ rotor row kernels

// Every variant of sim/rotor_rows.hpp the host supports, against plain
// scalar loops written out here. Clocks come from a coarse grid, so
// arrivals often tie with the receiver's clock, and some idle times are
// -0.0: a tie that idled would add +0.0 and flip that sign bit.

namespace rr = sim::rotor_rows;

/// The oracle's receive: idles only when the arrival is strictly later.
double oracle_sync(double a, double cl, double& idl) {
  if (a > cl) {
    idl += a - cl;
    return a;
  }
  return cl;
}

/// Comm::bcast's binomial tree in ascending virtual rank, each member's
/// arrival held for its children: the walk the level order replaced.
void walk_bcast(double* clk, double* idl, std::size_t stride, int n, int rho,
                double cost) {
  std::vector<double> arr(static_cast<std::size_t>(n));
  for (int vr = 0; vr < n; ++vr) {
    const std::size_t r = static_cast<std::size_t>((vr + rho) % n) * stride;
    double cl = clk[r];
    if (vr != 0) {
      cl = oracle_sync(arr[static_cast<std::size_t>(vr)], cl, idl[r]);
    }
    int mask = 1;
    while (mask < n && (vr & mask) == 0) mask <<= 1;
    for (mask >>= 1; mask > 0; mask >>= 1) {
      if (vr + mask < n) {
        cl += cost;
        arr[static_cast<std::size_t>(vr + mask)] = cl;
      }
    }
    clk[r] = cl;
  }
}

/// Clocks on a grid of `cost`-sized steps (ties likely) or uniform.
std::vector<double> random_clocks(Rng& rng, std::size_t n, bool grid,
                                  double cost) {
  std::vector<double> v(n);
  for (double& x : v) {
    x = grid ? cost * static_cast<double>(rng.next_below(6))
             : rng.uniform(0.0, 8.0 * cost);
  }
  return v;
}

/// Idle times, every fourth one -0.0.
std::vector<double> random_idles(Rng& rng, std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = i % 4 == 0 ? -0.0 : rng.uniform(0.0, 1.0);
  }
  return v;
}

bool same_doubles(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
}

/// The variants this CPU runs (at least the baseline).
std::vector<const rr::Isa*> supported_row_isas() {
  std::vector<const rr::Isa*> out;
  for (const rr::Isa& isa : rr::isas()) {
    if (isa.supported()) out.push_back(&isa);
  }
  return out;
}

TEST(RotorRows, ActiveIsTheWidestSupportedVariant) {
  const auto isas = supported_row_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(&rr::active(), isas.front());
  EXPECT_STREQ(rr::isas().back().name, "baseline");
}

TEST(RotorRows, BroadcastMatchesTheVrOrderWalk) {
  std::vector<int> sizes;
  for (int n = 1; n <= 70; ++n) sizes.push_back(n);
  for (const int n : {127, 128, 129, 512}) sizes.push_back(n);
  Rng rng(11);
  for (const rr::Isa* isa : supported_row_isas()) {
    for (const int n : sizes) {
      // Strided groups (depth collectives) interleave other ranks, which
      // must stay untouched; a row has stride 1.
      for (const std::size_t stride : {std::size_t{1}, std::size_t{3}}) {
        for (int rho = 0; rho < n; ++rho) {
          const bool grid = rho % 2 == 0;
          const double cost = grid ? 0.5 : 0.1;
          const std::size_t len = static_cast<std::size_t>(n) * stride + 2;
          const auto clk = random_clocks(rng, len, grid, cost);
          const auto idl = random_idles(rng, len);
          auto want_c = clk, want_i = idl, got_c = clk, got_i = idl;
          walk_bcast(want_c.data() + 1, want_i.data() + 1, stride, n, rho,
                     cost);
          isa->bcast(got_c.data() + 1, got_i.data() + 1, stride, n, rho,
                     cost);
          ASSERT_TRUE(same_doubles(want_c, got_c) &&
                      same_doubles(want_i, got_i))
              << isa->name << " n=" << n << " root=" << rho
              << " stride=" << stride;
        }
      }
    }
  }
}

TEST(RotorRows, ComputeMatchesScalarOnRunsOfUnequalCounts) {
  Rng rng(12);
  for (const rr::Isa* isa : supported_row_isas()) {
    for (int n = 0; n <= 70; ++n) {
      auto clk = random_clocks(rng, static_cast<std::size_t>(n), false, 0.1);
      auto flp = random_clocks(rng, static_cast<std::size_t>(n), false, 3.0);
      auto want_c = clk, want_f = flp;
      const double f = 1.7;
      const double dt = 0.3 * f;
      // Consecutive runs of random length, each with its own count.
      for (int j0 = 0; j0 < n;) {
        const int j1 =
            std::min(n, j0 + 1 + static_cast<int>(rng.next_below(19)));
        const int reps = static_cast<int>(rng.next_below(4));
        for (int j = j0; j < j1; ++j) {
          for (int t = 0; t < reps; ++t) {
            want_f[static_cast<std::size_t>(j)] += f;
            want_c[static_cast<std::size_t>(j)] += dt;
          }
        }
        isa->compute(clk.data() + j0, flp.data() + j0, j1 - j0, reps, dt, f);
        j0 = j1;
      }
      ASSERT_TRUE(same_doubles(want_c, clk) && same_doubles(want_f, flp))
          << isa->name << " n=" << n;
    }
  }
}

TEST(RotorRows, ColumnRowMatchesScalar) {
  Rng rng(13);
  const int q = 45;
  for (const rr::Isa* isa : supported_row_isas()) {
    for (int trial = 0; trial < 400; ++trial) {
      const bool grid = trial % 2 == 0;
      const double cost = grid ? 0.5 : 0.1;
      rr::ColRow row;
      row.j0 = static_cast<int>(rng.next_below(q / 3));
      row.j1 = row.j0 + static_cast<int>(rng.next_below(q - row.j0 + 1));
      row.cross = static_cast<int>(rng.next_below(3));
      row.n_dst = static_cast<int>(rng.next_below(4));
      row.cost = cost;
      const bool root = trial % 5 == 0;
      const bool masked = trial % 3 != 0;
      auto clk = random_clocks(rng, q, grid, cost);
      auto idl = random_idles(rng, q);
      const auto arrive = random_clocks(rng, q, grid, cost);
      std::vector<std::vector<double>> lev(4, std::vector<double>(q, -1.0));
      std::vector<std::int64_t> reps(q);
      for (auto& v : reps) v = static_cast<std::int64_t>(rng.next_below(3));
      const std::int64_t t = static_cast<std::int64_t>(rng.next_below(2));
      // The scalar replay.
      auto want_c = clk, want_i = idl;
      auto want_lev = lev;
      std::vector<bool> in(q, false);
      for (int j = row.j0; j < row.j1; ++j) {
        const std::size_t uj = static_cast<std::size_t>(j);
        if (masked && reps[uj] <= t) continue;
        in[uj] = true;
        double cl = want_c[uj];
        if (!root) cl = oracle_sync(arrive[uj], cl, want_i[uj]);
        for (int s = 0; s < row.cross; ++s) cl += cost;
        for (int s = 0; s < row.n_dst; ++s) {
          cl += cost;
          want_lev[static_cast<std::size_t>(s)][uj] = cl;
        }
        want_c[uj] = cl;
      }
      double* dst[4];
      for (int s = 0; s < 4; ++s) {
        dst[s] = lev[static_cast<std::size_t>(s)].data();
      }
      row.clk = clk.data();
      row.idl = idl.data();
      row.arrive = root ? nullptr : arrive.data();
      row.dst = dst;
      if (masked) {
        row.reps = reps.data();
        row.t = t;
      }
      isa->col_row(row);
      ASSERT_TRUE(same_doubles(want_c, clk) && same_doubles(want_i, idl))
          << isa->name << " trial " << trial;
      // A column that takes no part may leave any value in the level
      // buffer (no participating rank reads it); the others must match.
      for (int s = 0; s < row.n_dst; ++s) {
        for (int j = 0; j < q; ++j) {
          const std::size_t us = static_cast<std::size_t>(s);
          const std::size_t uj = static_cast<std::size_t>(j);
          if (in[uj] || j < row.j0 || j >= row.j1) {
            ASSERT_EQ(std::memcmp(&want_lev[us][uj], &lev[us][uj],
                                  sizeof(double)),
                      0)
                << isa->name << " trial " << trial << " level " << s
                << " column " << j;
          }
        }
      }
    }
  }
}

TEST(RotorRows, SkewSendsAndReceivesMatchScalar) {
  Rng rng(14);
  for (const rr::Isa* isa : supported_row_isas()) {
    for (int n = 0; n <= 40; ++n) {
      for (const std::size_t stride : {std::size_t{1}, std::size_t{5}}) {
        const bool grid = n % 2 == 0;
        const double cost = grid ? 0.5 : 0.1;
        const std::size_t un = static_cast<std::size_t>(n);
        auto clk = random_clocks(rng, un, grid, cost);
        auto idl = random_idles(rng, un);
        const auto src = random_clocks(rng, un * stride + 1, grid, cost);
        auto want_c = clk, want_i = idl;
        for (std::size_t j = 0; j < un; ++j) {
          want_c[j] = oracle_sync(src[j * stride], want_c[j], want_i[j]);
        }
        isa->recv(clk.data(), idl.data(), src.data(), stride, n);
        ASSERT_TRUE(same_doubles(want_c, clk) && same_doubles(want_i, idl))
            << isa->name << " recv n=" << n << " stride=" << stride;
      }
      auto clk = random_clocks(rng, static_cast<std::size_t>(n), false, 0.1);
      std::vector<double> arr(static_cast<std::size_t>(n), -1.0);
      auto want_c = clk;
      auto want_a = arr;
      for (std::size_t j = 0; j < want_c.size(); ++j) {
        want_c[j] += 0.1;
        want_a[j] = want_c[j];
      }
      isa->send(clk.data(), arr.data(), n, 0.1);
      ASSERT_TRUE(same_doubles(want_c, clk) && same_doubles(want_a, arr))
          << isa->name << " send n=" << n;
    }
  }
}

TEST(RotorRows, CountAddsMatchScalar) {
  Rng rng(15);
  for (const rr::Isa* isa : supported_row_isas()) {
    for (int n = 0; n <= 40; ++n) {
      std::vector<std::int64_t> dst(static_cast<std::size_t>(n) + 1),
          src(static_cast<std::size_t>(n));
      for (auto& v : dst) v = static_cast<std::int64_t>(rng.next_below(1000));
      for (auto& v : src) v = static_cast<std::int64_t>(rng.next_below(10));
      const std::int64_t s = 3 + n;
      auto want = dst;
      for (std::size_t i = 0; i < src.size(); ++i) want[i] += src[i] * s;
      isa->add_scaled(dst.data(), src.data(), n, s);
      ASSERT_EQ(want, dst) << isa->name << " add_scaled n=" << n;
      for (std::size_t i = 0; i < src.size(); ++i) want[i] += s;
      isa->add(dst.data(), n, s);
      ASSERT_EQ(want, dst) << isa->name << " add n=" << n;
    }
  }
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

TEST(FoldEngine, RefusesGridsWhoseRankCountOverflowsAnInt) {
  // A serve "experiment" request such as {"alg":"summa","n":65537,
  // "q":65537,"exec_mode":"folded"}: refused by the grid, before the
  // machine allocates anything per rank.
  for (const auto& [alg, q] : {std::pair{engine::Alg::kSumma, 65537},
                               std::pair{engine::Alg::kMm25d, 46341}}) {
    engine::ExperimentSpec spec = foldable_mm_spec();
    spec.alg = alg;
    spec.n = q;
    spec.q = q;
    spec.exec_mode = sim::ExecMode::kFolded;
    try {
      engine::execute(spec);
      ADD_FAILURE() << "q=" << q << " not refused";
    } catch (const invalid_argument_error& e) {
      EXPECT_NE(std::string(e.what()).find("more ranks than an int holds"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(FoldEngine, FoldedRequiresGhostData) {
  engine::ExperimentSpec bad = foldable_mm_spec();
  bad.data_mode = sim::DataMode::kFull;
  bad.exec_mode = sim::ExecMode::kFolded;
  EXPECT_THROW(engine::execute(bad), invalid_argument_error);
}

}  // namespace
}  // namespace alge
