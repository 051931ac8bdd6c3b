// Rotating-root fold schedules: position-parameterized destination
// semantics for the fold engine.
//
// The FoldClass uniform/scatter dichotomy (sim/fold.hpp) covers schedules
// whose peers are fixed per schedule position. SUMMA and LU rotate their
// broadcast roots through a row/column every step, and 2.5D matmul with
// c > 1 replica layers skews each layer by a layer-dependent offset — so
// no two ranks are fold-congruent under the per-position peer-class
// definition, and channel replay degenerates to one fiber per rank.
//
// A RotorSchedule is the generalization: instead of collapsing ranks into
// congruence classes, it carries the *whole* SPMD schedule as a compact op
// program parameterized by grid position (row i, column j, layer l of a
// q x q x c grid, world rank = l*q^2 + i*q + j). Machine::run evaluates
// the program with an array sweep over all p ranks — no fibers at all —
// producing per-rank RankCounters whose every field is bit-identical to
// the per-fiber ghost run:
//
//   * clock / idle_time / flops are replayed per rank in exact fiber op
//     order with the exact CostHooks expressions (floating-point addition
//     order preserved), including binomial bcast/reduce tree arrivals:
//     a child's arrival is its parent's clock after that specific
//     sequential send charge, never a closed form;
//   * words/messages sent/received are integer-valued (< 2^53), hence
//     order-independent, and accumulate in int64 profiles: one scalar
//     axis profile per grid dimension for mask-free ops (O(q) per op) and
//     a per-rank array for masked and skew ops;
//   * memory registration is uniform across ranks in these schedules, so
//     the high-water mark and the M-capacity check replay from a scalar;
//   * each op's work splits into rank-disjoint chunks (rows, row groups,
//     depth instances, skew blocks; for column collectives, blocks of
//     whole rows that are binomial subtrees, after a small phase that
//     computes the arrivals at their roots) that the members of a thread
//     team created for the call claim first come, first served, so each
//     rank's floating-point sequence is the serial one whichever member
//     runs it and at any team size. All checks, the memory replay and the
//     mask-free ops' integer profiles run in a serial pre-pass first; the
//     team itself never throws.
//
// Participation masks (row_rep/col_rep/layer_rep) make one op vector
// describe LU's shrinking active grid: member (i, j, l) participates
// row_rep[i]*col_rep[j]*layer_rep[l] times consecutively (empty = 1 for
// every coordinate). A group collective runs rep times for the group
// selected by the cross-axis masks; repetition count >1 reproduces e.g.
// LU ranks holding several block rows of a panel.
//
// Builders live in src/algs/foldmaps.cpp (foldmap_summa / foldmap_lu /
// foldmap_mm25d for c > 1); the congruence claim is verified against
// per-fiber execution by chaos::fold_explore and tests/test_fold.cpp,
// including an off-by-one root-rotation mutant that must be caught.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace alge::sim {

struct MachineConfig;
struct RankCounters;

/// One schedule position of a rotor program. Coordinates refer to the
/// q x q x c grid of RotorSchedule (rank = l*q^2 + i*q + j).
struct RotorOp {
  enum class Kind : std::uint8_t {
    kAlloc,       ///< every rank registers `words` (Buffer construction)
    kFree,        ///< every rank unregisters `words` (Buffer destruction)
    kCompute,     ///< participating ranks charge compute(`flops`)
    kBcastRow,    ///< binomial bcast over row groups, root index `root`
    kBcastCol,    ///< binomial bcast over column groups, root index `root`
    kBcastDepth,  ///< binomial bcast over layer (depth) groups
    kReduceDepth, ///< binomial reduce_sum to `root` over depth groups
    kSkewA,       ///< Cannon A-alignment sendrecv, offset l*(q/c) per layer
    kSkewB,       ///< Cannon B-alignment sendrecv
    kShiftA,      ///< Cannon step: A moves one column left
    kShiftB,      ///< Cannon step: B moves one row up
  };
  Kind kind = Kind::kCompute;
  /// Group index of the collective root (row coordinate for kBcastCol,
  /// column coordinate for kBcastRow, layer for the depth collectives).
  int root = 0;
  std::size_t words = 0;  ///< payload words (collectives, skews, alloc/free)
  double flops = 0.0;     ///< compute cost (kCompute only)
  /// Participation masks, indexed by row / column / layer coordinate.
  /// Empty means "1 for every coordinate". A group collective must leave
  /// its own axis unmasked (all members of a selected group take part).
  std::vector<std::int32_t> row_rep, col_rep, layer_rep;
};

/// A complete rotor schedule for a q x q x c grid (p = q*q*c ranks).
/// Attached to a single-class FoldMap via FoldMap::with_rotor; Machine
/// evaluates it instead of spawning fibers whenever fold_active() holds
/// and the energy ledger is off (per-phase slices are the one signal the
/// array sweep does not materialize).
struct RotorSchedule {
  int q = 0;  ///< grid side
  int c = 1;  ///< replica layers
  std::vector<RotorOp> ops;

  int p() const { return q * q * c; }
};

/// Evaluate `rs` once, accumulating into `out` (size p, one RankCounters
/// per world rank). Replays the exact CostHooks cost expressions; throws
/// SimError with the fiber path's message when the per-rank memory
/// capacity is exceeded. `cfg` must describe a fold-eligible machine
/// (ghost data, no faults/speeds/trace/ledger/network) — violations are
/// programming errors and trip ALGE_CHECK. Every check, and the memory
/// replay behind the SimError, runs before any rank is evaluated, so `out`
/// is unchanged whenever the call throws.
///
/// `threads` sizes the team that evaluates each op: the calling thread
/// plus threads - 1 threads started for this call and joined before it
/// returns. 0 picks std::thread::hardware_concurrency() - 1 members (one
/// CPU left to the rest of the system, at least one member) when the run
/// holds at least 2^24 rank-ops (p × ops.size()) and runs inline on the
/// caller otherwise. Every op's work splits into rank-disjoint chunks, each
/// rank's floating-point updates keep the serial order, so `out` is
/// bit-identical for every team size and every assignment of chunks to
/// members.
void rotor_run(const RotorSchedule& rs, const MachineConfig& cfg,
               std::vector<RankCounters>& out, int threads = 0);

}  // namespace alge::sim
