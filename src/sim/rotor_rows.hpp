// The inner loops of the rotor sweep (fold_rotor.cpp) over one grid row or
// one group, in one variant per instruction set.
//
// Contract, the same for every variant: each rank sees the floating-point
// operations of the scalar loop, in the same order, so every variant gives
// bit-identical clocks, idle times and flops. Vector lanes are ranks; a
// lane never combines values of two ranks except to read the arrival its
// rank receives. Integer counters are exact in any order.
//
// Binomial broadcasts run level by level. Virtual rank vr > 0 receives at
// level lowbit(vr) from vr - lowbit(vr) and then sends at every lower
// level, in descending order, to vr + 2^k while that is a member: the
// per-rank order of Comm::bcast's send loop. Levels are therefore replayed
// from the top down, each level's (sender, receiver) pairs being
// independent: the sender charges its send, and the receiver syncs to the
// sender's clock right after that charge. Every rank's sequence — one sync,
// then its sends high to low — is the one it runs in the per-fiber
// broadcast, with no arrival buffer. On a contiguous group the levels below
// the vector width run in registers, one block of W consecutive virtual
// ranks at a time; the block that wraps past the group's end and a partial
// last block run as scalar pairs, as do all levels of a strided group.
//
// The variant is chosen once, from the CPU (support/cpu.hpp), on first use;
// there is no setting. The table is public so tests can run every variant
// the host supports against scalar oracles.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace alge::sim::rotor_rows {

/// CostHooks' receive-side sync: a rank whose clock `cl` is behind an
/// arrival `a` idles until it (a tie does not idle).
inline double sync(double a, double cl, double& idl) {
  if (a > cl) {
    idl += a - cl;
    return a;
  }
  return cl;
}

/// One grid row of a column collective's phase B (fold_rotor.cpp): for
/// each participating column j in [j0, j1), the row's rank syncs to
/// arrive[j] (none at the tree root), charges `cross` sends to other
/// blocks' roots, then for each d < n_dst charges one send and writes its
/// clock to dst[d][j].
struct ColRow {
  double* clk = nullptr;
  double* idl = nullptr;
  const double* arrive = nullptr;  ///< arrivals by column; null at the root
  int cross = 0;
  double* const* dst = nullptr;
  int n_dst = 0;
  double cost = 0.0;
  int j0 = 0, j1 = 0;
  /// Participation: with `reps` set only columns with reps[j] > t take
  /// part; without, every column does.
  const std::int64_t* reps = nullptr;
  std::int64_t t = 0;
};

struct Isa {
  const char* name;
  /// Whether this CPU can run the variant.
  bool (*supported)();
  /// One binomial broadcast (Comm::bcast's tree) over the n >= 1 members at
  /// clk[x·stride], idl[x·stride], x < n, rooted at member rho: every send
  /// charges `cost`. Member x has virtual rank (x - rho) mod n.
  void (*bcast)(double* clk, double* idl, std::size_t stride, int n, int rho,
                double cost);
  /// n ranks each charge `reps` computes: clk += dt and flp += f, reps
  /// times.
  void (*compute)(double* clk, double* flp, int n, int reps, double dt,
                  double f);
  /// A column collective's phase B on one grid row (ColRow).
  void (*col_row)(const ColRow& row);
  /// n ranks each charge a send: clk[j] += cost, and arr[j] gets the clock.
  void (*send)(double* clk, double* arr, int n, double cost);
  /// n ranks each receive: clk[j] = sync(src[j·stride], clk[j], idl[j]).
  void (*recv)(double* clk, double* idl, const double* src,
               std::size_t stride, int n);
  /// dst[i] += src[i]·s for i < n.
  void (*add_scaled)(std::int64_t* dst, const std::int64_t* src, int n,
                     std::int64_t s);
  /// dst[i] += v for i < n.
  void (*add)(std::int64_t* dst, int n, std::int64_t v);
};

/// Every compiled variant, widest first.
std::span<const Isa> isas();

/// The widest variant this CPU supports, resolved on first call.
const Isa& active();

}  // namespace alge::sim::rotor_rows
