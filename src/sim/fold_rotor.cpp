// Array evaluation of rotor schedules (see fold_rotor.hpp).
//
// Bit-identity with the per-fiber ghost run rests on four invariants:
//
//   1. Clock, idle and flop deltas use the *same floating-point
//      expressions* CostHooks evaluates, specialized to the fold-eligible
//      configuration (hops = 1, tx = 1.0, speed = 1.0 — all exact
//      identities under IEEE-754), and are applied per rank in the exact
//      per-fiber op order. Binomial-tree arrivals are replayed send by
//      send: a child's arrival is the parent's clock after that specific
//      sequential send charge (parents send to children in descending
//      subtree order), never a closed form.
//
//   2. Word/message counters only ever accumulate integer values, and
//      every partial sum stays far below 2^53, so any summation order is
//      exact; they aggregate in int64 and are added to the RankCounters
//      doubles once at the end.
//
//   3. Memory registration is rank-uniform in every rotor schedule, so
//      one scalar live/peak pair stands for all ranks; the M-capacity
//      check throws the fiber path's SimError verbatim.
//
//   4. Every op's per-rank work splits into a fixed number of
//      rank-disjoint chunks: compute by grid rows, row collectives by row
//      groups, column collectives by column slices (cut at multiples of 8
//      of the op's active column list, so no two chunks write one cache
//      line of a row), depth collectives by (i, j) instances, skew/shift
//      by (layer, row) blocks in two phases, sends then receives. Each
//      chunk runs in the serial order, so every rank sees the serial
//      floating-point sequence whichever member runs it and whatever the
//      team size. Members of the call's thread team claim chunks first
//      come, first served, and a phase ends when all its chunks are done:
//      a member that the OS has descheduled holds up only the chunk it is
//      running, never the chunks it has not claimed yet.
//
// A serial pre-pass runs before the team starts and does everything that
// can fail or is not per rank: the mask, root and shape checks, the memory
// replay of invariant 3 (and its SimError), the mask-free collectives'
// axis profiles and the per-op send costs. Team members therefore never
// throw, and `out` is only written once the pre-pass has passed.
//
// The group sweeps are the hot path — a q = 1024 SUMMA run replays ~2·10⁹
// member visits — so the binomial child lists are flattened to CSR, the
// per-group replay runs in raw-pointer loops with the rank index stepped
// incrementally, and masked compute ops iterate only the coordinates with
// nonzero participation (a one-hot panel mask costs O(q), not O(q²)).
#include "sim/fold_rotor.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <memory>
#include <thread>

#include "sim/machine.hpp"
#include "support/common.hpp"

namespace alge::sim {

namespace {

/// Below this many rank-ops (p × schedule length) an automatic team is
/// not worth its thread start-up and per-op synchronization: the call runs
/// inline on the caller's thread.
constexpr double kTeamRankOps = 16777216.0;  // 2^24

/// Chunks per phase, per team member. More than one lets the members that
/// are running take over the unclaimed chunks of one that is not (another
/// process or virtual CPU has its core), so a phase is not held up for a
/// whole member's share.
constexpr int kChunksPerMember = 8;

/// Yields a member makes while the rest of a phase finishes before it
/// sleeps on the completion count (~0.3 µs each, so ~80 µs). Most phases
/// end within that, and a core that never goes idle needs no wake-up, whose
/// latency on a virtual machine grows with the load on its host. Yielding,
/// not spinning, hands the core to a member the OS has put on it too.
constexpr int kSpinYields = 256;

/// Binomial-tree child lists per virtual rank, flattened to CSR in the
/// exact descending order of Comm::bcast's send loop. val[] holds the
/// child's virtual rank (vr + offset). The reduce tree receives from the
/// same children (ascending); only the counts matter there.
struct KidsCsr {
  std::vector<int> off;  // size n+1
  std::vector<int> val;
};

KidsCsr make_kids(int n) {
  KidsCsr k;
  k.off.reserve(static_cast<std::size_t>(n) + 1);
  for (int vr = 0; vr < n; ++vr) {
    k.off.push_back(static_cast<int>(k.val.size()));
    int mask = 1;
    while (mask < n) {
      if (vr & mask) break;
      mask <<= 1;
    }
    mask >>= 1;
    while (mask > 0) {
      if (vr + mask < n && !(vr & (mask - 1))) k.val.push_back(vr + mask);
      mask >>= 1;
    }
  }
  k.off.push_back(static_cast<int>(k.val.size()));
  return k;
}

/// Integer word/message deltas for one index domain (an axis or the whole
/// rank space).
struct Profile {
  std::vector<std::int64_t> ws, ms, wr, mr;
  explicit Profile(int n)
      : ws(static_cast<std::size_t>(n), 0),
        ms(static_cast<std::size_t>(n), 0),
        wr(static_cast<std::size_t>(n), 0),
        mr(static_cast<std::size_t>(n), 0) {}
};

/// One point-to-point send, precomputed: the model message count, the
/// sender clock delta, and the integer counter deltas.
struct PointCost {
  double cost = 0.0;
  std::int64_t k = 0;
  std::int64_t m = 0;
};

int rep_at(const std::vector<std::int32_t>& mask, int i) {
  return mask.empty() ? 1 : mask[static_cast<std::size_t>(i)];
}

/// Indices with a nonzero participation count (all of them when the mask
/// is empty). `out_act` has capacity n, so this never allocates.
void active(const std::vector<std::int32_t>& mask, int n,
            std::vector<int>& out_act) {
  out_act.clear();
  for (int i = 0; i < n; ++i) {
    if (mask.empty() || mask[static_cast<std::size_t>(i)] > 0) {
      out_act.push_back(i);
    }
  }
}

/// Start of part k of [0, n) cut into `parts` near-equal parts.
std::size_t part(std::size_t n, int k, int parts) {
  return n * static_cast<std::size_t>(k) / static_cast<std::size_t>(parts);
}

/// Calls f(a, b) for part k of the row-major product A x B — the serial
/// visiting order, cut into `parts` near-equal contiguous parts.
template <class F>
void for_part(const std::vector<int>& a, const std::vector<int>& b, int k,
              int parts, F&& f) {
  const std::size_t nb = b.size();
  const std::size_t n = a.size() * nb;
  for (std::size_t g = part(n, k, parts), e = part(n, k + 1, parts); g < e;
       ++g) {
    f(a[g / nb], b[g % nb]);
  }
}

/// Chunk claims and completions of one rotor_run, shared by its team.
/// Each phase has members × per_member chunks; member k owns chunks
/// [k·per_member, (k+1)·per_member) and runs them first, in order, so with
/// no member delayed every member keeps to its own rows from op to op
/// (and its caches stay warm). A member out of chunks of its own takes the
/// unclaimed ones of the others; the phase ends when all chunks are done.
/// Counters only grow, over all phases, so a member that fell behind
/// passes the phases already finished at once.
class Team {
 public:
  Team(int members, int per_member)
      : members_(members),
        per_member_(per_member),
        next_(std::make_unique<Slot[]>(static_cast<std::size_t>(members))) {}

  int chunks() const { return members_ * per_member_; }

  /// Member k's part of phase `ph` (phases are numbered 0, 1, ... in the
  /// order every member walks them): f(chunk) for each chunk it claims,
  /// then a wait until every chunk of the phase is done, which publishes
  /// the writes of all of them.
  template <class F>
  void phase(int k, int ph, F&& f) {
    const int end = (ph + 1) * chunks();  // done_ once the phase is over
    for (int i = 0; i < members_; ++i) {
      const int owner = (k + i) % members_;
      for (int ch; (ch = claim(owner, ph)) >= 0;) {
        f(ch);
        if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 == end) {
          done_.notify_all();
        }
      }
    }
    for (int spin = 0; spin < kSpinYields; ++spin) {
      if (done_.load(std::memory_order_acquire) >= end) return;
      std::this_thread::yield();
    }
    for (int d; (d = done_.load(std::memory_order_acquire)) < end;) {
      done_.wait(d, std::memory_order_acquire);
    }
  }

 private:
  /// Claims the next unclaimed chunk of `owner` in phase `ph`, or -1.
  /// Every earlier phase is done, so the owner's counter is at least
  /// ph·per_member here.
  int claim(int owner, int ph) {
    std::atomic<int>& next = next_[static_cast<std::size_t>(owner)].next;
    const int end = (ph + 1) * per_member_;
    int v = next.load(std::memory_order_relaxed);
    while (v < end) {
      if (next.compare_exchange_weak(v, v + 1, std::memory_order_relaxed)) {
        return owner * per_member_ + (v - ph * per_member_);
      }
    }
    return -1;
  }

  struct alignas(64) Slot {
    std::atomic<int> next{0};  ///< chunks claimed, over all phases
  };
  const int members_;
  const int per_member_;
  std::unique_ptr<Slot[]> next_;
  alignas(64) std::atomic<int> done_{0};  ///< chunks done, all phases
};

/// One binomial bcast over the group at (base, stride, n) with root index
/// rho — clocks only (uniform ops account integers once per op via the
/// axis profile). Ascending virtual rank visits parents before children;
/// arr[vr] carries each member's arrival.
void bcast_group(double* clk, double* idl, double* arr, const int* koff,
                 const int* kval, int n, int rho, double cost,
                 std::size_t base, std::size_t stride) {
  const std::size_t wrap = static_cast<std::size_t>(n) * stride;
  std::size_t r = base + static_cast<std::size_t>(rho) * stride;
  for (int vr = 0; vr < n; ++vr) {
    double cl = clk[r];
    if (vr != 0) {
      const double a = arr[vr];
      if (a > cl) {
        idl[r] += a - cl;
        cl = a;
      }
    }
    const int end = koff[vr + 1];
    for (int t = koff[vr]; t < end; ++t) {
      cl += cost;
      arr[kval[t]] = cl;
    }
    clk[r] = cl;
    r += stride;
    if (r >= base + wrap) r -= wrap;
  }
}

/// Masked-group variant: the same replay plus per-rank integer deltas.
void bcast_group_masked(double* clk, double* idl, double* arr,
                        const int* koff, const int* kval, int n, int rho,
                        const PointCost& pc, std::size_t base,
                        std::size_t stride, Profile& pr) {
  const std::size_t wrap = static_cast<std::size_t>(n) * stride;
  std::size_t r = base + static_cast<std::size_t>(rho) * stride;
  for (int vr = 0; vr < n; ++vr) {
    double cl = clk[r];
    if (vr != 0) {
      const double a = arr[vr];
      if (a > cl) {
        idl[r] += a - cl;
        cl = a;
      }
      pr.wr[r] += pc.k;
      pr.mr[r] += pc.m;
    }
    const int beg = koff[vr];
    const int end = koff[vr + 1];
    for (int t = beg; t < end; ++t) {
      cl += pc.cost;
      arr[kval[t]] = cl;
    }
    pr.ws[r] += (end - beg) * pc.k;
    pr.ms[r] += (end - beg) * pc.m;
    clk[r] = cl;
    r += stride;
    if (r >= base + wrap) r -= wrap;
  }
}

/// Uniform-op integer profile: per member position, the tree's send and
/// recv counts depend only on the virtual rank.
void tree_profile(Profile& pf, const KidsCsr& kids, int n, int rho,
                  const PointCost& pc, bool reduce) {
  for (int vr = 0; vr < n; ++vr) {
    int coord = vr + rho;
    if (coord >= n) coord -= n;
    const std::size_t uc = static_cast<std::size_t>(coord);
    const std::int64_t nk = kids.off[static_cast<std::size_t>(vr) + 1] -
                            kids.off[static_cast<std::size_t>(vr)];
    if (reduce) {
      if (vr != 0) {
        pf.ws[uc] += pc.k;
        pf.ms[uc] += pc.m;
      }
      pf.wr[uc] += nk * pc.k;
      pf.mr[uc] += nk * pc.m;
    } else {
      pf.ws[uc] += nk * pc.k;
      pf.ms[uc] += nk * pc.m;
      if (vr != 0) {
        pf.wr[uc] += pc.k;
        pf.mr[uc] += pc.m;
      }
    }
  }
}

/// One team member's scratch, allocated before the team starts so the
/// sweep never allocates. A chunk uses the scratch of the member running
/// it.
struct Scratch {
  std::vector<double> arr;  // one group's arrivals, by virtual rank
  std::vector<int> row_act, col_act, lay_act;
  std::vector<int> col_reps;  // per-column replay counts, one layer
  Scratch(int q, int c)
      : arr(static_cast<std::size_t>(std::max(q, c))),
        col_reps(static_cast<std::size_t>(q)) {
    row_act.reserve(static_cast<std::size_t>(q));
    col_act.reserve(static_cast<std::size_t>(q));
    lay_act.reserve(static_cast<std::size_t>(c));
  }
};

/// The state one rotor_run shares across its team: per-rank arrays that
/// each chunk writes only at the ranks of its own part, the phase
/// counters, and read-only schedule data.
class Sweep {
 public:
  /// The serial pre-pass, in op order: every check, the rank-uniform
  /// memory replay over the pre-run baseline `mem_base` (throws its
  /// SimError), the send costs and the mask-free collectives' axis
  /// profiles. The per-rank arrays are allocated only once it has passed.
  Sweep(const RotorSchedule& rs, const core::MachineParams& mp,
        std::size_t mem_base)
      : rs_(rs),
        q_(rs.q),
        c_(rs.c),
        qq_(static_cast<std::size_t>(rs.q) * rs.q),
        gamma_(mp.gamma_t),
        cost_(rs.ops.size()),
        kids_q_(make_kids(rs.q)),
        kids_c_(make_kids(rs.c)),
        prof_i_(rs.q),
        prof_j_(rs.q),
        prof_l_(rs.c) {
    auto send_cost = [&](std::size_t words) {
      PointCost pc;
      const double k = static_cast<double>(words);
      const double nmsg = std::max(1.0, std::ceil(k / mp.max_msg_words));
      // CostHooks::send with hops=1, tx=1.0: (nmsg*1*alpha_t + k*beta_t)*1.0.
      pc.cost = nmsg * mp.alpha_t + k * mp.beta_t;
      pc.k = static_cast<std::int64_t>(words);
      pc.m = static_cast<std::int64_t>(nmsg);
      return pc;
    };
    auto check_mask = [&](const std::vector<std::int32_t>& mask, int n) {
      ALGE_CHECK(mask.empty() || static_cast<int>(mask.size()) == n,
                 "rotor mask sized %zu on an axis of %d", mask.size(), n);
      for (const std::int32_t v : mask) {
        ALGE_CHECK(v >= 0, "negative rotor participation count");
      }
    };
    bool rank_profile = false, col_groups = false, skews = false;
    std::int64_t mem_cur = 0;
    for (std::size_t o = 0; o < rs.ops.size(); ++o) {
      const RotorOp& op = rs.ops[o];
      check_mask(op.row_rep, q_);
      check_mask(op.col_rep, q_);
      check_mask(op.layer_rep, c_);
      const bool uniform =
          op.row_rep.empty() && op.col_rep.empty() && op.layer_rep.empty();
      switch (op.kind) {
        case RotorOp::Kind::kAlloc: {
          mem_cur += static_cast<std::int64_t>(op.words);
          mem_peak_ = std::max(mem_peak_, mem_cur);
          const std::size_t live =
              mem_base + static_cast<std::size_t>(mem_cur);
          if (mp.mem_words > 0.0 && static_cast<double>(live) > mp.mem_words) {
            // Rank 0's fiber registers first and throws first.
            throw SimError(strfmt(
                "rank %d out of memory: %zu words live, per-rank capacity "
                "M=%.0f",
                0, live, mp.mem_words));
          }
          break;
        }
        case RotorOp::Kind::kFree:
          ALGE_CHECK(mem_cur >= static_cast<std::int64_t>(op.words),
                     "memory underflow on rank %d", 0);
          mem_cur -= static_cast<std::int64_t>(op.words);
          break;
        case RotorOp::Kind::kCompute:
          break;
        case RotorOp::Kind::kBcastRow:
        case RotorOp::Kind::kBcastCol:
        case RotorOp::Kind::kBcastDepth:
        case RotorOp::Kind::kReduceDepth: {
          const bool depth = op.kind == RotorOp::Kind::kBcastDepth ||
                             op.kind == RotorOp::Kind::kReduceDepth;
          const bool row_groups = op.kind == RotorOp::Kind::kBcastRow;
          const int n = depth ? c_ : q_;
          ALGE_CHECK(op.root >= 0 && op.root < n,
                     "rotor collective root %d on a group of %d", op.root, n);
          // The member axis must be unmasked: a group collective always
          // involves the whole group.
          if (depth) {
            ALGE_CHECK(op.layer_rep.empty(),
                       "depth collective with a masked layer axis");
          } else if (row_groups) {
            ALGE_CHECK(op.col_rep.empty(),
                       "row collective with a masked column axis");
          } else {
            ALGE_CHECK(op.row_rep.empty(),
                       "column collective with a masked row axis");
          }
          cost_[o] = send_cost(op.words);
          if (uniform) {
            tree_profile(depth ? prof_l_ : (row_groups ? prof_j_ : prof_i_),
                         depth ? kids_c_ : kids_q_, n, op.root, cost_[o],
                         op.kind == RotorOp::Kind::kReduceDepth);
          }
          rank_profile = rank_profile || !uniform;
          col_groups = col_groups || op.kind == RotorOp::Kind::kBcastCol;
          break;
        }
        case RotorOp::Kind::kSkewA:
        case RotorOp::Kind::kSkewB:
        case RotorOp::Kind::kShiftA:
        case RotorOp::Kind::kShiftB:
          ALGE_CHECK(uniform, "skew/shift ops are unmasked");
          ALGE_CHECK(q_ % c_ == 0, "skew needs c | q");
          cost_[o] = send_cost(op.words);
          rank_profile = skews = true;
          break;
      }
    }
    mem_end_ = mem_cur;
    const std::size_t p = static_cast<std::size_t>(rs.p());
    clock_.resize(p);
    idle_.resize(p);
    flops_.resize(p);
    if (rank_profile) prof_r_ = std::make_unique<Profile>(rs.p());
    if (skews) arr_rank_.resize(p);
    if (col_groups) arr_cols_.resize(qq_);
  }

  /// Member k's walk through every phase in schedule order, one phase per
  /// op (two per skew/shift): the rows of `out` are read in a phase before
  /// the first op and written in one after the last. Each member uses its
  /// own `sc`.
  void run(Team& team, int member, Scratch& sc,
           std::vector<RankCounters>& out) {
    const int n = team.chunks();
    int ph = 0;
    auto run_phase = [&](auto&& f) { team.phase(member, ph++, f); };
    run_phase([&](int k) {
      const std::size_t r1 = rows_begin(k + 1, n) * q_;
      for (std::size_t r = rows_begin(k, n) * q_; r < r1; ++r) {
        clock_[r] = out[r].clock;
        idle_[r] = out[r].idle_time;
        flops_[r] = out[r].flops;
      }
    });
    for (std::size_t o = 0; o < rs_.ops.size(); ++o) {
      const RotorOp& op = rs_.ops[o];
      const PointCost& pc = cost_[o];
      switch (op.kind) {
        case RotorOp::Kind::kAlloc:
        case RotorOp::Kind::kFree:
          continue;  // replayed by the pre-pass
        case RotorOp::Kind::kCompute:
          run_phase([&](int k) { compute(op, k, n, sc); });
          break;
        case RotorOp::Kind::kBcastRow:
        case RotorOp::Kind::kBcastDepth:
        case RotorOp::Kind::kReduceDepth:
          run_phase([&](int k) { groups(op, pc, k, n, sc); });
          break;
        case RotorOp::Kind::kBcastCol:
          run_phase([&](int k) { columns(op, pc, k, n, sc); });
          break;
        case RotorOp::Kind::kSkewA:
        case RotorOp::Kind::kSkewB:
        case RotorOp::Kind::kShiftA:
        case RotorOp::Kind::kShiftB:
          run_phase([&](int k) { skew(op, pc, k, n, false); });
          run_phase([&](int k) { skew(op, pc, k, n, true); });
          break;
      }
    }
    run_phase([&](int k) { store(k, n, out); });
  }

 private:
  /// First grid row (l*q + i) of part k of `parts`.
  std::size_t rows_begin(int k, int parts) const {
    return part(static_cast<std::size_t>(c_) * q_, k, parts);
  }

  void compute(const RotorOp& op, int k, int parts, Scratch& sc) {
    const double f = op.flops;
    // CostHooks::compute with speed=1.0: gamma_t*flops/1.0.
    const double dt = gamma_ * f;
    double* const clk = clock_.data();
    double* const flp = flops_.data();
    if (op.row_rep.empty() && op.col_rep.empty() && op.layer_rep.empty()) {
      const std::size_t r1 = rows_begin(k + 1, parts) * q_;
      for (std::size_t r = rows_begin(k, parts) * q_; r < r1; ++r) {
        flp[r] += f;
        clk[r] += dt;
      }
      return;
    }
    active(op.row_rep, q_, sc.row_act);
    active(op.col_rep, q_, sc.col_act);
    active(op.layer_rep, c_, sc.lay_act);
    for_part(sc.lay_act, sc.row_act, k, parts, [&](int l, int i) {
      const int ir = rep_at(op.row_rep, i) * rep_at(op.layer_rep, l);
      const std::size_t row_base = static_cast<std::size_t>(l) * qq_ +
                                   static_cast<std::size_t>(i) * q_;
      for (const int j : sc.col_act) {
        const int reps = ir * rep_at(op.col_rep, j);
        const std::size_t r = row_base + static_cast<std::size_t>(j);
        double fl = flp[r];
        double cl = clk[r];
        for (int t = 0; t < reps; ++t) {
          fl += f;
          cl += dt;
        }
        flp[r] = fl;
        clk[r] = cl;
      }
    });
  }

  /// One binomial reduce_sum: descending virtual rank visits children
  /// before their parent; each merge replays Comm::reduce_sum's
  /// recv-then-compute(k) pair in order.
  void reduce_group(double* arr, std::size_t base, std::size_t stride, int n,
                    int rho, const PointCost& pc, double fk, double dt_merge,
                    Profile* pr) {
    double* const clk = clock_.data();
    double* const idl = idle_.data();
    double* const flp = flops_.data();
    for (int vr = n - 1; vr >= 0; --vr) {
      int coord = vr + rho;
      if (coord >= n) coord -= n;
      const std::size_t r = base + static_cast<std::size_t>(coord) * stride;
      double cl = clk[r];
      for (int mask = 1; mask < n; mask <<= 1) {
        if (vr & mask) {
          cl += pc.cost;
          arr[vr] = cl;
          if (pr != nullptr) {
            pr->ws[r] += pc.k;
            pr->ms[r] += pc.m;
          }
          break;
        }
        if (vr + mask < n) {
          const double a = arr[vr + mask];
          if (a > cl) {
            idl[r] += a - cl;
            cl = a;
          }
          if (pr != nullptr) {
            pr->wr[r] += pc.k;
            pr->mr[r] += pc.m;
          }
          flp[r] += fk;
          cl += dt_merge;
        }
      }
      clk[r] = cl;
    }
  }

  /// Row and depth collectives: chunk k replays its part of the selected
  /// group instances, each instance's repetitions back to back.
  void groups(const RotorOp& op, const PointCost& pc, int k, int parts,
              Scratch& sc) {
    const bool depth = op.kind != RotorOp::Kind::kBcastRow;
    const bool reduce = op.kind == RotorOp::Kind::kReduceDepth;
    const int n = depth ? c_ : q_;
    const KidsCsr& kids = depth ? kids_c_ : kids_q_;
    const int* const koff = kids.off.data();
    const int* const kval = kids.val.data();
    const double fk = static_cast<double>(op.words);
    const double dt_merge = gamma_ * fk;
    const bool uniform =
        op.row_rep.empty() && op.col_rep.empty() && op.layer_rep.empty();
    Profile* const pr = uniform ? nullptr : prof_r_.get();
    double* const arr = sc.arr.data();
    auto run_one = [&](std::size_t base, std::size_t stride, int reps) {
      for (int t = 0; t < reps; ++t) {
        if (reduce) {
          reduce_group(arr, base, stride, n, op.root, pc, fk, dt_merge, pr);
        } else if (pr == nullptr) {
          bcast_group(clock_.data(), idle_.data(), arr, koff, kval, n,
                      op.root, pc.cost, base, stride);
        } else {
          bcast_group_masked(clock_.data(), idle_.data(), arr, koff, kval, n,
                             op.root, pc, base, stride, *pr);
        }
      }
    };
    active(op.row_rep, q_, sc.row_act);
    if (depth) {
      active(op.col_rep, q_, sc.col_act);
      for_part(sc.row_act, sc.col_act, k, parts, [&](int i, int j) {
        run_one(static_cast<std::size_t>(i) * q_ + static_cast<std::size_t>(j),
                qq_, rep_at(op.row_rep, i) * rep_at(op.col_rep, j));
      });
    } else {
      active(op.layer_rep, c_, sc.lay_act);
      for_part(sc.lay_act, sc.row_act, k, parts, [&](int l, int i) {
        run_one(static_cast<std::size_t>(l) * qq_ +
                    static_cast<std::size_t>(i) * q_,
                1, rep_at(op.layer_rep, l) * rep_at(op.row_rep, i));
      });
    }
  }

  /// Column collectives, vr-major: the inner loop walks one member row of
  /// the grid contiguously across the member's column slice. The
  /// group-major order would touch a fresh page per member (stride q
  /// doubles) and run ~7x slower TLB-bound. Groups are rank-disjoint, so
  /// evaluating them in lockstep is the same per-rank op sequence the
  /// fiber path runs. arr_cols_ is [virtual rank][column]. Sweep t runs
  /// replay t of every column whose count exceeds t, so replays of one
  /// column stay sequential while columns advance in lockstep. Chunk k
  /// takes slice k of `parts`.
  void columns(const RotorOp& op, const PointCost& pc, int k, int parts,
               Scratch& sc) {
    active(op.col_rep, q_, sc.col_act);
    const std::size_t n_act = sc.col_act.size();
    const auto cut = [&](int m) {
      return m == parts ? n_act : part(n_act, m, parts) & ~std::size_t{7};
    };
    const std::size_t a0 = cut(k);
    const std::size_t a1 = cut(k + 1);
    if (a0 >= a1) return;
    const int j0 = sc.col_act[a0];
    const int j1 = sc.col_act[a1 - 1] + 1;
    const int* const koff = kids_q_.off.data();
    const int* const kval = kids_q_.val.data();
    const bool uniform =
        op.row_rep.empty() && op.col_rep.empty() && op.layer_rep.empty();
    Profile* const pr = uniform ? nullptr : prof_r_.get();
    double* const arrc = arr_cols_.data();
    int* const reps = sc.col_reps.data();
    active(op.layer_rep, c_, sc.lay_act);
    for (const int l : sc.lay_act) {
      const int lr = rep_at(op.layer_rep, l);
      int rmax = 0;
      for (int j = j0; j < j1; ++j) {
        reps[j] = lr * rep_at(op.col_rep, j);
        rmax = std::max(rmax, reps[j]);
      }
      const std::size_t lbase = static_cast<std::size_t>(l) * qq_;
      for (int t = 0; t < rmax; ++t) {
        for (int vr = 0; vr < q_; ++vr) {
          int coord = vr + op.root;
          if (coord >= q_) coord -= q_;
          const std::size_t row = lbase + static_cast<std::size_t>(coord) * q_;
          double* const crow = clock_.data() + row;
          double* const irow = idle_.data() + row;
          const double* const av = arrc + static_cast<std::size_t>(vr) * q_;
          const int beg = koff[vr];
          const int end = koff[vr + 1];
          if (pr == nullptr) {
            for (int j = j0; j < j1; ++j) {
              double cl = crow[j];
              if (vr != 0) {
                const double a = av[j];
                if (a > cl) {
                  irow[j] += a - cl;
                  cl = a;
                }
              }
              for (int t2 = beg; t2 < end; ++t2) {
                cl += pc.cost;
                arrc[static_cast<std::size_t>(kval[t2]) * q_ + j] = cl;
              }
              crow[j] = cl;
            }
          } else {
            std::int64_t* const wsr = pr->ws.data() + row;
            std::int64_t* const msr = pr->ms.data() + row;
            std::int64_t* const wrr = pr->wr.data() + row;
            std::int64_t* const mrr = pr->mr.data() + row;
            const std::int64_t dws = (end - beg) * pc.k;
            const std::int64_t dms = (end - beg) * pc.m;
            for (int j = j0; j < j1; ++j) {
              if (reps[j] <= t) continue;
              double cl = crow[j];
              if (vr != 0) {
                const double a = av[j];
                if (a > cl) {
                  irow[j] += a - cl;
                  cl = a;
                }
                wrr[j] += pc.k;
                mrr[j] += pc.m;
              }
              for (int t2 = beg; t2 < end; ++t2) {
                cl += pc.cost;
                arrc[static_cast<std::size_t>(kval[t2]) * q_ + j] = cl;
              }
              wsr[j] += dws;
              msr[j] += dms;
              crow[j] = cl;
            }
          }
        }
      }
    }
  }

  /// Cannon skews and shifts over chunk k's (layer, row) block, in two
  /// phases like the fiber sendrecv: every rank's send charge, then (with
  /// `recv`) the sync to the source's post-send clock. Both run in
  /// world-rank order; the phase boundary between them publishes every
  /// sender's arrival.
  void skew(const RotorOp& op, const PointCost& pc, int k, int parts,
            bool recv) {
    const int q = q_;
    const int steps = q / c_;
    const bool skew = op.kind == RotorOp::Kind::kSkewA ||
                      op.kind == RotorOp::Kind::kSkewB;
    const bool on_a = op.kind == RotorOp::Kind::kSkewA ||
                      op.kind == RotorOp::Kind::kShiftA;
    // Self-exchange coordinate per layer: Cannon's alignment leaves row
    // i = -s0 mod q (A) / column j = -s0 mod q (B) in place; the one-step
    // shifts never self-send (q >= 2 whenever they appear).
    auto src_of = [&](int l, int i, int j) -> std::size_t {
      const int s0 = skew ? l * steps : 0;
      int si = i;
      int sj = j;
      if (skew) {
        const int t = (i + j + s0) % q;
        if (on_a) {
          sj = t;
        } else {
          si = t;
        }
      } else if (on_a) {
        sj = j + 1 == q ? 0 : j + 1;
      } else {
        si = i + 1 == q ? 0 : i + 1;
      }
      return static_cast<std::size_t>(l) * qq_ +
             static_cast<std::size_t>(si) * q +
             static_cast<std::size_t>(sj);
    };
    auto is_self = [&](int l, int i, int j) {
      if (!skew) return q == 1;
      const int coord = on_a ? i : j;
      return (coord + l * steps) % q == 0;
    };
    double* const clk = clock_.data();
    double* const idl = idle_.data();
    Profile& pr = *prof_r_;
    const std::size_t g0 = rows_begin(k, parts);
    const std::size_t g1 = rows_begin(k + 1, parts);
    std::size_t r = g0 * q;
    if (!recv) {
      for (std::size_t g = g0; g < g1; ++g) {
        const int l = static_cast<int>(g / q);
        const int i = static_cast<int>(g % q);
        for (int j = 0; j < q; ++j, ++r) {
          if (is_self(l, i, j)) continue;
          const double cl = clk[r] + pc.cost;
          clk[r] = cl;
          arr_rank_[r] = cl;
          pr.ws[r] += pc.k;
          pr.ms[r] += pc.m;
        }
      }
      return;
    }
    for (std::size_t g = g0; g < g1; ++g) {
      const int l = static_cast<int>(g / q);
      const int i = static_cast<int>(g % q);
      for (int j = 0; j < q; ++j, ++r) {
        pr.wr[r] += pc.k;
        if (is_self(l, i, j)) continue;  // arrival == own clock, 0 msgs
        const double a = arr_rank_[src_of(l, i, j)];
        if (a > clk[r]) {
          idl[r] += a - clk[r];
          clk[r] = a;
        }
        pr.mr[r] += pc.m;
      }
    }
  }

  /// Materialize chunk k's rows: exact doubles back in place, integer
  /// deltas added once (hop-weighted counters equal the plain ones on the
  /// flat network).
  void store(int k, int parts, std::vector<RankCounters>& out) const {
    const std::size_t mem_now = static_cast<std::size_t>(mem_end_);
    const std::size_t peak = static_cast<std::size_t>(mem_peak_);
    const std::size_t g0 = rows_begin(k, parts);
    const std::size_t g1 = rows_begin(k + 1, parts);
    std::size_t r = g0 * q_;
    for (std::size_t g = g0; g < g1; ++g) {
      const std::size_t ul = g / q_;
      const std::size_t ui = g % q_;
      for (std::size_t uj = 0; uj < static_cast<std::size_t>(q_); ++uj, ++r) {
        RankCounters& rc = out[r];
        rc.clock = clock_[r];
        rc.idle_time = idle_[r];
        rc.flops = flops_[r];
        std::int64_t ws = prof_i_.ws[ui] + prof_j_.ws[uj] + prof_l_.ws[ul];
        std::int64_t ms = prof_i_.ms[ui] + prof_j_.ms[uj] + prof_l_.ms[ul];
        std::int64_t wr = prof_i_.wr[ui] + prof_j_.wr[uj] + prof_l_.wr[ul];
        std::int64_t mr = prof_i_.mr[ui] + prof_j_.mr[uj] + prof_l_.mr[ul];
        if (prof_r_) {
          ws += prof_r_->ws[r];
          ms += prof_r_->ms[r];
          wr += prof_r_->wr[r];
          mr += prof_r_->mr[r];
        }
        rc.words_sent += static_cast<double>(ws);
        rc.msgs_sent += static_cast<double>(ms);
        rc.words_hops += static_cast<double>(ws);
        rc.msgs_hops += static_cast<double>(ms);
        rc.words_recv += static_cast<double>(wr);
        rc.msgs_recv += static_cast<double>(mr);
        rc.mem_highwater = std::max(rc.mem_highwater, rc.mem_words + peak);
        rc.mem_words += mem_now;
      }
    }
  }

  const RotorSchedule& rs_;
  const int q_;
  const int c_;
  const std::size_t qq_;
  const double gamma_;
  std::vector<PointCost> cost_;  ///< per op (collectives, skews)
  const KidsCsr kids_q_;
  const KidsCsr kids_c_;
  // Integer deltas of the mask-free collectives, per axis coordinate.
  Profile prof_i_;  ///< by row coordinate (column collectives)
  Profile prof_j_;  ///< by column coordinate (row collectives)
  Profile prof_l_;  ///< by layer (depth collectives)
  std::int64_t mem_end_ = 0;   ///< live words at the end, over the baseline
  std::int64_t mem_peak_ = 0;  ///< high-water mark, over the baseline
  // Hot per-rank state, SoA so sweeps stream through memory.
  std::vector<double> clock_, idle_, flops_;
  /// Per-rank integer deltas, materialized only when a masked or skew op
  /// needs them (mask-free collectives use the axis profiles).
  std::unique_ptr<Profile> prof_r_;
  std::vector<double> arr_rank_;  ///< skew/shift arrivals, all ranks
  std::vector<double> arr_cols_;  ///< column-collective arrivals
};

/// Runs body(k) for k = 1..team-1 on threads started for the call and
/// body(0) on the calling thread, and joins them before returning. If a
/// thread cannot be started the call goes on with the members it has:
/// the others take over the chunks of a member that never runs.
template <class Body>
void run_team(int team, const Body& body) {
  std::vector<std::thread> workers;
  try {
    workers.reserve(static_cast<std::size_t>(team) - 1);
    for (int k = 1; k < team; ++k) workers.emplace_back(body, k);
  } catch (const std::exception&) {
    // Go on with the members started so far.
  }
  body(0);
  for (std::thread& w : workers) w.join();
}

}  // namespace

void rotor_run(const RotorSchedule& rs, const MachineConfig& cfg,
               std::vector<RankCounters>& out, int threads) {
  const int q = rs.q;
  const int c = rs.c;
  const int p = rs.p();
  ALGE_CHECK(q >= 1 && c >= 1, "rotor schedule needs q >= 1 and c >= 1");
  ALGE_CHECK(static_cast<int>(out.size()) == p,
             "rotor counters sized %zu for p=%d", out.size(), p);
  ALGE_CHECK(cfg.data_mode == DataMode::kGhost && cfg.faults == nullptr &&
                 cfg.speed.empty() && !cfg.enable_trace &&
                 !cfg.enable_ledger && cfg.network == nullptr,
             "rotor evaluation on a non-fold-eligible machine");
  ALGE_CHECK(threads >= 0, "rotor team of %d threads", threads);

  int team = threads;
  if (team == 0) {
    const double rank_ops =
        static_cast<double>(p) * static_cast<double>(rs.ops.size());
    team = rank_ops < kTeamRankOps
               ? 1
               : std::max(1, static_cast<int>(
                                 std::thread::hardware_concurrency()));
  }
  Sweep sweep(rs, cfg.params, out[0].mem_words);
  Team claims(team, team == 1 ? 1 : kChunksPerMember);
  // Chunk counts over all phases (at most two per op, plus load and
  // store) must fit the int counters.
  ALGE_CHECK(static_cast<double>(claims.chunks()) *
                     (2.0 * static_cast<double>(rs.ops.size()) + 2.0) <
                 2147483647.0,
             "rotor schedule of %zu ops too long for a team of %d",
             rs.ops.size(), team);
  std::vector<Scratch> scratch;
  scratch.reserve(static_cast<std::size_t>(team));
  for (int k = 0; k < team; ++k) scratch.emplace_back(q, c);
  run_team(team, [&](int k) {
    sweep.run(claims, k, scratch[static_cast<std::size_t>(k)], out);
  });
}

}  // namespace alge::sim
