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
//      subtree order), never a closed form. A row or depth broadcast runs
//      level by level from the top: a member receives at the level of its
//      virtual rank's lowest set bit and sends at every lower one, so
//      replaying each level's (sender, receiver) pairs in descending level
//      order gives every member its per-fiber sequence, one sync and then
//      its sends high to low (sim/rotor_rows.hpp). The inner loops over a
//      grid row (sim/rotor_rows.hpp) run as many ranks per vector as the
//      CPU's widest supported instruction set holds, one rank per lane;
//      each lane evaluates the scalar expression, so the bits are the same
//      on every variant.
//
//   2. Word/message counters only ever accumulate integer values, and
//      every partial sum stays far below 2^53, so any summation order is
//      exact; they aggregate in int64 and are added to the RankCounters
//      doubles once at the end. Wherever a count depends only on a
//      rank's (layer, row), (layer, column) or layer coordinates, the
//      pre-pass adds it to that axis profile: mask-free collectives, a
//      masked broadcast's receives (less the root's) and skew/shift
//      traffic. Per rank are counted only a masked collective's sends and
//      a masked reduce's receives. A masked row or column broadcast's
//      sends are added when the grid row is stored, not per op: a row
//      broadcast's are the tree's child counts, rotated by the root, times
//      the row's repetitions; a column broadcast's are the row's child
//      count in every column group, times that column's repetitions.
//
//   3. Memory registration is rank-uniform in every rotor schedule, so
//      one scalar live/peak pair stands for all ranks; the M-capacity
//      check throws the fiber path's SimError verbatim.
//
//   4. The run is planned into phases, and within a phase every rank
//      belongs to exactly one of a fixed number of chunks. A chunk runs
//      the phase's op segments on its ranks back to back, in schedule
//      order per rank, so every rank sees the serial floating-point
//      sequence whichever member runs it and whatever the team size. The
//      first segment of a phase fixes its partition: compute, row
//      collectives, skew/shift sends and receives, load and store cut the
//      first segment's active grid rows (layer, row) into contiguous runs;
//      a column collective's phase B cuts one layer's virtual ranks into
//      aligned power-of-two blocks of whole grid rows, each a binomial
//      subtree; its phase A cuts the columns; depth collectives cut the
//      (i, j) instances. A later op joins the open phase only if it touches
//      nothing but whole grid rows of that partition (compute, row
//      collectives, skew/shift sends, store). A phase boundary stays only
//      where a rank reads state that another chunk wrote since the last
//      one:
//        - before a column collective's phase A, which reads the
//          block-root rows after every earlier op, and between its phases
//          A and B, whose block roots take their arrivals from phase A;
//        - between a skew/shift's sends and its receives; sends alternate
//          between two arrival buffers, so a phase's receives never read
//          the buffer its sends write;
//        - around depth collectives;
//        - around a serial phase: a run of consecutive ops that each touch
//          fewer ranks than one chunk's share of p runs whole, in schedule
//          order, as the one chunk with work in its phase.
//      A chunk walks its grid rows one at a time through all of the
//      phase's segments, so a row's clock, idle and flop entries stay in
//      cache from op to op. In a column collective's phase B a row writes
//      its children's arrivals into the level buffer before any later
//      segment moves its clock on, and its block's rows run in ascending
//      virtual rank, parents first. Chunks that split a grid row (column
//      slices, (i, j) instances) may share a cache line at their edges,
//      since a std::vector<double> need not start on one: that costs some
//      false sharing at the cuts, never a wrong value. Members of the
//      call's thread team claim chunks first come, first served, and a
//      phase ends when all its chunks are done: a member that the OS has
//      descheduled holds up only the chunk it is running, never the chunks
//      it has not claimed yet.
//
// A serial pre-pass runs before the team starts and does everything that
// can fail or is not per rank: the mask, root and shape checks, the memory
// replay of invariant 3 (and its SimError), the axis profiles of
// invariant 2, the per-op send costs and the phase plan. Team members
// therefore never throw, and `out` is only written once the pre-pass has
// passed.
//
// The group sweeps are the hot path — a q = 1024 SUMMA run replays ~2·10⁹
// member visits — so row broadcasts keep no arrivals at all (level order),
// column collectives read the binomial child lists flattened to CSR, the
// row loops run at the vector width, and masked ops visit only the grid
// rows and the column range with nonzero participation (a one-hot panel
// mask costs O(q), not O(q²)). Column collectives walk whole grid rows:
// each chunk streams through a run of consecutive rows (one block,
// wrapping at most once at the root) instead of a slice of every row, and
// keeps its arrivals in a buffer of log2(block) rows per member, not a
// q × q array.
#include "sim/fold_rotor.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <exception>
#include <limits>
#include <memory>
#include <thread>

#include "sim/machine.hpp"
#include "sim/rotor_rows.hpp"
#include "support/common.hpp"

namespace alge::sim {

namespace {

/// Below this many rank-ops (p × schedule length) an automatic team is
/// not worth its thread start-up and per-phase synchronization: the call
/// runs inline on the caller's thread.
constexpr double kTeamRankOps = 16777216.0;  // 2^24

/// Hardware threads an automatic team leaves to the rest of the system.
/// A member preempted by another runnable thread holds up every phase
/// until it runs again. With a CPU to spare the OS runs that thread there;
/// with every CPU in the team it cannot, and the run's time follows
/// whatever else the machine is running.
constexpr int kSpareCpus = 1;

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

/// Sends per virtual rank of a tree: its child count.
std::vector<std::int64_t> kid_counts(const KidsCsr& k) {
  std::vector<std::int64_t> n(k.off.size() - 1);
  for (std::size_t vr = 0; vr < n.size(); ++vr) {
    n[vr] = k.off[vr + 1] - k.off[vr];
  }
  return n;
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

using Mask = std::vector<RotorRun>;

/// f(begin, end, rep) for each run of `mask` on an axis of n, in order; an
/// empty mask is one run over the whole axis.
template <class F>
void for_runs(const Mask& mask, int n, F&& f) {
  if (mask.empty()) return f(0, n, 1);
  for (const RotorRun& r : mask) f(r.begin, r.end, r.rep);
}

/// Participation count of coordinate i: its run's, 0 outside every run.
int rep_at(const Mask& mask, int i) {
  if (mask.empty()) return 1;
  const auto run = std::partition_point(
      mask.begin(), mask.end(), [i](const RotorRun& r) { return r.end <= i; });
  return run != mask.end() && run->begin <= i ? run->rep : 0;
}

/// Largest participation count of a mask (1 when it is empty).
int max_rep(const Mask& mask) {
  return mask.empty() ? 1 : std::ranges::max(mask, {}, &RotorRun::rep).rep;
}

/// f(x, rep) for every coordinate x of an axis of n that `mask` selects,
/// in ascending order.
template <class F>
void each_rep(const Mask& mask, int n, F&& f) {
  for_runs(mask, n, [&f](int b, int e, int rep) {
    for (int x = b; x < e; ++x) f(x, rep);
  });
}

/// Indices with a nonzero participation count (all of them when the mask
/// is empty). `out_act` has capacity n, so this never allocates.
void active(const Mask& mask, int n, std::vector<int>& out_act) {
  out_act.clear();
  each_rep(mask, n, [&out_act](int x, int) { out_act.push_back(x); });
}

/// Whether `outer` selects every coordinate that `inner` selects on an
/// axis of n: x walks each inner run past the sorted outer runs holding it.
bool covers(const Mask& outer, const Mask& inner, int n) {
  bool in = true;
  for_runs(inner, n, [&](int x, int e, int) {
    for_runs(outer, n, [&x](int b, int f, int) { if (b <= x && x < f) x = f; });
    in = in && x >= e;
  });
  return in;
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
/// no member delayed every member keeps to its own rows from phase to
/// phase (and its caches stay warm). A member out of chunks of its own
/// takes the unclaimed ones of the others; the phase ends when all chunks
/// are done.
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

/// Uniform-op integer profile: per member position, the tree's send and
/// recv counts depend only on the virtual rank (`kids`: child counts).
/// Member coordinate x is entry at + x of `pf`.
void tree_profile(Profile& pf, std::size_t at,
                  const std::vector<std::int64_t>& kids, int n, int rho,
                  const PointCost& pc, bool reduce) {
  for (int vr = 0; vr < n; ++vr) {
    int coord = vr + rho;
    if (coord >= n) coord -= n;
    const std::size_t uc = at + static_cast<std::size_t>(coord);
    const std::int64_t nk = kids[static_cast<std::size_t>(vr)];
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

/// Active coordinates of a mask on an axis of n (n when it is empty).
double n_active(const Mask& mask, int n) {
  double k = 0.0;
  for_runs(mask, n, [&k](int b, int e, int) { k += e - b; });
  return k;
}

/// Every check on the schedule's shape: grid and rank count, mask runs,
/// collective roots and unmasked member axes, the skew/shift
/// preconditions. A violation is a programming error.
void check_schedule(const RotorSchedule& rs) {
  const int q = rs.q;
  const int c = rs.c;
  ALGE_CHECK(q >= 1 && c >= 1, "rotor schedule needs q >= 1 and c >= 1");
  ALGE_CHECK(static_cast<double>(q) * q * c <= std::numeric_limits<int>::max(),
             "rotor grid %d x %d x %d has more ranks than an int holds", q,
             q, c);
  auto check_mask = [](const Mask& mask, int n) {
    for (std::size_t k = 0; k < mask.size(); ++k) {
      const RotorRun& r = mask[k];
      ALGE_CHECK(0 <= r.begin && r.begin < r.end && r.end <= n,
                 "rotor mask run [%d, %d) not in [0, %d)", r.begin, r.end, n);
      ALGE_CHECK(k == 0 || r.begin >= mask[k - 1].end,
                 "rotor mask run [%d, %d) out of order", r.begin, r.end);
      ALGE_CHECK(r.rep >= 1, "rotor mask run [%d, %d) takes part %d times",
                 r.begin, r.end, r.rep);
    }
  };
  for (const RotorOp& op : rs.ops) {
    check_mask(op.row_rep, q);
    check_mask(op.col_rep, q);
    check_mask(op.layer_rep, c);
    switch (op.kind) {
      case RotorOp::Kind::kAlloc:
      case RotorOp::Kind::kFree:
      case RotorOp::Kind::kCompute:
        break;
      case RotorOp::Kind::kBcastRow:
      case RotorOp::Kind::kBcastCol:
      case RotorOp::Kind::kBcastDepth:
      case RotorOp::Kind::kReduceDepth: {
        const bool depth = op.kind == RotorOp::Kind::kBcastDepth ||
                           op.kind == RotorOp::Kind::kReduceDepth;
        const int n = depth ? c : q;
        ALGE_CHECK(op.root >= 0 && op.root < n,
                   "rotor collective root %d on a group of %d", op.root, n);
        // The member axis must be unmasked: a group collective always
        // involves the whole group.
        if (depth) {
          ALGE_CHECK(op.layer_rep.empty(),
                     "depth collective with a masked layer axis");
        } else if (op.kind == RotorOp::Kind::kBcastRow) {
          ALGE_CHECK(op.col_rep.empty(),
                     "row collective with a masked column axis");
        } else {
          ALGE_CHECK(op.row_rep.empty(),
                     "column collective with a masked row axis");
        }
        break;
      }
      case RotorOp::Kind::kSkewA:
      case RotorOp::Kind::kSkewB:
      case RotorOp::Kind::kShiftA:
      case RotorOp::Kind::kShiftB:
        ALGE_CHECK(op.row_rep.empty() && op.col_rep.empty() &&
                       op.layer_rep.empty(),
                   "skew/shift ops are unmasked");
        ALGE_CHECK(q % c == 0, "skew needs c | q");
        break;
    }
  }
}

/// What one segment of a phase runs.
enum class Step : std::uint8_t {
  kLoad,      ///< counters in from `out`
  kStore,     ///< counters back out
  kCompute,   ///< a compute op
  kBcastRow,  ///< a row collective
  kSend,      ///< a skew/shift's send charges
  kRecv,      ///< its receives: reads the arrivals other rows sent
  kColRoots,  ///< column collective phase A, one layer and replay round
  kColRows,   ///< column collective phase B, one layer and replay round
  kDepth,     ///< a depth collective
};

/// One op's share of a phase (or the load or store of the counters).
struct Seg {
  Step step = Step::kLoad;
  int op = -1;   ///< schedule position; -1 for load and store
  int l = 0;     ///< column collective: layer
  int t = 0;     ///< column collective: replay round
  int buf = 0;   ///< skew/shift: arrival buffer
};

/// Segments that run with no phase boundary between them (invariant 4).
struct Phase {
  bool serial = false;  ///< one chunk runs each segment whole
  std::vector<Seg> segs;
};

/// The phase plan of `rs` for `chunks` chunks per phase, by invariant 4:
/// each op joins the open phase when it may and opens a new one when it
/// may not. `rs` must have passed check_schedule.
std::vector<Phase> plan_phases(const RotorSchedule& rs, int chunks) {
  const int q = rs.q;
  const int c = rs.c;
  // The grid rows a segment touches: load and store touch all (an empty
  // mask), phase B one layer, an op those its masks select.
  const Mask all;
  auto mask = [&rs, &all](const Seg& s, Mask RotorOp::*axis) -> const Mask& {
    return s.op < 0 ? all : rs.ops[static_cast<std::size_t>(s.op)].*axis;
  };
  // Whether every grid row that row-local `s` touches is one of `lead`'s,
  // so `s` can run on the rows the phase hands each chunk.
  auto within = [&](const Seg& lead, const Seg& s) {
    const Mask& layers = mask(s, &RotorOp::layer_rep);
    return (lead.step == Step::kColRows
                ? n_active(layers, c) == 1 && rep_at(layers, lead.l) > 0
                : covers(mask(lead, &RotorOp::layer_rep), layers, c)) &&
           covers(mask(lead, &RotorOp::row_rep), mask(s, &RotorOp::row_rep),
                  q);
  };
  std::vector<Phase> plan;
  plan.push_back({false, {Seg{}}});
  auto place = [&](const Seg& s, bool small) {
    Phase& open = plan.back();
    const Step lead = open.segs.front().step;
    const bool row_local = s.step == Step::kCompute ||
                           s.step == Step::kBcastRow ||
                           s.step == Step::kSend || s.step == Step::kStore;
    const bool joins =
        open.serial ? small
                    : row_local && lead != Step::kColRoots &&
                          lead != Step::kDepth &&
                          within(open.segs.front(), s);
    if (joins) {
      open.segs.push_back(s);
    } else {
      plan.push_back({small, {s}});
    }
  };
  const double share = static_cast<double>(rs.p()) / chunks;
  int skews = 0;
  for (int o = 0; o < static_cast<int>(rs.ops.size()); ++o) {
    const RotorOp& op = rs.ops[static_cast<std::size_t>(o)];
    // An op on fewer ranks than one chunk's share runs serially (a single
    // chunk has no boundary to save). Collectives leave their member axis
    // unmasked, so the product counts the ranks of every kind of op.
    const double ranks = n_active(op.row_rep, q) * n_active(op.col_rep, q) *
                         n_active(op.layer_rep, c);
    const bool small = chunks > 1 && ranks < share;
    switch (op.kind) {
      case RotorOp::Kind::kAlloc:
      case RotorOp::Kind::kFree:
        break;  // replayed by the pre-pass
      case RotorOp::Kind::kCompute:
        place({.step = Step::kCompute, .op = o}, small);
        break;
      case RotorOp::Kind::kBcastRow:
        place({.step = Step::kBcastRow, .op = o}, small);
        break;
      case RotorOp::Kind::kBcastDepth:
      case RotorOp::Kind::kReduceDepth:
        place({.step = Step::kDepth, .op = o}, small);
        break;
      case RotorOp::Kind::kBcastCol:
        for (int l = 0; l < c; ++l) {
          const int rounds = rep_at(op.layer_rep, l) * max_rep(op.col_rep);
          for (int t = 0; t < rounds; ++t) {
            place({.step = Step::kColRoots, .op = o, .l = l, .t = t}, small);
            place({.step = Step::kColRows, .op = o, .l = l, .t = t}, small);
          }
        }
        break;
      case RotorOp::Kind::kSkewA:
      case RotorOp::Kind::kSkewB:
      case RotorOp::Kind::kShiftA:
      case RotorOp::Kind::kShiftB: {
        const int buf = skews++ % 2;
        place({.step = Step::kSend, .op = o, .buf = buf}, small);
        place({.step = Step::kRecv, .op = o, .buf = buf}, small);
        break;
      }
    }
  }
  place({.step = Step::kStore}, false);
  return plan;
}

/// One team member's scratch, allocated before the team starts so the
/// sweep never allocates. A chunk uses the scratch of the member running
/// it.
struct Scratch {
  std::vector<double> arr;  // one depth reduce's arrivals, by virtual rank
  std::vector<int> row_act, col_act, lay_act;
  std::vector<std::int64_t> col_reps;  // per-column replay counts, one layer
  std::vector<double> lev;  // column-collective arrivals, by tree level
  Scratch(int q, int c, int levels)
      : arr(static_cast<std::size_t>(c)),
        col_reps(static_cast<std::size_t>(q)),
        lev(static_cast<std::size_t>(levels) * static_cast<std::size_t>(q)) {
    row_act.reserve(static_cast<std::size_t>(q));
    col_act.reserve(static_cast<std::size_t>(q));
    lay_act.reserve(static_cast<std::size_t>(c));
  }
};

/// The state one rotor_run shares across its team: per-rank arrays that
/// each chunk writes only at the ranks of its own part, and read-only
/// schedule data and plan.
class Sweep {
 public:
  /// The serial pre-pass, after check_schedule: the phase plan, the
  /// rank-uniform memory replay over the pre-run baseline in `out` (throws
  /// its SimError), the send costs and the integer profiles. The per-rank
  /// arrays are allocated only once the memory replay has passed.
  /// `chunks` is the team's chunk count per phase; it sizes the column
  /// collectives' vr blocks and decides which ops run serially.
  Sweep(const RotorSchedule& rs, const core::MachineParams& mp,
        std::vector<RankCounters>& out, int chunks)
      : rs_(rs),
        out_(out),
        q_(rs.q),
        c_(rs.c),
        qq_(static_cast<std::size_t>(rs.q) * rs.q),
        p_(static_cast<std::size_t>(rs.p())),
        gamma_(mp.gamma_t),
        rows_(rotor_rows::active()),
        cost_(rs.ops.size()),
        kids_q_(make_kids(rs.q)),
        sends_q_(kid_counts(kids_q_)),
        sends_c_(kid_counts(make_kids(rs.c))),
        prof_li_(rs.c * rs.q),
        prof_lj_(rs.c * rs.q),
        prof_l_(rs.c),
        plan_(plan_phases(rs, chunks)) {
    // The largest power of two that still leaves at least `chunks` blocks
    // (one block when the team has one chunk, one row each when q is
    // smaller than the chunk count).
    while (blk_ < q_ && (q_ - 1) / (2 * blk_) + 1 >= chunks) blk_ *= 2;
    nblk_ = (q_ - 1) / blk_ + 1;
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
    const std::size_t mem_base = out[0].mem_words;
    bool rank_profile = false, col_groups = false;
    int skews = 0;
    std::int64_t mem_cur = 0;
    for (const RotorOp& op : rs.ops) {
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
        case RotorOp::Kind::kReduceDepth:
          rank_profile = rank_profile || !uniform;
          col_groups = col_groups || op.kind == RotorOp::Kind::kBcastCol;
          break;
        case RotorOp::Kind::kSkewA:
        case RotorOp::Kind::kSkewB:
        case RotorOp::Kind::kShiftA:
        case RotorOp::Kind::kShiftB:
          ++skews;
          break;
      }
    }
    mem_end_ = mem_cur;
    clock_.resize(p_);
    idle_.resize(p_);
    flops_.resize(p_);
    if (rank_profile) prof_r_ = std::make_unique<Profile>(rs.p());
    // One arrival buffer per skew/shift parity (invariant 4).
    arr_rank_.resize(static_cast<std::size_t>(std::min(skews, 2)) * p_);
    if (col_groups) {
      arr_roots_.resize(static_cast<std::size_t>(nblk_) * q_);
    }
    for (std::size_t o = 0; o < rs.ops.size(); ++o) {
      const RotorOp& op = rs.ops[o];
      switch (op.kind) {
        case RotorOp::Kind::kAlloc:
        case RotorOp::Kind::kFree:
        case RotorOp::Kind::kCompute:
          break;
        case RotorOp::Kind::kBcastRow:
        case RotorOp::Kind::kBcastCol:
        case RotorOp::Kind::kBcastDepth:
        case RotorOp::Kind::kReduceDepth:
          cost_[o] = send_cost(op.words);
          if (!op.row_rep.empty() || !op.col_rep.empty() ||
              !op.layer_rep.empty()) {
            if (op.kind != RotorOp::Kind::kReduceDepth) {
              masked_recvs(op, cost_[o]);
            }
            if (op.kind == RotorOp::Kind::kBcastRow) {
              masked_rows_.push_back(static_cast<int>(o));
            } else if (op.kind == RotorOp::Kind::kBcastCol) {
              masked_cols_.push_back(static_cast<int>(o));
            }
          } else if (op.kind == RotorOp::Kind::kBcastRow ||
                     op.kind == RotorOp::Kind::kBcastCol) {
            Profile& pf =
                op.kind == RotorOp::Kind::kBcastRow ? prof_lj_ : prof_li_;
            for (int l = 0; l < c_; ++l) {
              tree_profile(pf, static_cast<std::size_t>(l) * q_, sends_q_, q_,
                           op.root, cost_[o], false);
            }
          } else {
            tree_profile(prof_l_, 0, sends_c_, c_, op.root, cost_[o],
                         op.kind == RotorOp::Kind::kReduceDepth);
          }
          break;
        case RotorOp::Kind::kSkewA:
        case RotorOp::Kind::kSkewB:
        case RotorOp::Kind::kShiftA:
        case RotorOp::Kind::kShiftB:
          cost_[o] = send_cost(op.words);
          skew_profile(op, cost_[o]);
          break;
      }
    }
  }

  std::size_t phases() const { return plan_.size(); }

  /// Rows of a member's column-collective level buffer: log2 of the vr
  /// block size.
  int levels() const { return std::countr_zero(static_cast<unsigned>(blk_)); }

  /// Member k's walk through every phase of the plan, in order. Each
  /// member uses its own `sc`.
  void run(Team& team, int member, Scratch& sc) {
    const int n = team.chunks();
    for (std::size_t ph = 0; ph < plan_.size(); ++ph) {
      const Phase& phase = plan_[ph];
      const Seg* const s0 = phase.segs.data();
      const Seg* const s1 = s0 + phase.segs.size();
      team.phase(member, static_cast<int>(ph), [&](int k) {
        if (!phase.serial) {
          run_chunk(s0, s1, k, n, sc);
        } else if (k == 0) {
          for (const Seg* s = s0; s != s1; ++s) run_chunk(s, s + 1, 0, 1, sc);
        }
      });
    }
  }

 private:
  /// The receive counts of a masked broadcast. Every member but the root
  /// receives once per repetition, and the repetition count depends only
  /// on the group, so a row or column group's receives go into the axis
  /// profile of its (layer, row) or (layer, column) coordinates, less the
  /// root's share, and the sweep need not count them rank by rank.
  void masked_recvs(const RotorOp& op, const PointCost& pc) {
    Profile& pr = *prof_r_;
    auto add = [&pc](Profile& pf, std::size_t at, std::int64_t reps) {
      pf.wr[at] += reps * pc.k;
      pf.mr[at] += reps * pc.m;
    };
    each_rep(op.layer_rep, c_, [&](int l, int lr) {
      const std::size_t l0 = static_cast<std::size_t>(l) * q_;
      if (op.kind == RotorOp::Kind::kBcastRow) {  // group (l, i)
        each_rep(op.row_rep, q_, [&](int i, int ir) {
          add(prof_li_, l0 + i, lr * ir);
          add(pr, (l0 + i) * q_ + op.root, -lr * ir);
        });
      } else if (op.kind == RotorOp::Kind::kBcastCol) {  // group (l, j)
        each_rep(op.col_rep, q_, [&](int j, int jr) {
          add(prof_lj_, l0 + j, lr * jr);
          add(pr, (l0 + op.root) * q_ + j, -lr * jr);
        });
      } else if (l != op.root) {  // depth group (i, j), rank by rank
        each_rep(op.row_rep, q_, [&](int i, int ir) {
          each_rep(op.col_rep, q_, [&](int j, int jr) {
            add(pr, (l0 + i) * q_ + j, ir * jr);
          });
        });
      }
    });
  }

  /// The integer counts of a skew or shift: every rank receives the
  /// words, and all but the self-exchanges (skew_row) send them and count
  /// the messages; which ranks self-exchange depends on (layer, row) for
  /// A and on (layer, column) for B.
  void skew_profile(const RotorOp& op, const PointCost& pc) {
    const bool skew = op.kind == RotorOp::Kind::kSkewA ||
                      op.kind == RotorOp::Kind::kSkewB;
    const bool on_a = op.kind == RotorOp::Kind::kSkewA ||
                      op.kind == RotorOp::Kind::kShiftA;
    Profile& pf = on_a ? prof_li_ : prof_lj_;
    for (int l = 0; l < c_; ++l) {
      const int s0 = skew ? l * (q_ / c_) : 0;
      for (int x = 0; x < q_; ++x) {
        const std::size_t at = static_cast<std::size_t>(l) * q_ + x;
        pf.wr[at] += pc.k;
        if (q_ == 1 || (skew && (x + s0) % q_ == 0)) continue;
        pf.ws[at] += pc.k;
        pf.ms[at] += pc.m;
        pf.mr[at] += pc.m;
      }
    }
  }

  /// First grid row (l*q + i) of part k of `parts`.
  std::size_t rows_begin(int k, int parts) const {
    return part(static_cast<std::size_t>(c_) * q_, k, parts);
  }

  const RotorOp& op_of(const Seg& s) const {
    return rs_.ops[static_cast<std::size_t>(s.op)];
  }

  /// Chunk k of `parts` of the segments [s0, s1), in the partition of the
  /// first: each of its grid rows through every segment in turn.
  void run_chunk(const Seg* s0, const Seg* s1, int k, int parts,
                 Scratch& sc) {
    switch (s0->step) {
      case Step::kColRoots:
        col_roots(op_of(*s0), cost_[static_cast<std::size_t>(s0->op)], s0->l,
                  k, parts, sc);
        return;
      case Step::kColRows:
        col_rows(s0, s1, k, parts, sc);
        return;
      case Step::kDepth:
        depth_groups(op_of(*s0), cost_[static_cast<std::size_t>(s0->op)], k,
                     parts, sc);
        return;
      default:
        break;
    }
    auto each = [&](int l, int i) {
      for (const Seg* s = s0; s != s1; ++s) run_row(*s, l, i);
    };
    if (s0->op >= 0 && (!op_of(*s0).row_rep.empty() ||
                        !op_of(*s0).layer_rep.empty())) {
      active(op_of(*s0).layer_rep, c_, sc.lay_act);
      active(op_of(*s0).row_rep, q_, sc.row_act);
      for_part(sc.lay_act, sc.row_act, k, parts, each);
      return;
    }
    const std::size_t g1 = rows_begin(k + 1, parts);
    for (std::size_t g = rows_begin(k, parts); g < g1; ++g) {
      each(static_cast<int>(g / q_), static_cast<int>(g % q_));
    }
  }

  /// Segment `s` on grid row (l, i); a row the segment's op leaves out
  /// is skipped.
  void run_row(const Seg& s, int l, int i) {
    const std::size_t base =
        static_cast<std::size_t>(l) * qq_ + static_cast<std::size_t>(i) * q_;
    switch (s.step) {
      case Step::kLoad:
        for (std::size_t r = base; r < base + q_; ++r) {
          clock_[r] = out_[r].clock;
          idle_[r] = out_[r].idle_time;
          flops_[r] = out_[r].flops;
        }
        return;
      case Step::kStore:
        store_row(l, i, base);
        return;
      case Step::kCompute:
        compute_row(s, l, i, base);
        return;
      case Step::kBcastRow:
        bcast_row(s, l, i, base);
        return;
      case Step::kSend:
      case Step::kRecv:
        skew_row(s, l, i, base);
        return;
      default:
        return;  // phase leaders only (run_chunk)
    }
  }

  /// A compute op on grid row (l, i), one run of equal column counts at a
  /// time.
  void compute_row(const Seg& s, int l, int i, std::size_t base) {
    const RotorOp& op = op_of(s);
    const int ir = rep_at(op.row_rep, i) * rep_at(op.layer_rep, l);
    if (ir == 0) return;
    const double f = op.flops;
    // CostHooks::compute with speed=1.0: gamma_t*flops/1.0.
    const double dt = gamma_ * f;
    for_runs(op.col_rep, q_, [&](int j0, int j1, int rep) {
      rows_.compute(clock_.data() + base + j0, flops_.data() + base + j0,
                    j1 - j0, ir * rep, dt, f);
    });
  }

  /// A row collective on grid row (l, i), its repetitions back to back
  /// (clocks only: store_row counts a masked one's sends).
  void bcast_row(const Seg& s, int l, int i, std::size_t base) {
    const RotorOp& op = op_of(s);
    const double cost = cost_[static_cast<std::size_t>(s.op)].cost;
    const int reps = rep_at(op.layer_rep, l) * rep_at(op.row_rep, i);
    for (int t = 0; t < reps; ++t) {
      rows_.bcast(clock_.data() + base, idle_.data() + base, 1, q_, op.root,
                  cost);
    }
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
          cl = rotor_rows::sync(arr[vr + mask], cl, idl[r]);
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

  /// Depth collectives: chunk k replays its part of the selected (i, j)
  /// instances, each instance's repetitions back to back.
  void depth_groups(const RotorOp& op, const PointCost& pc, int k,
                    int parts, Scratch& sc) {
    const bool reduce = op.kind == RotorOp::Kind::kReduceDepth;
    const double fk = static_cast<double>(op.words);
    const double dt_merge = gamma_ * fk;
    const bool uniform = op.row_rep.empty() && op.col_rep.empty();
    Profile* const pr = uniform ? nullptr : prof_r_.get();
    double* const arr = sc.arr.data();
    active(op.row_rep, q_, sc.row_act);
    active(op.col_rep, q_, sc.col_act);
    for_part(sc.row_act, sc.col_act, k, parts, [&](int i, int j) {
      const std::size_t base =
          static_cast<std::size_t>(i) * q_ + static_cast<std::size_t>(j);
      const int reps = rep_at(op.row_rep, i) * rep_at(op.col_rep, j);
      for (int t = 0; t < reps; ++t) {
        if (reduce) {
          reduce_group(arr, base, qq_, c_, op.root, pc, fk, dt_merge, pr);
        } else {
          rows_.bcast(clock_.data() + base, idle_.data() + base, qq_, c_,
                      op.root, pc.cost);
        }
      }
      if (reduce || pr == nullptr) return;
      // A masked broadcast's sends: member x's child count, times reps.
      for (int x = 0; x < c_; ++x) {
        const std::int64_t n =
            reps * sends_c_[static_cast<std::size_t>((x - op.root + c_) % c_)];
        const std::size_t r = base + static_cast<std::size_t>(x) * qq_;
        pr->ws[r] += n * pc.k;
        pr->ms[r] += n * pc.m;
      }
    });
  }

  /// End of virtual rank vr's leading sends to other blocks' roots in its
  /// CSR send list. A parent sends in descending subtree order, so these
  /// (a child is a block root iff its subtree spans whole blocks) come
  /// first, and only a block root has any.
  int cross_sends_end(int vr) const {
    int s = kids_q_.off[static_cast<std::size_t>(vr)];
    const int end = kids_q_.off[static_cast<std::size_t>(vr) + 1];
    while (s < end && kids_q_.val[static_cast<std::size_t>(s)] % blk_ == 0) {
      ++s;
    }
    return s;
  }

  /// Column collectives, phase A: for chunk k's slice of the active
  /// columns of layer l, the arrival of every vr block root (virtual rank
  /// b·blk_) into arr_roots_[b][column]. A block root's parent is a block
  /// root too, so walking the block roots in ascending order replays the
  /// tree's cross-block sends: each arrival is the parent's clock after
  /// that specific sequential send charge, as in bcast_group. Only
  /// arrivals are written, for every active column: phase B replays the
  /// clocks, and reads only the columns that take part in the replay.
  void col_roots(const RotorOp& op, const PointCost& pc, int l, int k,
                 int parts, Scratch& sc) {
    active(op.col_rep, q_, sc.col_act);
    const std::size_t a0 = part(sc.col_act.size(), k, parts);
    const std::size_t a1 = part(sc.col_act.size(), k + 1, parts);
    const int* const kval = kids_q_.val.data();
    double* const aroot = arr_roots_.data();
    for (int b = 0; b < nblk_; ++b) {
      const int vr = b * blk_;
      int coord = vr + op.root;
      if (coord >= q_) coord -= q_;
      const double* const crow = clock_.data() +
                                 static_cast<std::size_t>(l) * qq_ +
                                 static_cast<std::size_t>(coord) * q_;
      const double* const av = aroot + static_cast<std::size_t>(b) * q_;
      const int beg = kids_q_.off[static_cast<std::size_t>(vr)];
      const int end = cross_sends_end(vr);
      for (std::size_t a = a0; a < a1; ++a) {
        const int j = sc.col_act[a];
        double cl = crow[j];
        if (vr != 0 && av[j] > cl) cl = av[j];
        for (int s = beg; s < end; ++s) {
          cl += pc.cost;
          aroot[static_cast<std::size_t>(kval[s] / blk_) * q_ + j] = cl;
        }
      }
    }
  }

  /// Column collectives, phase B (segment *s0), then the phase's other
  /// segments [s0 + 1, s1) on the same rows: chunk k replays its part of
  /// the vr blocks of layer s0->l, each block's rows whole and in
  /// ascending virtual rank, so a parent runs before its children. A block
  /// root's arrival comes from phase A. Any other member x has its parent
  /// in its block, which left the arrival in the running member's level
  /// buffer at level log2(lowbit(x)); no rank between them overwrites it
  /// (they send only to lower levels), and the later segments on the
  /// parent's row move only its clock. The inner loop walks one grid row
  /// contiguously; columns are disjoint groups, so evaluating them in
  /// lockstep is the per-rank op sequence the fiber path runs.
  void col_rows(const Seg* s0, const Seg* s1, int k, int parts,
                Scratch& sc) {
    const RotorOp& op = op_of(*s0);
    const PointCost& pc = cost_[static_cast<std::size_t>(s0->op)];
    const int l = s0->l;
    const int t = s0->t;
    const int j0 = op.col_rep.empty() ? 0 : op.col_rep.front().begin;
    const int j1 = op.col_rep.empty() ? q_ : op.col_rep.back().end;
    const bool uniform = op.col_rep.empty() && op.layer_rep.empty();
    std::int64_t* const reps = sc.col_reps.data();
    if (!uniform) {
      const int lr = rep_at(op.layer_rep, l);
      std::fill(reps + j0, reps + j1, 0);
      for_runs(op.col_rep, q_, [&](int b, int e, int rep) {
        std::fill(reps + b, reps + e, lr * rep);
      });
    }
    double* const lev = sc.lev.data();
    auto level = [lev, this](int x) {
      return lev +
             static_cast<std::size_t>(std::countr_zero(
                 static_cast<unsigned>(x))) * q_;
    };
    const int b1 = static_cast<int>(part(static_cast<std::size_t>(nblk_),
                                         k + 1, parts));
    for (int b = static_cast<int>(part(static_cast<std::size_t>(nblk_), k,
                                       parts));
         b < b1; ++b) {
      const int vr1 = std::min(q_, (b + 1) * blk_);
      for (int vr = b * blk_; vr < vr1; ++vr) {
        int coord = vr + op.root;
        if (coord >= q_) coord -= q_;
        const std::size_t row = static_cast<std::size_t>(l) * qq_ +
                                static_cast<std::size_t>(coord) * q_;
        const double* const av =
            vr % blk_ == 0
                ? arr_roots_.data() + static_cast<std::size_t>(b) * q_
                : level(vr);
        // Sends to other blocks' roots (phase A has their arrivals) only
        // advance the clock; the rest land in the level buffer.
        const int beg = kids_q_.off[static_cast<std::size_t>(vr)];
        const int end = kids_q_.off[static_cast<std::size_t>(vr) + 1];
        const int mid = cross_sends_end(vr);
        double* dst[32];
        for (int s = mid; s < end; ++s) {
          dst[s - mid] = level(kids_q_.val[static_cast<std::size_t>(s)]);
        }
        rotor_rows::ColRow cr{.clk = clock_.data() + row,
                              .idl = idle_.data() + row,
                              .arrive = vr != 0 ? av : nullptr,
                              .cross = mid - beg,
                              .dst = dst,
                              .n_dst = end - mid,
                              .cost = pc.cost,
                              .j0 = j0,
                              .j1 = j1};
        if (!uniform) {
          cr.reps = reps;
          cr.t = t;
        }
        rows_.col_row(cr);
        for (const Seg* s = s0 + 1; s != s1; ++s) run_row(*s, l, coord);
      }
    }
  }

  /// Cannon skews and shifts on grid row (l, i), in two segments like the
  /// fiber sendrecv: every rank's send charge, then (kRecv) the sync to
  /// the source's post-send clock, which the phase boundary between them
  /// has published in arrival buffer s.buf. The pre-pass counts the
  /// words and messages (skew_profile).
  void skew_row(const Seg& s, int l, int i, std::size_t base) {
    const RotorOp& op = op_of(s);
    const double cost = cost_[static_cast<std::size_t>(s.op)].cost;
    const int q = q_;
    const bool skew = op.kind == RotorOp::Kind::kSkewA ||
                      op.kind == RotorOp::Kind::kSkewB;
    const bool on_a = op.kind == RotorOp::Kind::kSkewA ||
                      op.kind == RotorOp::Kind::kShiftA;
    const int s0 = skew ? l * (q / c_) : 0;
    // Self-exchanges (arrival == own clock, no charge): on a 1 x 1 grid
    // every rank; otherwise Cannon's alignment leaves row i = -s0 mod q
    // (A) or column j = -s0 mod q (B) of layer l in place, and the
    // one-step shifts never self-send.
    if (q == 1 || (skew && on_a && (i + s0) % q == 0)) return;
    const int self_col = skew && !on_a ? (q - s0) % q : -1;
    double* const crow = clock_.data() + base;
    double* const irow = idle_.data() + base;
    double* const arr = arr_rank_.data() + static_cast<std::size_t>(s.buf) * p_;
    double* const arow = arr + base;
    if (s.step == Step::kSend) {
      if (self_col < 0) {
        rows_.send(crow, arow, q, cost);
      } else {
        rows_.send(crow, arow, self_col, cost);
        rows_.send(crow + self_col + 1, arow + self_col + 1, q - self_col - 1,
                   cost);
      }
      return;
    }
    // Receives into columns [j0, j1) from src[(j - j0)·stride], the
    // self-exchange column left out.
    auto recv = [&](int j0, int j1, const double* src, std::size_t stride) {
      if (j0 <= self_col && self_col < j1) {
        rows_.recv(crow + j0, irow + j0, src, stride, self_col - j0);
        src += static_cast<std::size_t>(self_col + 1 - j0) * stride;
        j0 = self_col + 1;
      }
      rows_.recv(crow + j0, irow + j0, src, stride, j1 - j0);
    };
    const double* const layer = arr + static_cast<std::size_t>(l) * qq_;
    if (on_a) {
      // Source (i, (j + off) mod q): the row's own arrivals, rotated.
      const int off = skew ? (i + s0) % q : 1;
      recv(0, q - off, arow + off, 1);
      recv(q - off, q, arow, 1);
    } else if (!skew) {
      // Source (i + 1 mod q, j).
      const int si = i + 1 == q ? 0 : i + 1;
      recv(0, q, layer + static_cast<std::size_t>(si) * q, 1);
    } else {
      // Source ((i + j + s0) mod q, j): a diagonal of the layer's arrivals
      // (stride q + 1) from row i0 = (i + s0) mod q, on from row 0 at
      // column q - i0.
      const int i0 = (i + s0) % q;
      const std::size_t diag = static_cast<std::size_t>(q) + 1;
      recv(0, q - i0, layer + static_cast<std::size_t>(i0) * q, diag);
      recv(q - i0, q, layer + (q - i0), diag);
    }
  }

  /// Materialize grid row (l, i): exact doubles back in place, integer
  /// deltas added once (hop-weighted counters equal the plain ones on the
  /// flat network).
  void store_row(int l, int i, std::size_t base) {
    // The sends of the masked row broadcasts: each op's tree child counts,
    // rotated by its root, times the row's repetitions. Added here, once
    // the row is in cache, rather than streamed through per op.
    for (const int o : masked_rows_) {
      const RotorOp& op = rs_.ops[static_cast<std::size_t>(o)];
      const std::int64_t reps =
          rep_at(op.layer_rep, l) * rep_at(op.row_rep, i);
      if (reps == 0) continue;
      const PointCost& pc = cost_[static_cast<std::size_t>(o)];
      const int rho = op.root;
      const std::int64_t* const kids = sends_q_.data();
      auto count = [&](std::int64_t* row, std::int64_t d) {
        rows_.add_scaled(row + rho, kids, q_ - rho, d);
        rows_.add_scaled(row, kids + (q_ - rho), rho, d);
      };
      count(prof_r_->ws.data() + base, reps * pc.k);
      count(prof_r_->ms.data() + base, reps * pc.m);
    }
    // Those of the masked column broadcasts: the row's rank in column
    // group j sends its child count in each of the group's repetitions, so
    // the row gets that count times each run's column count.
    for (const int o : masked_cols_) {
      const RotorOp& op = rs_.ops[static_cast<std::size_t>(o)];
      int vr = i - op.root;
      if (vr < 0) vr += q_;
      const std::int64_t n =
          sends_q_[static_cast<std::size_t>(vr)] * rep_at(op.layer_rep, l);
      if (n == 0) continue;
      const PointCost& pc = cost_[static_cast<std::size_t>(o)];
      for_runs(op.col_rep, q_, [&](int j0, int j1, int rep) {
        rows_.add(prof_r_->ws.data() + base + j0, j1 - j0, n * rep * pc.k);
        rows_.add(prof_r_->ms.data() + base + j0, j1 - j0, n * rep * pc.m);
      });
    }
    const std::size_t mem_now = static_cast<std::size_t>(mem_end_);
    const std::size_t peak = static_cast<std::size_t>(mem_peak_);
    const std::size_t ul = static_cast<std::size_t>(l);
    const std::size_t li = ul * q_ + static_cast<std::size_t>(i);
    for (std::size_t uj = 0; uj < static_cast<std::size_t>(q_); ++uj) {
      const std::size_t r = base + uj;
      RankCounters& rc = out_[r];
      rc.clock = clock_[r];
      rc.idle_time = idle_[r];
      rc.flops = flops_[r];
      const std::size_t lj = ul * q_ + uj;
      std::int64_t ws = prof_li_.ws[li] + prof_lj_.ws[lj] + prof_l_.ws[ul];
      std::int64_t ms = prof_li_.ms[li] + prof_lj_.ms[lj] + prof_l_.ms[ul];
      std::int64_t wr = prof_li_.wr[li] + prof_lj_.wr[lj] + prof_l_.wr[ul];
      std::int64_t mr = prof_li_.mr[li] + prof_lj_.mr[lj] + prof_l_.mr[ul];
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

  const RotorSchedule& rs_;
  std::vector<RankCounters>& out_;
  const int q_;
  const int c_;
  const std::size_t qq_;
  const std::size_t p_;
  const double gamma_;
  const rotor_rows::Isa& rows_;  ///< the row kernels this CPU runs
  std::vector<PointCost> cost_;  ///< per op (collectives, skews)
  const KidsCsr kids_q_;  ///< the row/column tree (column collectives)
  /// Sends per virtual rank (child counts) of the row/column and depth
  /// trees.
  const std::vector<std::int64_t> sends_q_, sends_c_;
  std::vector<int> masked_rows_;  ///< masked row broadcasts, by position
  std::vector<int> masked_cols_;  ///< masked column broadcasts, likewise
  // Integer deltas of the mask-free collectives and of masked broadcasts
  // receives, per axis coordinate.
  Profile prof_li_;  ///< by (layer, row): column collectives, row receives
  Profile prof_lj_;  ///< by (layer, column): row collectives, column receives
  Profile prof_l_;   ///< by layer (depth collectives)
  const std::vector<Phase> plan_;
  std::int64_t mem_end_ = 0;   ///< live words at the end, over the baseline
  std::int64_t mem_peak_ = 0;  ///< high-water mark, over the baseline
  /// Column collectives cut the virtual-rank axis into nblk_ aligned
  /// blocks of blk_ (a power of two), each a binomial subtree.
  int blk_ = 1;
  int nblk_ = 1;
  // Hot per-rank state, SoA so sweeps stream through memory.
  std::vector<double> clock_, idle_, flops_;
  /// Per-rank integer deltas, materialized only when a masked or skew op
  /// needs them (mask-free collectives use the axis profiles).
  std::unique_ptr<Profile> prof_r_;
  /// Skew/shift arrivals, all ranks, one buffer per parity (none without
  /// skews, one for a single skew).
  std::vector<double> arr_rank_;
  std::vector<double> arr_roots_;  ///< vr block-root arrivals [block][col]
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

/// Chunks per phase each member of a team of `team` owns.
int per_member(int team) { return team == 1 ? 1 : kChunksPerMember; }

}  // namespace

void rotor_run(const RotorSchedule& rs, const MachineConfig& cfg,
               std::vector<RankCounters>& out, int threads) {
  check_schedule(rs);
  const int p = rs.p();
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
                                 std::thread::hardware_concurrency()) -
                                 kSpareCpus);
  }
  Team claims(team, per_member(team));
  Sweep sweep(rs, cfg.params, out, claims.chunks());
  // Chunk counts over all phases must fit the int counters.
  ALGE_CHECK(static_cast<double>(claims.chunks()) *
                     static_cast<double>(sweep.phases()) <
                 2147483647.0,
             "rotor schedule of %zu ops too long for a team of %d",
             rs.ops.size(), team);
  std::vector<Scratch> scratch;
  scratch.reserve(static_cast<std::size_t>(team));
  for (int k = 0; k < team; ++k) {
    scratch.emplace_back(rs.q, rs.c, sweep.levels());
  }
  run_team(team, [&](int k) {
    sweep.run(claims, k, scratch[static_cast<std::size_t>(k)]);
  });
}

int rotor_phases(const RotorSchedule& rs, int threads) {
  ALGE_CHECK(threads >= 1, "rotor team of %d threads", threads);
  check_schedule(rs);
  return static_cast<int>(
      plan_phases(rs, threads * per_member(threads)).size());
}

}  // namespace alge::sim
