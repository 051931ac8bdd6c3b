// The paper's abstract distributed machine (Fig. 1(b)) as an executable,
// deterministic simulator.
//
// Each rank's program runs on a fiber and moves *real data* through
// simulated point-to-point links, so algorithm output can be verified
// numerically while the simulator counts flops, words, and messages exactly
// and advances LogP-style per-rank virtual clocks:
//
//   send of k words:  sender clock += ceil(k/m)·αt + k·βt, counters updated;
//                     the message arrives at the sender's post-send clock.
//   recv:             receiver clock = max(receiver clock, arrival time).
//   compute(F):       clock += γt·F.
//
// Link time is charged to the sender (Eq. 1 counts words/messages *sent*);
// the receiver synchronizes to the arrival time, so waiting shows up as idle
// time, never as double-counted bandwidth.
//
// Sends are eager (buffered, non-blocking): the payload is copied into the
// destination mailbox and the sender proceeds. Receives block the fiber
// until a matching message (same source and tag, FIFO per pair) exists.
// If every live rank is blocked the run aborts with a deadlock diagnosis
// listing what each rank was waiting for.
//
// Hot-path structure: each rank's mailbox is indexed by (src, tag) so
// matching a recv is O(1) in the number of pending messages
// (sim/mailbox.hpp); payload buffers are leased from a free-list pool
// owned by the Machine, so steady-state traffic allocates nothing; a recv
// blocks with a lazily-materialized diagnostic and is only woken by a send
// that actually matches its (src, tag).
//
// THREADING INVARIANT (relied on by src/engine): a Machine and everything
// it owns — fibers, mailboxes, counters, the run() call — are confined to
// the single OS thread that calls run(); a Machine is NOT safe to share
// between threads. Distinct Machines on distinct threads are safe to run
// concurrently: the fiber scheduler's active-scheduler pointer is
// thread_local (fiber/fiber.cpp), Rng state is per-instance
// (support/rng.hpp), and there is no other mutable global state in sim/,
// fiber/, topo/, algs/ or support/ (machines/db.cpp holds a const table
// with thread-safe magic-static initialization). This is what lets the
// experiment engine run one simulated Machine per pool thread with
// bit-identical results at any thread count (verified under TSan by
// tests/test_engine.cpp).
#pragma once

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <cstdint>
#include <unordered_map>

#include "core/costs.hpp"
#include "core/params.hpp"
#include "fiber/fiber.hpp"
#include "sim/counters.hpp"
#include "sim/fault.hpp"
#include "sim/fold.hpp"
#include "sim/mailbox.hpp"
#include "sim/network.hpp"
#include "sim/payload.hpp"
#include "sim/payload_pool.hpp"
#include "sim/trace.hpp"

namespace alge::sim {

class Comm;
class SimTransport;

/// Raised on simulation-level failures: deadlock, out-of-memory (when the
/// configured per-rank memory M is exceeded), malformed traffic.
class SimError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct MachineConfig {
  int p = 1;                           ///< number of processors
  core::MachineParams params;          ///< time/energy/capacity constants
  std::size_t stack_bytes = 512 * 1024;
  /// Interconnect topology; null = fully connected (the paper's flat link
  /// model). With a topology, message latency is charged per hop and the
  /// βe/αe energy terms use hop-weighted traffic.
  std::shared_ptr<const NetworkModel> network;
  /// Record per-rank compute/send/recv/idle intervals (see sim/trace.hpp).
  bool enable_trace = false;
  /// Accumulate per-(rank, phase) counter slices for the Eq. (2) energy
  /// ledger (see counters.hpp PhaseCounters and obs/energy_ledger.hpp).
  /// Phases are labelled with Machine::phase / Comm::phase scopes; with no
  /// scopes everything lands in the default "(main)" phase.
  bool enable_ledger = false;
  /// Heterogeneous machines: per-rank speed multipliers (rank r computes
  /// at speed[r] times the base rate, i.e. effective γt/speed[r]). Empty =
  /// uniform. Must have exactly p entries otherwise.
  std::vector<double> speed;
  /// Fault injection (src/chaos): consulted on every message and before
  /// every comm event. Null = fault-free. The transport stays reliable —
  /// drops are retransmitted (bounded by `retry`), duplicates deduplicated,
  /// reorders resequenced — so programs see unchanged payloads and only pay
  /// the Eq. (1)/(2) time/energy cost of the recovery traffic.
  std::shared_ptr<FaultInjector> faults;
  /// Retransmission bounds/timeouts used when `faults` drops messages.
  RetryConfig retry;
  /// Wake-order policy for schedule exploration (src/chaos); null keeps
  /// the default deterministic round-robin scan.
  std::shared_ptr<fiber::WakePolicy> wake_policy;
  /// kGhost: payloads carry sizes only and kernels are analytic — identical
  /// counters, clocks, energy, trace and ledger, no data movement (see
  /// sim/payload.hpp). Programs must not verify output in ghost mode.
  DataMode data_mode = DataMode::kFull;
  /// Execution strategy (sim/fold.hpp). kFolded requires kGhost data mode
  /// and a `fold` map; it executes one fiber per fold-equivalence class
  /// and replays per-class message-cost deltas over event-log channels,
  /// with cost signatures bit-identical to per-fiber execution. Any
  /// configuration folding cannot represent exactly — faults, per-rank
  /// speeds, tracing, a routed network, a missing or trivial map — makes
  /// the machine fall back to per-fiber execution transparently (see
  /// fold_active()).
  ExecMode exec_mode = ExecMode::kFibers;
  /// Rank-congruence partition consumed by kFolded (ignored under
  /// kFibers). Must satisfy fold->p() == p when set.
  std::shared_ptr<const FoldMap> fold;
};

/// Aggregates over ranks, plus the per-processor maxima used when comparing
/// against the per-processor analytic bounds.
struct SimTotals {
  double flops_total = 0.0;
  double words_total = 0.0;  ///< total words transmitted (counted at sender)
  double msgs_total = 0.0;
  double words_hops_total = 0.0;  ///< link-traversal-weighted words
  double msgs_hops_total = 0.0;
  double flops_max = 0.0;    ///< max over ranks
  double words_sent_max = 0.0;
  double msgs_sent_max = 0.0;
  std::size_t mem_highwater_max = 0;
  std::size_t mem_highwater_total = 0;

  /// M̄: the mean per-rank memory high-water mark over p ranks.
  double mean_highwater(int p) const {
    return static_cast<double>(mem_highwater_total) / static_cast<double>(p);
  }

  bool operator==(const SimTotals&) const = default;
};

/// Add one rank's counters to `t`. Every totals() — the Machine's in each
/// execution mode and the transport reports' — sums through this in
/// world-rank order, which is what keeps them bit-identical. Inline, as
/// the Machine calls it once per world rank.
inline void accumulate(SimTotals& t, const RankCounters& c) {
  t.flops_total += c.flops;
  t.words_total += c.words_sent;
  t.msgs_total += c.msgs_sent;
  t.words_hops_total += c.words_hops;
  t.msgs_hops_total += c.msgs_hops;
  t.flops_max = std::max(t.flops_max, c.flops);
  t.words_sent_max = std::max(t.words_sent_max, c.words_sent);
  t.msgs_sent_max = std::max(t.msgs_sent_max, c.msgs_sent);
  t.mem_highwater_max = std::max(t.mem_highwater_max, c.mem_highwater);
  t.mem_highwater_total += c.mem_highwater;
}

/// Eq. (2) evaluated on the measured run; see Machine::energy().
struct SimEnergy {
  core::EnergyBreakdown breakdown;
  double makespan = 0.0;
  double total() const { return breakdown.total(); }
  /// Average power P = E / T.
  double power() const { return breakdown.total() / makespan; }
};

/// Eq. (2) over the totals `t` of a p-rank run of virtual makespan T, with
/// `mem_words_per_rank` words held per rank for δe. The γe/βe/αe terms use
/// total (summed) counts — physically every executed flop and transmitted
/// word costs energy — and the δe/εe terms use p·(δe·M+εe)·T.
SimEnergy energy_of(const core::MachineParams& mp, int p, double makespan,
                    const SimTotals& t, double mem_words_per_rank);

class Machine {
 public:
  explicit Machine(MachineConfig cfg);
  ~Machine();
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Run `program` on every rank to completion. May be called repeatedly;
  /// counters accumulate across runs (call reset() in between if undesired).
  void run(const std::function<void(Comm&)>& program);

  void reset();

  int p() const { return cfg_.p; }
  const core::MachineParams& params() const { return cfg_.params; }

  /// True when this machine actually folds: ExecMode::kFolded with a
  /// usable non-trivial map and none of the fall-back conditions (see
  /// MachineConfig::exec_mode). When false a kFolded machine behaves
  /// exactly like a kFibers one.
  bool fold_active() const { return fold_active_; }
  /// Fibers spawned per run(): the number of fold classes when folding,
  /// p otherwise. This is what makes p = 10^6–10^8 frontier sweeps cheap.
  int num_slots() const { return static_cast<int>(ranks_.size()); }

  /// Virtual makespan: max over ranks of the final clock.
  double makespan() const;

  const RankCounters& rank_counters(int rank) const;
  SimTotals totals() const;

  /// The recorded trace (empty unless cfg.enable_trace).
  const Trace& trace() const { return trace_; }

  /// Attach a streaming trace sink (see sim/trace.hpp). Events are only
  /// generated when cfg.enable_trace is set; with keep_events false they are
  /// forwarded to the sink without being stored.
  void set_trace_sink(TraceSink* sink, bool keep_events = true) {
    trace_.set_sink(sink, keep_events);
  }

  // --- Energy-ledger phases (cfg.enable_ledger) ---

  /// RAII phase label. Obtain from Machine::phase (outside run(): labels
  /// every rank until the scope closes, e.g. one scope per run() call) or
  /// Comm::phase (inside a program: labels the calling rank only, and
  /// records a kPhase trace span when tracing is on). Scopes nest; closing
  /// restores the enclosing phase.
  class PhaseScope {
   public:
    PhaseScope(PhaseScope&& o) noexcept
        : m_(o.m_), rank_(o.rank_), t0_(o.t0_), prev_(std::move(o.prev_)),
          name_(o.name_) {
      o.m_ = nullptr;
    }
    PhaseScope& operator=(PhaseScope&&) = delete;
    PhaseScope(const PhaseScope&) = delete;
    PhaseScope& operator=(const PhaseScope&) = delete;
    ~PhaseScope();

   private:
    friend class Machine;
    friend class Comm;
    PhaseScope(Machine* m, int rank, double t0, std::vector<int> prev,
               const char* name)
        : m_(m), rank_(rank), t0_(t0), prev_(std::move(prev)), name_(name) {}
    Machine* m_;
    int rank_;  ///< -1: scope covers every rank (Machine::phase)
    double t0_;
    std::vector<int> prev_;  ///< phase ids to restore (size 1 or p)
    const char* name_;       ///< interned label, for the kPhase trace span
  };

  /// Enter phase `name` on every rank. Must be called outside run() — use
  /// Comm::phase from inside a simulated program. Counter deltas recorded
  /// while the scope is open are attributed to the phase (when
  /// cfg.enable_ledger is set; otherwise the scope is inert).
  [[nodiscard]] PhaseScope phase(const std::string& name);

  bool ledger_enabled() const { return cfg_.enable_ledger; }

  /// Phase labels in first-use order; index == phase id. Id 0 is the
  /// default "(main)" phase. Never shrinks until reset(). (A deque so the
  /// interned strings never move: kPhase trace spans point at them.)
  const std::deque<std::string>& phase_names() const { return phase_names_; }

  /// Rank's per-phase counter slices, indexed by phase id. May be shorter
  /// than phase_names() when the rank never entered later phases.
  const std::vector<PhaseCounters>& phase_counters(int rank) const;

  /// Eq. (2) on the measured run (energy_of) with M̄, the mean per-rank
  /// memory high-water mark, as the memory held. For the balanced
  /// algorithms in this repo this is exactly the paper's
  /// p·(γe·F + βe·W + αe·S + δe·M·T + εe·T).
  SimEnergy energy() const;
  /// Same, from this machine's totals() already computed by the caller
  /// (one pass over the per-rank counters instead of two more).
  SimEnergy energy(const SimTotals& t) const;

  /// Same but with an explicit per-rank M (e.g. the full configured memory,
  /// matching the paper's convention that you pay for the memory you hold),
  /// from this machine's totals() `t`.
  SimEnergy energy_with_memory(double mem_words_per_rank,
                               const SimTotals& t) const;

 private:
  friend class Comm;
  friend class CostHooks;
  friend class SimTransport;

  struct Rank {
    RankCounters counters;
    /// Per-phase slices of `counters` (cfg.enable_ledger); indexed by the
    /// Machine-wide phase id, grown on first touch.
    std::vector<PhaseCounters> ledger;
    int phase = 0;  ///< current phase id deltas are attributed to
    Mailbox mailbox;
    std::uint64_t next_seq = 0;  ///< arrival-order stamp for diagnostics
    bool waiting = false;        ///< blocked in recv for (wait_src, wait_tag)
    int wait_src = -1;
    int wait_tag = -1;
    /// Rendezvous delivery: while blocked, the receiver exposes its output
    /// payload; a matching same-size send copies straight into it (no queue,
    /// no pool buffer — and no copy at all in ghost mode) and reports the
    /// metadata below with `direct` set.
    Payload wait_out;
    bool direct = false;
    double direct_arrival = 0.0;
    double direct_msg_count = 0.0;
    /// Comm events (send or recv calls) issued by this rank so far; the
    /// index handed to FaultInjector::pause_before_event. Fixed per rank by
    /// program order, so pause placement is schedule-independent.
    std::uint64_t comm_events = 0;
    fiber::Scheduler::FiberId fid = -1;
  };

  /// Lease a payload buffer holding a copy of `data` from the pool's free
  /// list (steady-state traffic reuses capacity instead of allocating); the
  /// buffer comes back via release_payload once the message is delivered.
  /// One pool per Machine preserves the single-thread confinement above.
  std::vector<double> acquire_payload(std::span<const double> data) {
    return payload_pool_.acquire(data);
  }
  void release_payload(std::vector<double>&& buf) {
    payload_pool_.release(std::move(buf));
  }

  /// Find-or-add `name` in the phase registry; returns its id.
  int phase_id(const std::string& name);

  /// The (slot, current-phase) ledger slice, growing the slot's vector on
  /// demand. Only called when cfg_.enable_ledger is set. `slot` is a
  /// ranks_ index: the rank itself under per-fiber execution, the fold
  /// class id when folding.
  PhaseCounters& ledger_cell(int slot) {
    Rank& r = ranks_[static_cast<std::size_t>(slot)];
    if (r.ledger.size() <= static_cast<std::size_t>(r.phase)) {
      r.ledger.resize(static_cast<std::size_t>(r.phase) + 1);
    }
    return r.ledger[static_cast<std::size_t>(r.phase)];
  }

  // --- Folded execution (ExecMode::kFolded; see sim/fold.hpp) ---
  //
  // When folding, ranks_ holds one slot per fold class and run() spawns
  // each class representative's program on one fiber. Messages flow
  // through per-(sender-class, tag) append-only event logs instead of
  // per-rank mailboxes: a send appends one entry carrying exactly the
  // metadata a fiber-mode receiver would account (destination class,
  // sender's post-send clock as the arrival time, words, message count),
  // and each reader class consumes entries through its own cursor —
  // positionally for scatter sender classes, filtered by destination
  // class for uniform ones (FoldClass::scatter). Entries are immutable
  // once appended and cursors only move forward, so references stay valid
  // across fiber blocks.

  /// One logged send by a class representative.
  struct FoldEntry {
    int dst_class;     ///< fold class of the destination rank
    double arrival;    ///< sender's post-send clock (eager-send semantics)
    std::size_t words;
    double msg_count;  ///< ceil(k/m) charged by the sender; 0 for self-sends
  };
  struct FoldChannel {
    std::vector<FoldEntry> entries;
    /// Per reader class: index of the next entry to examine.
    std::vector<std::size_t> cursors;
    /// Fibers blocked waiting for a matching entry; woken on every append.
    std::vector<fiber::Scheduler::FiberId> waiters;
  };

  /// Evaluate the attached rotor schedule (fold->rotor() != nullptr) with
  /// an array sweep instead of spawning fibers; accumulates into
  /// rotor_counters_. See sim/fold_rotor.hpp.
  void run_rotor();

  /// ranks_ index for a world rank: its fold class when folding, itself
  /// otherwise.
  int slot_of(int rank) const {
    return fold_active_ ? cfg_.fold->class_of(rank) : rank;
  }
  /// The (sender class, tag) event log, created on first use with one
  /// cursor per reader class. Reference stays valid for the machine's
  /// lifetime (node-based map).
  FoldChannel& fold_channel(int sender_slot, int tag);
  /// Log one send from `sender_slot`'s representative and wake blocked
  /// readers of that channel.
  void fold_append(int sender_slot, int dst_rank, int tag, std::size_t words,
                   double msg_count, double arrival);

  MachineConfig cfg_;
  bool fold_active_ = false;
  std::vector<Rank> ranks_;
  /// Per-world-rank counters of rotor-schedule evaluation (empty until the
  /// first run() of a rotor-folding machine). When non-empty these are the
  /// machine's counters: rank_counters/totals/makespan read them directly.
  std::vector<RankCounters> rotor_counters_;
  std::unordered_map<std::uint64_t, FoldChannel> fold_channels_;
  PayloadPool payload_pool_;
  std::deque<std::string> phase_names_{"(main)"};
  Trace trace_;
  fiber::Scheduler* sched_ = nullptr;  ///< valid only during run()
};

}  // namespace alge::sim
