#include "sim/machine.hpp"

#include <algorithm>

#include "sim/comm.hpp"
#include "sim/fold_rotor.hpp"
#include "support/common.hpp"

namespace alge::sim {

Machine::Machine(MachineConfig cfg) : cfg_(std::move(cfg)) {
  ALGE_REQUIRE(cfg_.p >= 1, "machine needs at least one processor");
  cfg_.params.validate();
  if (!cfg_.speed.empty()) {
    ALGE_REQUIRE(cfg_.speed.size() == static_cast<std::size_t>(cfg_.p),
                 "speed vector must have exactly p entries");
    for (double s : cfg_.speed) {
      ALGE_REQUIRE(s > 0.0, "speed multipliers must be positive");
    }
  }
  ALGE_REQUIRE(
      cfg_.exec_mode != ExecMode::kFolded ||
          cfg_.data_mode == DataMode::kGhost,
      "ExecMode::kFolded requires DataMode::kGhost: folded execution "
      "replays cost deltas and cannot move data");
  if (cfg_.fold != nullptr) {
    ALGE_REQUIRE(cfg_.fold->p() == cfg_.p,
                 "fold map built for p=%d attached to a p=%d machine",
                 cfg_.fold->p(), cfg_.p);
  }
  // Folding only engages for configurations it can reproduce exactly.
  // Faults make individual ranks diverge (the divergent-rank fallback the
  // differential gate exercises); per-rank speeds break class congruence;
  // a routed network makes hop counts rank-pair-specific; traces record
  // per-rank events folding does not materialize. Each of these silently
  // degrades to per-fiber execution with identical results.
  fold_active_ = cfg_.exec_mode == ExecMode::kFolded &&
                 cfg_.fold != nullptr && !cfg_.fold->trivial() &&
                 cfg_.faults == nullptr && cfg_.speed.empty() &&
                 !cfg_.enable_trace && cfg_.network == nullptr;
  // Rotor schedules (position-parameterized folds, sim/fold_rotor.hpp) are
  // evaluated by array sweep, which does not materialize the per-phase
  // counter slices the energy ledger needs — one more fall-back condition.
  if (fold_active_ && cfg_.fold->rotor() != nullptr && cfg_.enable_ledger) {
    fold_active_ = false;
  }
  ranks_.resize(static_cast<std::size_t>(
      fold_active_ ? cfg_.fold->num_classes() : cfg_.p));
}

Machine::~Machine() = default;

void Machine::reset() {
  for (auto& r : ranks_) {
    ALGE_CHECK(!r.waiting, "reset() during a run");
    r = Rank{};
  }
  fold_channels_.clear();
  rotor_counters_.clear();
  phase_names_ = {"(main)"};
  trace_.clear();
}

int Machine::phase_id(const std::string& name) {
  for (std::size_t i = 0; i < phase_names_.size(); ++i) {
    if (phase_names_[i] == name) return static_cast<int>(i);
  }
  phase_names_.push_back(name);
  return static_cast<int>(phase_names_.size() - 1);
}

Machine::PhaseScope Machine::phase(const std::string& name) {
  ALGE_REQUIRE(sched_ == nullptr,
               "Machine::phase() inside run(); use Comm::phase from a "
               "simulated program");
  const int id = phase_id(name);
  std::vector<int> prev;
  prev.reserve(ranks_.size());
  for (auto& r : ranks_) {
    prev.push_back(r.phase);
    r.phase = id;
  }
  return PhaseScope(this, -1, 0.0, std::move(prev), nullptr);
}

Machine::PhaseScope::~PhaseScope() {
  if (m_ == nullptr) return;
  if (rank_ < 0) {
    for (std::size_t r = 0; r < m_->ranks_.size(); ++r) {
      m_->ranks_[r].phase = prev_[r];
    }
    return;
  }
  Rank& r = m_->ranks_[static_cast<std::size_t>(rank_)];
  if (m_->cfg_.enable_trace && name_ != nullptr) {
    TraceEvent ev;
    ev.kind = TraceEvent::Kind::kPhase;
    ev.rank = rank_;
    ev.t0 = t0_;
    ev.t1 = r.counters.clock;
    ev.label = name_;
    m_->trace_.record(ev);
  }
  r.phase = prev_.front();
}

const std::vector<PhaseCounters>& Machine::phase_counters(int rank) const {
  ALGE_REQUIRE(rank >= 0 && rank < cfg_.p, "rank %d out of range", rank);
  return ranks_[static_cast<std::size_t>(slot_of(rank))].ledger;
}

void Machine::run(const std::function<void(Comm&)>& program) {
  ALGE_REQUIRE(program != nullptr, "program must be callable");
  ALGE_REQUIRE(sched_ == nullptr, "Machine::run() is not reentrant");

  if (fold_active_ && cfg_.fold->rotor() != nullptr) {
    // Position-parameterized fold: the rotor schedule *is* the program's
    // cost structure, evaluated as an array sweep — no fibers, and the
    // program callable is never entered.
    run_rotor();
    return;
  }

  fiber::Scheduler sched;
  sched.set_wake_policy(cfg_.wake_policy.get());
  sched_ = &sched;
  // One fiber per slot: per rank normally, per fold class when folding
  // (the class representative's program stands in for every member).
  for (int s = 0; s < num_slots(); ++s) {
    const int r = fold_active_ ? cfg_.fold->cls(s).rep : s;
    ranks_[static_cast<std::size_t>(s)].fid = sched.spawn(
        [this, r, &program] {
          Comm comm(*this, r);
          program(comm);
        },
        cfg_.stack_bytes);
  }
  try {
    sched.run();
  } catch (const fiber::DeadlockError& e) {
    sched_ = nullptr;
    for (auto& r : ranks_) r.waiting = false;
    throw SimError(e.what());
  } catch (...) {
    sched_ = nullptr;
    for (auto& r : ranks_) r.waiting = false;
    throw;
  }
  sched_ = nullptr;

  // A clean finish must not leave unconsumed traffic: that is a program bug
  // (mismatched send/recv counts) that would silently skew counters.
  for (int s = 0; s < num_slots(); ++s) {
    const auto& mb = ranks_[static_cast<std::size_t>(s)].mailbox;
    if (!mb.empty()) {
      const Message* first = mb.oldest();
      throw SimError(strfmt(
          "rank %d finished with %zu unconsumed message(s); first is from "
          "rank %d tag %d (%zu words)",
          s, mb.pending(), first->src, first->tag, first->words));
    }
  }
  if (fold_active_) {
    // Same invariant for fold channels: on a uniform channel every entry
    // addressed to a class must have been consumed by that class's cursor.
    // (Scatter channels match positionally, so per-class leftovers cannot
    // be attributed and are covered by the class-size send/recv balance.)
    for (const auto& [key, ch] : fold_channels_) {
      const int sender = static_cast<int>(key >> 32);
      const int tag = static_cast<int>(key & 0xffffffffu);
      if (cfg_.fold->cls(sender).scatter) continue;
      for (int s = 0; s < num_slots(); ++s) {
        for (std::size_t i = ch.cursors[static_cast<std::size_t>(s)];
             i < ch.entries.size(); ++i) {
          if (ch.entries[i].dst_class != s) continue;
          throw SimError(strfmt(
              "fold class %d finished with unconsumed message(s) from "
              "class %d tag %d (%zu words)",
              s, sender, tag, ch.entries[i].words));
        }
      }
    }
  }
}

void Machine::run_rotor() {
  if (rotor_counters_.empty()) {
    rotor_counters_.assign(static_cast<std::size_t>(cfg_.p), RankCounters{});
  }
  rotor_run(*cfg_.fold->rotor(), cfg_, rotor_counters_);
}

Machine::FoldChannel& Machine::fold_channel(int sender_slot, int tag) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(sender_slot))
       << 32) |
      static_cast<std::uint32_t>(tag);
  auto [it, inserted] = fold_channels_.try_emplace(key);
  if (inserted) it->second.cursors.assign(ranks_.size(), 0);
  return it->second;
}

void Machine::fold_append(int sender_slot, int dst_rank, int tag,
                          std::size_t words, double msg_count,
                          double arrival) {
  FoldChannel& ch = fold_channel(sender_slot, tag);
  ch.entries.push_back(
      {cfg_.fold->class_of(dst_rank), arrival, words, msg_count});
  if (!ch.waiters.empty()) {
    ALGE_CHECK(sched_ != nullptr, "send outside a run");
    // Wake everyone parked on this channel; non-matching readers filter
    // the new entry and re-block. Appends only happen from running fibers
    // on the single scheduler thread, so push-then-block cannot race.
    for (fiber::Scheduler::FiberId fid : ch.waiters) sched_->unblock(fid);
    ch.waiters.clear();
  }
}

double Machine::makespan() const {
  double t = 0.0;
  if (!rotor_counters_.empty()) {
    for (const auto& c : rotor_counters_) t = std::max(t, c.clock);
    return t;
  }
  for (const auto& r : ranks_) t = std::max(t, r.counters.clock);
  return t;
}

const RankCounters& Machine::rank_counters(int rank) const {
  ALGE_REQUIRE(rank >= 0 && rank < cfg_.p, "rank %d out of range", rank);
  if (!rotor_counters_.empty()) {
    return rotor_counters_[static_cast<std::size_t>(rank)];
  }
  return ranks_[static_cast<std::size_t>(slot_of(rank))].counters;
}

SimEnergy energy_of(const core::MachineParams& mp, int p, double makespan,
                    const SimTotals& t, double mem_words_per_rank) {
  SimEnergy e;
  e.makespan = makespan;
  // Summed counts are the physical energy: p·(γe·F_per_proc) == γe·F_total
  // for balanced work, but the summed form stays correct when it is not.
  e.breakdown.flops = mp.gamma_e * t.flops_total;
  // Hop-weighted traffic: every traversed link spends energy. Equal to the
  // plain counts on the default fully connected network.
  e.breakdown.words = mp.beta_e * t.words_hops_total;
  e.breakdown.messages = mp.alpha_e * t.msgs_hops_total;
  e.breakdown.memory =
      static_cast<double>(p) * mp.delta_e * mem_words_per_rank * makespan;
  e.breakdown.leakage = static_cast<double>(p) * mp.eps_e * makespan;
  return e;
}

SimTotals Machine::totals() const {
  SimTotals t;
  if (!rotor_counters_.empty()) {
    // Rotor evaluation already stores one RankCounters per world rank, in
    // world-rank order — the per-fiber summation order by construction.
    for (const auto& c : rotor_counters_) accumulate(t, c);
  } else if (fold_active_) {
    // Accumulate in world-rank order through the fold map: every class
    // member contributes its (shared) class counters at its own position,
    // reproducing the per-fiber floating-point summation order exactly —
    // this is what makes folded totals and energy bit-identical, not just
    // close.
    for (int r = 0; r < cfg_.p; ++r) {
      accumulate(
          t, ranks_[static_cast<std::size_t>(cfg_.fold->class_of(r))].counters);
    }
  } else {
    for (const auto& r : ranks_) accumulate(t, r.counters);
  }
  return t;
}

SimEnergy Machine::energy() const { return energy(totals()); }

SimEnergy Machine::energy(const SimTotals& t) const {
  return energy_with_memory(t.mean_highwater(cfg_.p), t);
}

SimEnergy Machine::energy_with_memory(double mem_words_per_rank,
                                      const SimTotals& t) const {
  return energy_of(cfg_.params, cfg_.p, makespan(), t, mem_words_per_rank);
}

}  // namespace alge::sim
