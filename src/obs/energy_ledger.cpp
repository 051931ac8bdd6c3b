#include "obs/energy_ledger.hpp"

#include <sstream>

#include "support/common.hpp"
#include "support/table.hpp"

namespace alge::obs {

LedgerCell& LedgerCell::operator+=(const LedgerCell& o) {
  counters.flops += o.counters.flops;
  counters.words_sent += o.counters.words_sent;
  counters.msgs_sent += o.counters.msgs_sent;
  counters.words_hops += o.counters.words_hops;
  counters.msgs_hops += o.counters.msgs_hops;
  counters.time += o.counters.time;
  counters.idle += o.counters.idle;
  flops_e += o.flops_e;
  words_e += o.words_e;
  msgs_e += o.msgs_e;
  memory_e += o.memory_e;
  leakage_e += o.leakage_e;
  return *this;
}

const LedgerCell& EnergyLedger::cell(int rank, int phase) const {
  ALGE_REQUIRE(rank >= 0 && rank < p(), "rank %d out of range", rank);
  ALGE_REQUIRE(phase >= 0 &&
                   static_cast<std::size_t>(phase) < phases_.size(),
               "phase %d out of range", phase);
  return cells_[static_cast<std::size_t>(rank)]
               [static_cast<std::size_t>(phase)];
}

LedgerCell EnergyLedger::rank_total(int rank) const {
  ALGE_REQUIRE(rank >= 0 && rank < p(), "rank %d out of range", rank);
  LedgerCell sum;
  for (const LedgerCell& c : cells_[static_cast<std::size_t>(rank)]) sum += c;
  return sum;
}

LedgerCell EnergyLedger::phase_total(int phase) const {
  ALGE_REQUIRE(phase >= 0 &&
                   static_cast<std::size_t>(phase) < phases_.size(),
               "phase %d out of range", phase);
  LedgerCell sum;
  for (const auto& rank : cells_) {
    sum += rank[static_cast<std::size_t>(phase)];
  }
  return sum;
}

double EnergyLedger::total() const {
  double e = 0.0;
  for (const auto& rank : cells_) {
    for (const LedgerCell& c : rank) e += c.total();
  }
  return e;
}

std::string EnergyLedger::render() const {
  Table t({"phase", "time", "gamma_e*F", "beta_e*W", "alpha_e*S",
           "delta_e*M*T", "eps_e*T", "energy", "share"});
  const double grand = total();
  LedgerCell all;
  for (std::size_t ph = 0; ph < phases_.size(); ++ph) {
    const LedgerCell c = phase_total(static_cast<int>(ph));
    all += c;
    t.row()
        .cell(phases_[ph])
        .cell(c.counters.time)
        .cell(c.flops_e)
        .cell(c.words_e)
        .cell(c.msgs_e)
        .cell(c.memory_e)
        .cell(c.leakage_e)
        .cell(c.total())
        .cell(grand > 0.0 ? c.total() / grand : 0.0, "%.3f");
  }
  t.row()
      .cell("TOTAL")
      .cell(all.counters.time)
      .cell(all.flops_e)
      .cell(all.words_e)
      .cell(all.msgs_e)
      .cell(all.memory_e)
      .cell(all.leakage_e)
      .cell(all.total())
      .cell(grand > 0.0 ? 1.0 : 0.0, "%.3f");
  std::ostringstream os;
  t.print(os);
  return os.str();
}

json::Value EnergyLedger::to_json() const {
  auto cell_json = [](const LedgerCell& c) {
    json::Value v = json::Value::object();
    v.set("time", c.counters.time)
        .set("idle", c.counters.idle)
        .set("flops", c.counters.flops)
        .set("words_hops", c.counters.words_hops)
        .set("msgs_hops", c.counters.msgs_hops)
        .set("flops_e", c.flops_e)
        .set("words_e", c.words_e)
        .set("msgs_e", c.msgs_e)
        .set("memory_e", c.memory_e)
        .set("leakage_e", c.leakage_e)
        .set("energy", c.total());
    return v;
  };
  json::Value phases = json::Value::array();
  for (const std::string& name : phases_) phases.push_back(name);
  json::Value per_phase = json::Value::object();
  for (std::size_t ph = 0; ph < phases_.size(); ++ph) {
    per_phase.set(phases_[ph], cell_json(phase_total(static_cast<int>(ph))));
  }
  json::Value per_rank = json::Value::array();
  for (int r = 0; r < p(); ++r) {
    per_rank.push_back(cell_json(rank_total(r)));
  }
  json::Value v = json::Value::object();
  v.set("p", p())
      .set("phases", std::move(phases))
      .set("per_phase", std::move(per_phase))
      .set("per_rank", std::move(per_rank))
      .set("total", total());
  return v;
}

EnergyLedger build_energy_ledger(const sim::Machine& m,
                                 double mem_words_per_rank) {
  ALGE_REQUIRE(m.ledger_enabled(),
               "energy ledger needs MachineConfig::enable_ledger");
  const core::MachineParams& mp = m.params();
  const double T = m.makespan();

  EnergyLedger ledger;
  for (const std::string& name : m.phase_names()) {
    ledger.phases_.push_back(name);
  }
  ledger.phases_.push_back("(tail)");
  const std::size_t nphase = ledger.phases_.size();

  ledger.cells_.resize(static_cast<std::size_t>(m.p()));
  for (int r = 0; r < m.p(); ++r) {
    auto& row = ledger.cells_[static_cast<std::size_t>(r)];
    row.resize(nphase);
    const std::vector<sim::PhaseCounters>& slices = m.phase_counters(r);
    for (std::size_t ph = 0; ph < slices.size(); ++ph) {
      row[ph].counters = slices[ph];
    }
    // The tail: static power between this rank's finish and the machine
    // makespan. Eq. (2) charges δe·M·T + εe·T per rank over the full T.
    sim::PhaseCounters& tail = row[nphase - 1].counters;
    tail.time = T - m.rank_counters(r).clock;
    tail.idle = tail.time;
    for (LedgerCell& c : row) {
      c.flops_e = mp.gamma_e * c.counters.flops;
      c.words_e = mp.beta_e * c.counters.words_hops;
      c.msgs_e = mp.alpha_e * c.counters.msgs_hops;
      c.memory_e = mp.delta_e * mem_words_per_rank * c.counters.time;
      c.leakage_e = mp.eps_e * c.counters.time;
    }
  }
  return ledger;
}

EnergyLedger build_energy_ledger(const sim::Machine& m) {
  return build_energy_ledger(m, m.totals().mean_highwater(m.p()));
}

}  // namespace alge::obs
