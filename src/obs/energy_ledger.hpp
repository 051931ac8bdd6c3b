// Term-by-term attribution of the paper's Eq. (2) energy
//
//   E = p·(γe·F + βe·W + αe·S + δe·M·T + εe·T)
//
// to (rank, phase) cells, built from the per-phase counter slices a Machine
// accumulates when MachineConfig::enable_ledger is set (phases come from
// Machine::phase / Comm::phase scopes; unlabelled work lands in "(main)").
//
// Attribution rules, chosen so the cells sum EXACTLY (up to floating-point
// reassociation) to Machine::energy_with_memory(M, totals).total():
//
//   γe·F, βe·W, αe·S   from each cell's own flop / hop-weighted traffic
//                      counts (the dynamic terms follow the work);
//   δe·M·T, εe·T       prorated over each cell's virtual-clock advance —
//                      static power is paid per wall second, wherever the
//                      rank's clock moved;
//   "(tail)"           a synthetic final phase per rank holding the static
//                      energy of T − clock_r, the window between a rank's
//                      own finish and the machine makespan, which belongs
//                      to no user phase but is paid in Eq. (2).
#pragma once

#include <string>
#include <vector>

#include "sim/counters.hpp"
#include "sim/machine.hpp"
#include "support/json.hpp"

namespace alge::obs {

/// One (rank, phase) slice of Eq. (2), in joules (model units).
struct LedgerCell {
  sim::PhaseCounters counters;  ///< the measured slice the terms came from
  double flops_e = 0.0;         ///< γe·F of the slice
  double words_e = 0.0;         ///< βe·W (hop-weighted)
  double msgs_e = 0.0;          ///< αe·S (hop-weighted)
  double memory_e = 0.0;        ///< δe·M·t of the slice
  double leakage_e = 0.0;       ///< εe·t of the slice

  double total() const {
    return flops_e + words_e + msgs_e + memory_e + leakage_e;
  }

  LedgerCell& operator+=(const LedgerCell& o);
};

class EnergyLedger {
 public:
  int p() const { return static_cast<int>(cells_.size()); }

  /// Phase labels, index == phase id; the last entry is the synthetic
  /// "(tail)" phase (see file comment).
  const std::vector<std::string>& phases() const { return phases_; }

  const LedgerCell& cell(int rank, int phase) const;

  /// Sum over phases for one rank (== the rank's full Eq. (2) share).
  LedgerCell rank_total(int rank) const;

  /// Sum over ranks for one phase.
  LedgerCell phase_total(int phase) const;

  /// Grand total; equals Machine::energy_with_memory(M, totals).total() up to
  /// floating-point reassociation (verified by tests/test_obs.cpp).
  double total() const;

  /// Aligned table: one row per phase (summed over ranks) + TOTAL, one
  /// column per Eq. (2) term.
  std::string render() const;

  json::Value to_json() const;

 private:
  friend EnergyLedger build_energy_ledger(const sim::Machine& m,
                                          double mem_words_per_rank);
  std::vector<std::string> phases_;
  std::vector<std::vector<LedgerCell>> cells_;  ///< [rank][phase]
};

/// Build the ledger from a finished run with an explicit per-rank memory M
/// (the same convention as Machine::energy_with_memory). Requires
/// cfg.enable_ledger; throws invalid_argument_error otherwise.
EnergyLedger build_energy_ledger(const sim::Machine& m,
                                 double mem_words_per_rank);

/// Same, with M = the mean per-rank memory high-water mark — the convention
/// of Machine::energy(), so ledger.total() matches m.energy().total().
EnergyLedger build_energy_ledger(const sim::Machine& m);

}  // namespace alge::obs
