// The algorithm table: one entry per distributed algorithm, and the one
// simulator run path every consumer shares.
//
// An entry turns a Problem into a rank-local program — a closure of
// (sim::Comm&, output) that the simulator, forked shm ranks and TCP ranks
// all run unchanged — plus a verifier for the per-rank outputs, the fold
// map for folded execution, small named size presets for sweeps over
// machine sizes, and the candidates the navigator scores against the
// core::make_model cost models the entry executes. Inputs come from
// Rng(seed) and are generated lazily, at most once per process, then
// shared by every rank in that process; a forked or remote rank generates
// the identical inputs itself.
//
// On a ghost-mode machine (sim/payload.hpp) the program passes sizes-only
// payload views and never touches the inputs, so frontier-scale runs cost
// no data at all.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/params.hpp"
#include "sim/fold.hpp"
#include "sim/machine.hpp"

namespace alge::sim {
class Comm;
}

namespace alge::algs {

/// Problem parameters for one algorithm run; field meanings match
/// engine::ExperimentSpec (n/q/c/p/k/nb/r_dim/c_dim and the per-algorithm
/// options). An algorithm reads only the fields it needs.
struct Problem {
  std::string alg;  ///< a table name: mm25d, summa, caps, nbody, lu, fft, tsqr
  int n = 8;      ///< matrix dim / particles; TSQR rows per rank
  int q = 2;      ///< grid edge (mm25d, summa, lu)
  int c = 1;      ///< replication factor / team count
  int p = 4;      ///< rank count where independent (nbody, fft, tsqr)
  int k = 1;      ///< CAPS levels (p = 7^k)
  int nb = 2;     ///< LU block size; TSQR column count b
  int r_dim = 4;  ///< FFT rows
  int c_dim = 4;  ///< FFT columns
  bool fft_bruck = false;
  std::string caps_schedule{};  ///< CAPS {B,D}* schedule ("" = all-BFS)
  int caps_cutoff = 32;       ///< CAPS local Strassen cutoff
  bool ring_replication = false;
  std::uint64_t seed = 1;
};

/// One rank's work: runs against the Comm (any backend) and publishes its
/// natural local result (C block, force block, factored blocks, FFT rows,
/// or R) through `output`.
using RankProgram = std::function<void(sim::Comm&, std::vector<double>&)>;

struct Instance {
  int p = 0;  ///< world size the problem implies (q²c, 7^k, or p)
  RankProgram program;
  /// Per-rank outputs (indexed by rank) -> max |error| vs the sequential
  /// reference.
  std::function<double(const std::vector<std::vector<double>>&)> verify;
};

/// One executable configuration of an entry, as the navigator scores it.
struct Candidate {
  Problem problem;       ///< 0 in every field the algorithm does not read
  std::string label;     ///< unique among one model's candidates
  std::string topology;  ///< grid shape / replication, e.g. "8x8x2"
  std::string impl;      ///< collective implementation, e.g. "bcast-ring"
  double model_M = 0.0;  ///< memory per rank the analytic model is fed
  /// The model's W lower bound times this is the bound in the program's
  /// words: particle words and the ring's share for n-body, else 1.
  double words_scale = 1.0;
};

struct Entry {
  std::string_view name;
  /// The core::make_model names whose cost model this entry executes.
  std::vector<std::string_view> models;
  /// Validates the problem (invalid_argument_error on bad dimensions) and
  /// fixes its rank count; generates no inputs.
  Instance (*make)(const Problem&);
  /// The fold map for folded execution; may be null (no exact fold).
  std::shared_ptr<const sim::FoldMap> (*fold)(const Problem&);
  /// A small valid problem for machine-size class `p` (the rank count the
  /// entry picks may differ: CAPS always runs on 7 ranks, say).
  Problem (*preset)(int p);
  /// Problem size the navigator's sim stage enumerates at by default.
  int sim_n;
  /// Every configuration of size n that fits on p_available ranks, in a
  /// fixed order; throws invalid_argument_error when n cannot run at all.
  std::vector<Candidate> (*candidates)(int n, double p_available);
};

/// Every algorithm, in a fixed order.
const std::vector<Entry>& all();

/// The entry named `name`; throws invalid_argument_error naming the table
/// on an unknown name.
const Entry& find(std::string_view name);

/// The table's names, in table order.
const std::vector<std::string>& names();

/// The names joined by `sep` ("mm25d, summa, ...") for usage and error
/// text.
std::string names_list(std::string_view sep = ", ");

struct RunResult {
  int p = 0;               ///< machine size
  double makespan = 0.0;   ///< simulated seconds
  sim::SimTotals totals;   ///< measured F/W/S aggregates
  sim::SimEnergy energy;   ///< Eq. (2) on the measured run
  double max_abs_error = 0.0;  ///< vs the sequential reference (if verified)
  bool verified = false;
  /// Fold execution slots: the fiber count (or 1 for a rotor sweep) when
  /// the machine folded, 0 when it ran one fiber per rank.
  int fold_slots = 0;

  /// Per-processor critical-path words/messages (what the paper's W and S
  /// bound).
  double words_per_proc() const { return totals.words_sent_max; }
  double msgs_per_proc() const { return totals.msgs_sent_max; }
};

/// Called with the finished Machine (counters final) before run() returns,
/// e.g. to copy the trace or read per-rank counters.
using Inspect = std::function<void(const sim::Machine&)>;

/// Run `pb` on a simulated machine configured by `cfg` (trace, ledger,
/// data/exec mode, faults, wake policy, fold map...). Sets cfg.p, attaches
/// the entry's fold map when folding was asked for and none is set, and
/// rejects ghost + verify (ghost runs have no output).
RunResult run(const Problem& pb, sim::MachineConfig cfg, bool verify,
              const Inspect& inspect = {});

/// run() on a default machine with parameters `mp`.
inline RunResult run(const Problem& pb, const core::MachineParams& mp,
                     bool verify = false) {
  sim::MachineConfig cfg;
  cfg.params = mp;
  return run(pb, std::move(cfg), verify);
}

}  // namespace alge::algs
