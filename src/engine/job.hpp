// The engine's unit of work: a serializable experiment specification and a
// typed result.
//
// An ExperimentSpec names everything that determines a simulated run —
// algorithm, machine parameters, problem/grid dimensions, options, seed —
// so that (a) the runner can execute it on any thread, and (b) its
// canonical JSON encoding can be hashed for content-addressed result
// caching. ExperimentResult carries the measured counters (F/W/S aggregates),
// the simulated makespan, the itemized Eq. (2) energy ledger, and the
// verification outcome; it round-trips through JSON bit-exactly (doubles are
// serialized with round-trip precision), which is what makes cached and
// freshly computed results interchangeable.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/costs.hpp"
#include "core/params.hpp"
#include "sim/machine.hpp"
#include "support/json.hpp"

namespace alge::engine {

/// Everything the runner knows how to execute: the seven algorithm-table
/// entries (algs/registry.hpp) plus the collective microbenchmarks (used by
/// ablation_collectives).
enum class Alg {
  kMm25d,          ///< 2.5D matmul (c=1: Cannon 2D; c=q: 3D), p = q²c
  kSumma,          ///< SUMMA 2D baseline, p = q²
  kCaps,           ///< CAPS Strassen, p = 7^k
  kNBody,          ///< replicating n-body, p ranks in c teams
  kLu,             ///< block-cyclic LU (2D or 2.5D), p = q²c
  kFft,            ///< four-step FFT, n = r_dim·c_dim
  kTsqr,           ///< TSQR tree QR: n rows per rank × nb columns, p ranks
  kCollBcast,      ///< binomial broadcast of payload_words
  kCollReduce,     ///< binomial reduce of payload_words
  kCollAllgather,  ///< ring allgather of payload_words per rank
  kCollA2aDirect,  ///< direct all-to-all, payload_words per peer
  kCollA2aBruck,   ///< Bruck all-to-all, payload_words per peer
};

std::string_view to_string(Alg alg);
Alg alg_from_string(std::string_view name);

/// MachineParams <-> JSON in the spec's canonical field order. Shared with
/// src/serve, whose requests carry explicit machine parameters in exactly
/// the encoding the cache keys already use.
json::Value machine_params_to_json(const core::MachineParams& mp);
core::MachineParams machine_params_from_json(const json::Value& v);

struct ExperimentSpec {
  Alg alg = Alg::kMm25d;
  core::MachineParams params;

  // Problem / grid dimensions; an algorithm reads only the fields it needs
  // (matching algs::Problem), the rest stay at their defaults.
  int n = 0;      ///< problem size (matrix dim, particles, FFT points)
  int q = 0;      ///< grid edge (mm25d/summa/lu)
  int c = 0;      ///< replication factor / team count
  int p = 0;      ///< rank count (nbody/fft/collectives)
  int k = 0;      ///< CAPS levels (p = 7^k)
  int nb = 0;     ///< LU block size
  int r_dim = 0;  ///< FFT row dimension
  int c_dim = 0;  ///< FFT column dimension
  int payload_words = 0;  ///< collective payload per rank/peer

  bool ring_replication = false;   ///< mm25d: ring instead of tree bcast
  std::string caps_schedule;       ///< CAPS {B,D}* schedule ("" = all-BFS)
  int caps_cutoff = 32;            ///< CAPS local Strassen cutoff
  bool fft_bruck = false;          ///< FFT transpose: Bruck vs direct
  bool verify = false;             ///< check against the sequential reference
  std::uint64_t seed = 1;

  // Chaos axes (src/chaos): both default-inert. Serialized only when set,
  // so existing cache keys (and cached results) stay valid.
  std::uint64_t chaos_seed = 0;  ///< nonzero: permute the fiber wake order
  std::string fault_plan;        ///< bundled chaos::FaultPlan name ("" = off)

  // Data mode (sim/payload.hpp): kGhost runs the identical cost schedule
  // without data movement or local kernels. Default-inert and serialized
  // only when set, like the chaos axes, so kFull cache keys are unchanged.
  sim::DataMode data_mode = sim::DataMode::kFull;

  // Execution mode (sim/fold.hpp): kFolded collapses fold-congruent ranks
  // onto class representatives and replays per-class cost deltas (requires
  // kGhost; the machine transparently falls back to fibers when the
  // algorithm has no fold map or chaos axes are active). Default-inert and
  // serialized only when set, so existing cache keys are unchanged.
  sim::ExecMode exec_mode = sim::ExecMode::kFibers;

  json::Value to_json() const;
  /// Strict decoder: throws invalid_argument_error naming the key for an
  /// unknown key (top level or in "params"), an integer field that is not
  /// a finite integral number in int range, or a seed that is not a
  /// decimal uint64 string; json_error for a missing key.
  static ExperimentSpec from_json(const json::Value& v);

  /// Deterministic compact encoding; equal specs produce equal strings.
  /// This string (not the struct) is what the result cache hashes.
  std::string canonical_json() const { return to_json().dump(); }

  bool operator==(const ExperimentSpec& o) const {
    return canonical_json() == o.canonical_json();
  }
};

struct ExperimentResult {
  int p = 0;
  double makespan = 0.0;            ///< simulated seconds
  sim::SimTotals totals;            ///< measured F/W/S aggregates
  core::EnergyBreakdown energy;     ///< itemized Eq. (2) terms
  double max_abs_error = 0.0;       ///< vs sequential reference (if verified)
  bool verified = false;
  /// Fold execution slots: the fiber count when the machine folded (0 when
  /// it ran one fiber per rank). Serialized only when nonzero so cached
  /// per-fiber results keep their encoding.
  int fold_slots = 0;

  double words_per_proc() const { return totals.words_sent_max; }
  double msgs_per_proc() const { return totals.msgs_sent_max; }
  double energy_total() const { return energy.total(); }
  double power() const { return energy.total() / makespan; }

  json::Value to_json() const;
  static ExperimentResult from_json(const json::Value& v);

  bool operator==(const ExperimentResult& o) const = default;
};

}  // namespace alge::engine
