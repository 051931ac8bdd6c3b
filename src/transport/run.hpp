// Backend-agnostic runner for rank programs: the same program — a function
// of (sim::Comm&, output) — executes on the virtual-clock simulator, on p
// forked processes over shared memory, or on p threads (or p shells, via
// run_tcp_rank) over loopback TCP, and every backend returns the same
// RunReport shape: per-rank outputs, the model's RankCounters (carried by
// the real backends bit-identically to a simulated run), and the wire-level
// TransportStats the conformance suite compares against the W/S ledger.
//
// The model travels with the rank: each real-backend rank owns a full
// Machine(p) whose CostHooks charge exactly as the simulator's, with the
// peer clocks arriving inside chunk frames. RunReport::totals()/energy()
// go through the Machine's own sim::accumulate / sim::energy_of in world-rank
// order, so a real run plugs into the same Eq. (1)/(2) comparisons.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/params.hpp"
#include "obs/span_log.hpp"
#include "sim/counters.hpp"
#include "sim/machine.hpp"
#include "transport/transport.hpp"

namespace alge::sim {
class Comm;
}

namespace alge::transport {

enum class Backend {
  kSim,  ///< virtual-clock simulator (fibers, mailboxes)
  kShm,  ///< forked rank processes over shared-memory rings
  kTcp,  ///< rank threads (or shells) over loopback TCP sockets
};

std::string_view to_string(Backend b);
Backend backend_from_string(std::string_view name);

struct RunOptions {
  int p = 0;
  core::MachineParams params;
  /// Bound on every blocking transport wait and on the whole multi-process
  /// run: real backends fail with TransportError instead of hanging.
  double timeout_s = 30.0;
  /// shm: bytes per (src, dst) ring. Bounds buffering, not message size —
  /// larger frames stream through in pieces.
  std::size_t ring_bytes = std::size_t{1} << 20;
  /// shm: per-rank output capacity in the arena (the parent harvests rank
  /// outputs through shared memory).
  std::size_t max_output_words = std::size_t{1} << 20;
  /// tcp: per-frame cap handed to serve::FrameReader.
  std::size_t max_frame_bytes = std::size_t{1} << 24;
  /// tcp: SO_SNDBUF and SO_RCVBUF of every mesh socket, the counterpart of
  /// ring_bytes; 0 keeps the OS default.
  std::size_t socket_buffer_bytes = 0;
  /// Optional real-clock span sink: each rank's program execution is
  /// recorded as one span (lane = rank) for chrome://tracing next to the
  /// simulator's virtual-time traces.
  obs::SpanLog* spans = nullptr;
};

/// One rank's work: runs against the Comm (any backend) and publishes its
/// result through `output`.
using RankProgram = std::function<void(sim::Comm&, std::vector<double>&)>;

struct RankReport {
  std::vector<double> output;
  sim::RankCounters model;  ///< the rank's virtual clocks and W/S counters
  TransportStats wire;      ///< what the backend actually moved
  TransportStats self;      ///< self-send traffic (never on the wire)
  double wall_s = 0.0;      ///< real seconds inside the rank program
};

struct RunReport {
  Backend backend = Backend::kSim;
  int p = 0;
  std::vector<RankReport> ranks;
  double wall_s = 0.0;  ///< real seconds for the whole run

  /// Virtual makespan: max over ranks of the model clock.
  double makespan() const;
  /// sim::accumulate over the ranks in world-rank order, as
  /// Machine::totals() sums.
  sim::SimTotals totals() const;
  /// Eq. (2) on the model counters, as Machine::energy() computes it.
  sim::SimEnergy energy(const core::MachineParams& params) const;
};

/// Run `program` on every rank over the chosen backend.
RunReport run(Backend backend, const RunOptions& opts,
              const RankProgram& program);

RunReport run_sim(const RunOptions& opts, const RankProgram& program);
RunReport run_shm(const RunOptions& opts, const RankProgram& program);
RunReport run_tcp_threads(const RunOptions& opts, const RankProgram& program);

/// One rank of a multi-process TCP run (e.g. one shell per rank). Rank 0
/// listens on `port`; every other rank connects to host:port. Returns this
/// rank's report only — there is no cross-process aggregation.
RankReport run_tcp_rank(int rank, const RunOptions& opts,
                        const std::string& host, int port,
                        const RankProgram& program);

}  // namespace alge::transport
