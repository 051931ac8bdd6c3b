// Cross-backend conformance suite: every algorithm runs on the simulator,
// on forked shared-memory processes, and on loopback TCP, and the three
// runs must agree exactly —
//
//   * per-rank outputs are bitwise equal,
//   * per-rank model counters (clocks, F/W/S, memory highwater) are
//     bitwise equal, so Eq. (1)/(2) evaluate identically on a real run,
//   * the wire-level traffic each real backend actually moved equals the
//     model's W/S ledger per rank: msgs_sent/words_sent match exactly
//     (self-sends never touch the wire and never touch the send ledger),
//     and wire words_recv plus self-delivered words_recv reproduces the
//     model's words_recv.
//
// This is the repo's ground-truth check that the simulator's cost ledger
// describes traffic a real transport would carry, message for message.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/comm.hpp"
#include "sim/machine.hpp"
#include "transport/programs.hpp"
#include "transport/run.hpp"

namespace alge::transport {
namespace {

RunOptions options_for(int p) {
  RunOptions opts;
  opts.p = p;
  opts.params = core::MachineParams::unit();
  opts.timeout_s = 20.0;
  return opts;
}

/// The full oracle between a simulator reference run and a real-backend
/// run of the same program.
void expect_conformant(const RunReport& ref, const RunReport& real,
                       const std::string& label) {
  ASSERT_EQ(ref.p, real.p) << label;
  ASSERT_EQ(ref.ranks.size(), real.ranks.size()) << label;
  for (int r = 0; r < ref.p; ++r) {
    SCOPED_TRACE(label + " rank " + std::to_string(r));
    const RankReport& a = ref.ranks[static_cast<std::size_t>(r)];
    const RankReport& b = real.ranks[static_cast<std::size_t>(r)];
    // Outputs bitwise equal (EXPECT_EQ on doubles is exact equality).
    ASSERT_EQ(a.output.size(), b.output.size());
    for (std::size_t i = 0; i < a.output.size(); ++i) {
      ASSERT_EQ(a.output[i], b.output[i]) << "output word " << i;
    }
    // The model travels with the rank: every counter identical.
    EXPECT_TRUE(a.model == b.model)
        << "model counters diverged: sim clock " << a.model.clock
        << " vs real clock " << b.model.clock << ", sim words_sent "
        << a.model.words_sent << " vs " << b.model.words_sent;
    // Measured wire traffic == the model's W/S ledger, exactly. Self-sends
    // are delivered locally (never on the wire): the send ledger excludes
    // them by construction, the recv ledger includes their words.
    EXPECT_EQ(b.wire.msgs_sent, b.model.msgs_sent);
    EXPECT_EQ(b.wire.words_sent, b.model.words_sent);
    EXPECT_EQ(b.wire.msgs_recv, b.model.msgs_recv);
    EXPECT_EQ(b.wire.words_recv + b.self.words_recv, b.model.words_recv);
    // Self-deliveries carry no model message count.
    EXPECT_EQ(b.self.msgs_sent, b.self.msgs_recv);
  }
  // Aggregates derived from identical per-rank models must agree too.
  EXPECT_EQ(ref.makespan(), real.makespan());
  EXPECT_TRUE(ref.totals() == real.totals());
}

/// Simulator reference through the plain Machine::run path, proving
/// run_sim (and thus the interposed Transport seam) changed nothing.
RunReport reference_via_machine(const RunOptions& opts,
                                const RankProgram& program) {
  RunReport report;
  report.backend = Backend::kSim;
  report.p = opts.p;
  report.ranks.resize(static_cast<std::size_t>(opts.p));
  sim::MachineConfig cfg;
  cfg.p = opts.p;
  cfg.params = opts.params;
  sim::Machine machine(cfg);
  machine.run([&](sim::Comm& comm) {
    RankReport& rr = report.ranks[static_cast<std::size_t>(comm.rank())];
    program(comm, rr.output);
    rr.model = comm.counters();
  });
  return report;
}

class ConformanceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ConformanceTest, SimShmTcpAgree) {
  const std::string alg = GetParam();
  const AlgProgram ap = make_program(conformance_spec(alg));
  const RunOptions opts = options_for(ap.p);

  const RunReport sim_run = run_sim(opts, ap.program);

  // The refactored simulator is bit-identical to the pre-seam Machine path.
  const RunReport machine_run = reference_via_machine(opts, ap.program);
  for (int r = 0; r < opts.p; ++r) {
    const auto& a = machine_run.ranks[static_cast<std::size_t>(r)];
    const auto& b = sim_run.ranks[static_cast<std::size_t>(r)];
    ASSERT_EQ(a.output, b.output) << alg << " rank " << r;
    ASSERT_TRUE(a.model == b.model) << alg << " rank " << r;
  }

  const RunReport shm_run = run_shm(opts, ap.program);
  expect_conformant(sim_run, shm_run, alg + "/shm");

  const RunReport tcp_run = run_tcp_threads(opts, ap.program);
  expect_conformant(sim_run, tcp_run, alg + "/tcp");
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, ConformanceTest,
                         ::testing::ValuesIn(program_names()),
                         [](const auto& info) { return info.param; });

// A send larger than max_msg_words splits into ceil(k/m) model messages;
// the real backends must put exactly that many frames on the wire so the
// measured message count still equals the S ledger.
TEST(ConformanceChunking, SplitSendsMatchLedgerOnEveryBackend) {
  RunOptions opts = options_for(4);
  opts.params.max_msg_words = 7.0;  // 100-word sends -> 15 frames each

  const RankProgram program = [](sim::Comm& comm, std::vector<double>& out) {
    constexpr std::size_t kWords = 100;
    std::vector<double> buf(kWords);
    for (std::size_t i = 0; i < kWords; ++i) {
      buf[i] = static_cast<double>(comm.rank() * 1000 + static_cast<int>(i));
    }
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    std::vector<double> in(kWords);
    comm.sendrecv(next, sim::ConstPayload(buf), prev, sim::Payload(in));
    out = in;
  };

  const RunReport sim_run = run_sim(opts, program);
  // 100 words at m=7 is 15 messages in the ledger.
  EXPECT_EQ(sim_run.ranks[0].model.msgs_sent, 15.0);

  expect_conformant(sim_run, run_shm(opts, program), "chunking/shm");
  expect_conformant(sim_run, run_tcp_threads(opts, program), "chunking/tcp");
}

// Frames larger than one shm ring must stream through in pieces rather
// than deadlock or truncate: ring_bytes is a buffering bound, not a
// message-size cap.
TEST(ConformanceChunking, FramesLargerThanShmRingStreamThrough) {
  RunOptions opts = options_for(2);
  opts.ring_bytes = 1024;  // 128 words of buffer; frames are ~4x that

  const RankProgram program = [](sim::Comm& comm, std::vector<double>& out) {
    constexpr std::size_t kWords = 500;
    if (comm.rank() == 0) {
      std::vector<double> buf(kWords);
      for (std::size_t i = 0; i < kWords; ++i) {
        buf[i] = static_cast<double>(i) * 0.5;
      }
      comm.send(1, sim::ConstPayload(buf));
      out = buf;
    } else {
      out.resize(kWords);
      comm.recv(0, sim::Payload(out));
    }
  };

  const RunReport sim_run = run_sim(opts, program);
  expect_conformant(sim_run, run_shm(opts, program), "bigframe/shm");
}

// --- bounded buffers ---
//
// The progress rule (every blocking wait drains all inbound channels) is
// what lets the real backends keep the simulator's eager-send semantics
// with bounded buffering. These cases shrink the buffers until nearly every
// message outgrows them: every algorithm must still match the simulator
// bitwise and the wire must still equal the ledger.

/// Small real buffers: 1 KiB shm rings and 4 KiB socket buffers (the
/// kernel doubles the request). 4 KiB is the smallest request loopback TCP
/// runs well with: at the kernel's floor the receive buffer cannot hold one
/// segment's accounting overhead, so the receiver advertises a zero window
/// and the sender crawls on zero-window probes.
RunOptions bounded(RunOptions opts) {
  opts.ring_bytes = 1024;
  opts.socket_buffer_bytes = 4096;
  return opts;
}

class BoundedBuffer : public ::testing::TestWithParam<std::string> {};

TEST_P(BoundedBuffer, TinyShmRings) {
  const AlgProgram ap = make_program(conformance_spec(GetParam()));
  const RunOptions opts = bounded(options_for(ap.p));
  expect_conformant(run_sim(opts, ap.program), run_shm(opts, ap.program),
                    GetParam() + "/shm-1KiB");
}

TEST_P(BoundedBuffer, TinyTcpBuffers) {
  const AlgProgram ap = make_program(conformance_spec(GetParam()));
  const RunOptions opts = bounded(options_for(ap.p));
  expect_conformant(run_sim(opts, ap.program),
                    run_tcp_threads(opts, ap.program),
                    GetParam() + "/tcp-minbuf");
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, BoundedBuffer,
                         ::testing::ValuesIn(program_names()),
                         [](const auto& info) { return info.param; });

/// Both ranks send `kWords` words to each other before either receives:
/// far more than a 1 KiB ring or a minimum socket buffer holds, so each
/// send can only finish while the other rank's blocked send drains it.
void crossed_sends(sim::Comm& comm, std::vector<double>& out) {
  constexpr std::size_t kWords = std::size_t{1} << 15;  // 256 KiB
  std::vector<double> buf(kWords);
  for (std::size_t i = 0; i < kWords; ++i) {
    buf[i] = static_cast<double>(comm.rank()) * 1e6 + static_cast<double>(i);
  }
  const int peer = 1 - comm.rank();
  comm.send(peer, sim::ConstPayload(buf));
  out.resize(kWords);
  comm.recv(peer, sim::Payload(out));
}

TEST(BoundedBufferCrossedSends, Shm) {
  const RunOptions opts = bounded(options_for(2));
  expect_conformant(run_sim(opts, crossed_sends),
                    run_shm(opts, crossed_sends), "crossed/shm");
}

TEST(BoundedBufferCrossedSends, Tcp) {
  const RunOptions opts = bounded(options_for(2));
  expect_conformant(run_sim(opts, crossed_sends),
                    run_tcp_threads(opts, crossed_sends), "crossed/tcp");
}

// --- benchmark sizes ---
//
// The two real_p4 benchmark programs whose messages outgrow the default
// 1 MiB ring: Cannon's 512×512-block shifts (2 MiB) and the FFT transpose
// (1 MiB blocks plus the chunk header). Default buffers, every backend.

void expect_all_backends_conform(const ProgramSpec& spec,
                                 const std::string& label) {
  const AlgProgram ap = make_program(spec);
  const RunOptions opts = options_for(ap.p);
  const RunReport sim_run = run_sim(opts, ap.program);
  expect_conformant(sim_run, run_shm(opts, ap.program), label + "/shm");
  expect_conformant(sim_run, run_tcp_threads(opts, ap.program),
                    label + "/tcp");
}

TEST(BenchmarkSizes, CannonN1024) {
  ProgramSpec spec;
  spec.alg = "mm25d";
  spec.n = 1024;
  spec.q = 2;
  spec.c = 1;
  expect_all_backends_conform(spec, "cannon-1024");
}

TEST(BenchmarkSizes, Fft1024x1024) {
  ProgramSpec spec;
  spec.alg = "fft";
  spec.r_dim = 1024;
  spec.c_dim = 1024;
  spec.p = 4;
  expect_all_backends_conform(spec, "fft-1024x1024");
}

}  // namespace
}  // namespace alge::transport
