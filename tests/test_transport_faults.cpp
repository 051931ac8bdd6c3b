// Fault behavior of the real transport backends: a peer that disconnects,
// truncates a frame, dies mid-collective, or finishes without sending must
// surface as a structured TransportError (a SimError subclass) within the
// configured timeout — never a hang, never silent corruption.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "sim/comm.hpp"
#include "sim/machine.hpp"
#include "transport/run.hpp"
#include "transport/tcp.hpp"
#include "transport/wire.hpp"

namespace alge::transport {
namespace {

/// A 2-rank TcpTransport for rank 0 whose link to rank 1 is one end of a
/// socketpair; the other end is returned for the test to script the peer.
struct ScriptedPeer {
  TcpTransport transport;
  int peer_fd;

  static ScriptedPeer make(double timeout_s = 2.0) {
    int sv[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    std::vector<int> fds = {-1, sv[0]};
    return ScriptedPeer{
        TcpTransport(0, 2, std::move(fds), /*max_frame_bytes=*/4096,
                     timeout_s),
        sv[1]};
  }

  ~ScriptedPeer() {
    if (peer_fd >= 0) ::close(peer_fd);
  }
};

WireChunkHeader header_for(std::size_t words) {
  WireChunkHeader h{};
  h.magic = kWireMagic;
  h.src = 1;
  h.tag = 0;
  h.chunk_index = 0;
  h.chunk_count = 1;
  h.msg_words = words;
  h.chunk_words = words;
  h.arrival = 0.0;
  h.msg_count = 1.0;
  return h;
}

std::string frame_bytes(const WireChunkHeader& h,
                        const std::vector<double>& words) {
  std::string body(reinterpret_cast<const char*>(&h), sizeof(h));
  body.append(reinterpret_cast<const char*>(words.data()),
              words.size() * sizeof(double));
  std::string framed;
  serve::append_frame(framed, body);
  return framed;
}

void expect_receive_throws(TcpTransport& t, const std::string& what_contains) {
  std::vector<double> out(4);
  try {
    t.receive(1, 0, sim::Payload(out));
    FAIL() << "receive did not throw (expected \"" << what_contains << "\")";
  } catch (const TransportError& e) {
    EXPECT_NE(std::string(e.what()).find(what_contains), std::string::npos)
        << "actual error: " << e.what();
  }
}

TEST(TcpFaults, PeerDisconnectSurfacesAsClosed) {
  ScriptedPeer sp = ScriptedPeer::make();
  ::close(sp.peer_fd);
  sp.peer_fd = -1;
  expect_receive_throws(sp.transport, "peer closed the connection");
}

TEST(TcpFaults, TruncatedFrameSurfacesAsTruncated) {
  ScriptedPeer sp = ScriptedPeer::make();
  const std::string framed = frame_bytes(header_for(4), {1.0, 2.0, 3.0, 4.0});
  // Deliver the length prefix and half the body, then hang up mid-frame.
  ASSERT_TRUE(serve::write_all(sp.peer_fd, framed.substr(0, 20)));
  ::close(sp.peer_fd);
  sp.peer_fd = -1;
  expect_receive_throws(sp.transport, "truncated frame");
}

TEST(TcpFaults, SilentPeerTimesOutInsteadOfHanging) {
  ScriptedPeer sp = ScriptedPeer::make(/*timeout_s=*/0.2);
  // Peer stays connected but never sends: the socket deadline must fire.
  expect_receive_throws(sp.transport, "failed or timed out");
}

TEST(TcpFaults, OversizedFrameIsRejected) {
  ScriptedPeer sp = ScriptedPeer::make();
  // Claim a frame far beyond max_frame_bytes; FrameReader rejects it
  // before buffering.
  const unsigned char big_len[4] = {0x01, 0x00, 0x00, 0x00};  // 16 MiB
  ASSERT_TRUE(serve::write_all(
      sp.peer_fd,
      std::string_view(reinterpret_cast<const char*>(big_len), 4)));
  expect_receive_throws(sp.transport, "exceeds");
}

TEST(TcpFaults, MalformedHeaderIsRejected) {
  ScriptedPeer sp = ScriptedPeer::make();
  WireChunkHeader h = header_for(4);
  h.magic = 0xdeadbeef;
  ASSERT_TRUE(serve::write_all(sp.peer_fd,
                               frame_bytes(h, {1.0, 2.0, 3.0, 4.0})));
  expect_receive_throws(sp.transport, "malformed frame");
}

TEST(TcpFaults, BodyWordMismatchIsRejected) {
  ScriptedPeer sp = ScriptedPeer::make();
  WireChunkHeader h = header_for(4);
  h.chunk_words = 8;  // header promises more words than the body carries
  h.msg_words = 8;
  ASSERT_TRUE(serve::write_all(sp.peer_fd,
                               frame_bytes(h, {1.0, 2.0, 3.0, 4.0})));
  expect_receive_throws(sp.transport, "header declares");
}

TEST(TcpFaults, MissingMeshConnectionIsRejected) {
  std::vector<int> fds = {-1, -1, -1};
  TcpTransport t(0, 3, std::move(fds), 4096, 1.0);
  std::vector<double> out(1);
  EXPECT_THROW(t.receive(2, 0, sim::Payload(out)), TransportError);
}

// A rank that throws mid-collective tears down its sockets; the whole TCP
// run must fail with a structured error, not hang the surviving ranks.
TEST(TcpFaults, RankAbortMidCollectiveFailsTheRun) {
  RunOptions opts;
  opts.p = 2;
  opts.params = core::MachineParams::unit();
  opts.timeout_s = 5.0;
  const RankProgram program = [](sim::Comm& comm, std::vector<double>& out) {
    if (comm.rank() == 1) {
      throw std::runtime_error("rank 1 aborts before sending");
    }
    out.resize(8);
    comm.recv(1, sim::Payload(out));
  };
  EXPECT_THROW(run_tcp_threads(opts, program), TransportError);
}

// --- shm ---

RunOptions shm_options(int p, double timeout_s) {
  RunOptions opts;
  opts.p = p;
  opts.params = core::MachineParams::unit();
  opts.timeout_s = timeout_s;
  return opts;
}

void expect_shm_run_fails(const RunOptions& opts, const RankProgram& program,
                          const std::string& what_contains) {
  try {
    run_shm(opts, program);
    FAIL() << "run_shm did not throw (expected \"" << what_contains << "\")";
  } catch (const TransportError& e) {
    EXPECT_NE(std::string(e.what()).find(what_contains), std::string::npos)
        << "actual error: " << e.what();
  }
}

// A partner process that dies abruptly (here: _exit without reporting, the
// moral equivalent of SIGKILL for the protocol) unblocks its peer with a
// structured error instead of leaving it to spin until the timeout.
TEST(ShmFaults, PartnerDeathUnblocksReceiver) {
  const RankProgram program = [](sim::Comm& comm, std::vector<double>& out) {
    if (comm.rank() == 1) ::_exit(7);  // dies without reporting
    out.resize(8);
    comm.recv(1, sim::Payload(out));
  };
  expect_shm_run_fails(shm_options(2, 10.0), program, "exited with status 7");
}

TEST(ShmFaults, PartnerCrashBySignalIsReported) {
  const RankProgram program = [](sim::Comm& comm, std::vector<double>& out) {
    if (comm.rank() == 1) ::raise(SIGKILL);
    out.resize(8);
    comm.recv(1, sim::Payload(out));
  };
  expect_shm_run_fails(shm_options(2, 10.0), program, "killed by signal 9");
}

// A peer that finishes cleanly but never sends the expected message is a
// protocol error, not a timeout.
TEST(ShmFaults, PeerFinishedWithoutSending) {
  const RankProgram program = [](sim::Comm& comm, std::vector<double>& out) {
    if (comm.rank() == 1) return;  // exits cleanly, sends nothing
    out.resize(8);
    comm.recv(1, sim::Payload(out));
  };
  expect_shm_run_fails(shm_options(2, 10.0), program,
                       "finished without sending");
}

// A sender blocked on a full ring whose consumer returns without receiving
// fails with the ring's own verdict: draining inbound rings while blocked
// must not turn a finished consumer into a hang.
TEST(ShmFaults, PeerFinishedWithoutDrainingTheRing) {
  RunOptions opts = shm_options(2, 10.0);
  opts.ring_bytes = 1024;
  const RankProgram program = [](sim::Comm& comm, std::vector<double>& out) {
    (void)out;
    if (comm.rank() == 1) return;  // exits cleanly, receives nothing
    std::vector<double> big(1024);  // 8 KiB: eight times the ring
    comm.send(1, sim::ConstPayload(big));
  };
  expect_shm_run_fails(opts, program,
                       "peer finished without draining the ring");
}

// A sender that writes its last message and returns at once publishes the
// bytes before its finished state; a receiver that finds the ring empty
// and then sees that state must read the bytes, not report them missing.
// Rank 0 receives from every other rank in rank order while they all send
// and exit: with p = 8 its waits drain the later senders' 64 KiB messages,
// which widens the window between the empty ring and the state check.
void expect_fan_in_delivered(int p, int rounds) {
  constexpr std::size_t kWords = 8192;
  const RankProgram program = [](sim::Comm& comm, std::vector<double>& out) {
    if (comm.rank() != 0) {
      std::vector<double> msg(kWords, static_cast<double>(comm.rank()));
      comm.send(0, sim::ConstPayload(msg));
      return;  // finished the moment the bytes are in the ring
    }
    std::vector<double> in(kWords);
    for (int src = 1; src < comm.size(); ++src) {
      comm.recv(src, sim::Payload(in));
      out.push_back(in.front());
    }
  };
  std::vector<double> expect;
  for (int src = 1; src < p; ++src) expect.push_back(src);
  for (int round = 0; round < rounds; ++round) {
    const RunReport rep = run_shm(shm_options(p, 10.0), program);
    ASSERT_EQ(rep.ranks[0].output, expect) << "p " << p << " round " << round;
  }
}

TEST(ShmLiveness, LastMessageBeforeExitIsAlwaysDelivered) {
  expect_fan_in_delivered(2, 200);
  expect_fan_in_delivered(8, 200);
}

// Two ranks each waiting on the other (a program bug) must be cut off by
// the per-wait deadline, with the timeout in the error text.
TEST(ShmFaults, DeadlockIsTimeoutBounded) {
  const RankProgram program = [](sim::Comm& comm, std::vector<double>& out) {
    out.resize(4);
    comm.recv(1 - comm.rank(), sim::Payload(out));  // both block forever
  };
  expect_shm_run_fails(shm_options(2, 0.5), program, "timed out");
}

// A program exception inside one rank propagates through the arena as that
// rank's error string.
TEST(ShmFaults, ProgramExceptionIsCarriedVerbatim) {
  const RankProgram program = [](sim::Comm& comm, std::vector<double>& out) {
    (void)out;
    if (comm.rank() == 0) {
      throw std::runtime_error("synthetic program failure xyz");
    }
  };
  expect_shm_run_fails(shm_options(2, 10.0), program,
                       "synthetic program failure xyz");
}

// Self-consumption without a matching self-send is the simulator's own
// deadlock diagnostic, raised identically on real backends.
TEST(ShmFaults, SelfRecvWithoutSelfSendIsDiagnosed) {
  const RankProgram program = [](sim::Comm& comm, std::vector<double>& out) {
    out.resize(4);
    comm.recv(comm.rank(), sim::Payload(out));
  };
  expect_shm_run_fails(shm_options(2, 10.0), program,
                       "no pending self-send");
}

}  // namespace
}  // namespace alge::transport
