// Loopback TCP socket backend: one socket per rank pair, chunk frames
// wrapped in src/serve's 4-byte length-prefix framing, read through
// serve::FrameReader so every malformed-stream case (disconnect, truncated
// frame, oversized frame) is classified and surfaces as a TransportError —
// never a hang (every wait is a poll() under the timeout_s deadline).
//
// Progress rule, as in the shm backend: sends are non-blocking, and every
// wait — a send facing a full socket, a receive facing an incomplete frame —
// polls every peer for input and pulls what arrived into that peer's
// FrameReader. A rank blocked sending therefore still drains its peers, so
// two ranks that each send more than the socket buffers hold before
// receiving both complete. Mesh sockets set TCP_NODELAY: chunk frames are
// latency-bound and must not wait on Nagle's delayed-ACK handshake.
//
// Mesh establishment (tcp_mesh) is a rank-0 rendezvous: every other rank
// connects to rank 0's listener and that connection *is* the (0, r) mesh
// link. Rank r sends a fixed-size hello carrying its rank and the port of
// its own mesh listener; once all p-1 hellos are in, rank 0 broadcasts the
// port table and each pair (i, j) with 0 < j < i completes the mesh by i
// connecting to j's listener. The control phase reads exact byte counts
// (never buffering ahead), so the sockets hand over to the transport's
// FrameReaders with nothing in flight. Loopback-only by design, like the
// query service the framing comes from.
//
// The fd-vector constructor is the seam the fault tests use: any set of
// pre-connected stream sockets (e.g. socketpairs with a scripted peer)
// makes a valid TcpTransport, so frame truncation and mid-collective
// disconnects are testable without a real mesh.
#pragma once

#include <chrono>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "transport/wire.hpp"

namespace alge::transport {

/// Establish the full rank mesh; returns p fds with fds[rank] == -1.
/// `rendezvous_fd`: rank 0 passes its listening socket (not closed; the
/// caller owns it, and created it with the same `socket_buffer_bytes`) and
/// ignores host/port; other ranks pass -1 and connect to host:port.
/// `socket_buffer_bytes` > 0 sets every mesh socket's SO_SNDBUF and
/// SO_RCVBUF (the kernel clamps to its minimum); 0 keeps the OS default.
/// Throws TransportError on malformed hellos, rank/p mismatches, duplicate
/// ranks, or timeout.
std::vector<int> tcp_mesh(int rank, int p, int rendezvous_fd,
                          const std::string& host, int port,
                          double timeout_s,
                          std::size_t socket_buffer_bytes = 0);

/// One rank's TCP endpoint over pre-connected per-peer sockets. Takes
/// ownership of the fds (closed on destruction) and bounds every wait by
/// `timeout_s`.
class TcpTransport final : public ChunkedTransport {
 public:
  TcpTransport(int rank, int p, std::vector<int> fds,
               std::size_t max_frame_bytes, double timeout_s);
  ~TcpTransport() override;

  const char* name() const override { return "tcp"; }

 protected:
  void send_frame(int dst, const void* bytes, std::size_t len) override;
  void recv_frame(int src, WireChunkHeader* header,
                  std::vector<double>* payload) override;

 private:
  int fd(int peer) const;
  /// One wait of the progress rule: poll every live peer for input (and
  /// `dst`, if >= 0, for room to write) until something is ready, then pull
  /// what arrived into the peers' readers. Returns false once `deadline`
  /// has passed with nothing ready.
  bool await_progress(int dst,
                      std::chrono::steady_clock::time_point deadline);

  std::vector<int> fds_;  ///< fds_[peer]; -1 at our own rank
  std::vector<std::unique_ptr<serve::FrameReader>> readers_;
  std::size_t max_frame_bytes_;
  double timeout_s_;
  std::string frame_out_;  ///< framed-send scratch, reused
};

}  // namespace alge::transport
