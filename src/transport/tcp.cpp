#include "transport/tcp.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "support/common.hpp"

namespace alge::transport {

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point deadline_after(double timeout_s) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(timeout_s));
}

/// Fixed-size rendezvous hello, sent as one serve frame. Host byte order:
/// the mesh is loopback-only, both ends are the same build on the same
/// machine.
struct HelloPayload {
  std::uint32_t magic = kHelloMagic;
  std::int32_t rank = 0;
  std::int32_t mesh_port = 0;
  std::int32_t p = 0;
};
static_assert(sizeof(HelloPayload) == 16, "hello layout drifted");

/// Every mesh socket: the control phase's blocking reads and writes get
/// `timeout_s` deadlines (TcpTransport never blocks on a socket: it polls
/// under its own deadline), and TCP_NODELAY sends each frame at once.
void configure_socket(int fd, double timeout_s) {
  timeval tv;
  tv.tv_sec = static_cast<time_t>(timeout_s);
  tv.tv_usec = static_cast<suseconds_t>(
      (timeout_s - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Exact-count read for the control phase: never buffers past `len`, so
/// the socket hands over to the transport's FrameReader with nothing lost.
void read_exact(int fd, void* out, std::size_t len, const char* what) {
  char* p = static_cast<char*>(out);
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::recv(fd, p + done, len - done, 0);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    throw TransportError(strfmt(
        "tcp mesh: reading %s: %s after %zu of %zu bytes", what,
        n == 0 ? "peer closed" : std::strerror(errno), done, len));
  }
}

/// Read a control frame's 4-byte big-endian length and require it to be
/// exactly `expected` (the control phase only carries fixed-size frames).
void read_control_len(int fd, std::size_t expected, const char* what) {
  unsigned char b[4];
  read_exact(fd, b, sizeof(b), what);
  const std::size_t len = (static_cast<std::size_t>(b[0]) << 24) |
                          (static_cast<std::size_t>(b[1]) << 16) |
                          (static_cast<std::size_t>(b[2]) << 8) |
                          static_cast<std::size_t>(b[3]);
  if (len != expected) {
    throw TransportError(strfmt(
        "tcp mesh: %s frame is %zu bytes, expected %zu", what, len,
        expected));
  }
}

void write_control(int fd, const void* payload, std::size_t len,
                   const char* what) {
  std::string out;
  serve::append_frame(
      out, std::string_view(static_cast<const char*>(payload), len));
  if (!serve::write_all(fd, out)) {
    throw TransportError(
        strfmt("tcp mesh: writing %s: peer gone (%s)", what,
               std::strerror(errno)));
  }
}

int accept_with_deadline(int listen_fd, Clock::time_point deadline) {
  for (;;) {
    pollfd pfd{};
    pfd.fd = listen_fd;
    pfd.events = POLLIN;
    const auto left = deadline - Clock::now();
    const int left_ms = std::max(
        0, static_cast<int>(
               std::chrono::duration_cast<std::chrono::milliseconds>(left)
                   .count()));
    const int rv = ::poll(&pfd, 1, left_ms);
    if (rv > 0) {
      const int c = ::accept(listen_fd, nullptr, nullptr);
      if (c >= 0) return c;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      throw TransportError(
          strfmt("tcp mesh: accept failed: %s", std::strerror(errno)));
    }
    if (rv < 0 && errno == EINTR) continue;
    if (Clock::now() >= deadline) {
      throw TransportError(
          "tcp mesh: timed out waiting for a peer to connect");
    }
  }
}

int connect_with_deadline(const std::string& host, int port,
                          std::size_t buffer_bytes,
                          Clock::time_point deadline, int rank, int peer) {
  for (;;) {
    try {
      return serve::connect_tcp(host, port, buffer_bytes);
    } catch (const std::exception& e) {
      if (Clock::now() >= deadline) {
        throw TransportError(strfmt(
            "rank %d: cannot reach rank %d at %s:%d before the deadline: "
            "%s",
            rank, peer, host.c_str(), port, e.what()));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
}

HelloPayload read_hello(int fd, int p, const char* what) {
  read_control_len(fd, sizeof(HelloPayload), what);
  HelloPayload h;
  read_exact(fd, &h, sizeof(h), what);
  if (h.magic != kHelloMagic || h.p != p || h.rank < 0 || h.rank >= p) {
    throw TransportError(strfmt(
        "tcp mesh: malformed %s (magic %08x rank %d p %d, expected p %d)",
        what, h.magic, h.rank, h.p, p));
  }
  return h;
}

}  // namespace

std::vector<int> tcp_mesh(int rank, int p, int rendezvous_fd,
                          const std::string& host, int port,
                          double timeout_s,
                          std::size_t socket_buffer_bytes) {
  ALGE_REQUIRE(p >= 1 && rank >= 0 && rank < p,
               "tcp mesh rank %d out of p=%d", rank, p);
  std::vector<int> fds(static_cast<std::size_t>(p), -1);
  if (p == 1) return fds;
  const Clock::time_point deadline = deadline_after(timeout_s);
  int mesh_listen = -1;
  auto close_all = [&]() {
    for (int& fd : fds) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
    if (mesh_listen >= 0) ::close(mesh_listen);
  };
  try {
    if (rank == 0) {
      ALGE_REQUIRE(rendezvous_fd >= 0,
                   "rank 0 must pass its rendezvous listener");
      std::vector<std::int32_t> ports(static_cast<std::size_t>(p), 0);
      for (int i = 0; i < p - 1; ++i) {
        const int c = accept_with_deadline(rendezvous_fd, deadline);
        configure_socket(c, timeout_s);
        HelloPayload h;
        try {
          h = read_hello(c, p, "rendezvous hello");
        } catch (...) {
          ::close(c);
          throw;
        }
        if (h.rank == 0 || fds[static_cast<std::size_t>(h.rank)] != -1) {
          ::close(c);
          throw TransportError(strfmt(
              "tcp mesh: duplicate or invalid rendezvous rank %d", h.rank));
        }
        fds[static_cast<std::size_t>(h.rank)] = c;
        ports[static_cast<std::size_t>(h.rank)] = h.mesh_port;
      }
      std::vector<std::int32_t> table(static_cast<std::size_t>(p) + 2);
      table[0] = static_cast<std::int32_t>(kHelloMagic);
      table[1] = p;
      for (int r = 1; r < p; ++r) {
        table[static_cast<std::size_t>(r) + 2] =
            ports[static_cast<std::size_t>(r)];
      }
      for (int r = 1; r < p; ++r) {
        write_control(fds[static_cast<std::size_t>(r)], table.data(),
                      table.size() * sizeof(std::int32_t), "port table");
      }
    } else {
      // The listener must exist before the hello advertises its port.
      int mesh_port = 0;
      mesh_listen =
          serve::listen_tcp(0, p, &mesh_port, socket_buffer_bytes);
      const int c = connect_with_deadline(host, port, socket_buffer_bytes,
                                          deadline, rank, 0);
      configure_socket(c, timeout_s);
      fds[0] = c;
      HelloPayload hello;
      hello.rank = rank;
      hello.mesh_port = mesh_port;
      hello.p = p;
      write_control(c, &hello, sizeof(hello), "rendezvous hello");
      const std::size_t table_words = static_cast<std::size_t>(p) + 2;
      read_control_len(c, table_words * sizeof(std::int32_t), "port table");
      std::vector<std::int32_t> table(table_words);
      read_exact(c, table.data(), table_words * sizeof(std::int32_t),
                 "port table");
      if (table[0] != static_cast<std::int32_t>(kHelloMagic) ||
          table[1] != p) {
        throw TransportError(strfmt(
            "tcp mesh: malformed port table (magic %08x p %d, expected %d)",
            static_cast<std::uint32_t>(table[0]), table[1], p));
      }
      for (int j = 1; j < rank; ++j) {
        const int cj = connect_with_deadline(
            host, table[static_cast<std::size_t>(j) + 2],
            socket_buffer_bytes, deadline, rank, j);
        configure_socket(cj, timeout_s);
        fds[static_cast<std::size_t>(j)] = cj;
        HelloPayload hj;
        hj.rank = rank;
        hj.p = p;
        write_control(cj, &hj, sizeof(hj), "mesh hello");
      }
      for (int i = 0; i < p - 1 - rank; ++i) {
        const int c2 = accept_with_deadline(mesh_listen, deadline);
        configure_socket(c2, timeout_s);
        HelloPayload h;
        try {
          h = read_hello(c2, p, "mesh hello");
        } catch (...) {
          ::close(c2);
          throw;
        }
        if (h.rank <= rank || fds[static_cast<std::size_t>(h.rank)] != -1) {
          ::close(c2);
          throw TransportError(strfmt(
              "tcp mesh: duplicate or out-of-order mesh rank %d at rank %d",
              h.rank, rank));
        }
        fds[static_cast<std::size_t>(h.rank)] = c2;
      }
      ::close(mesh_listen);
      mesh_listen = -1;
    }
  } catch (...) {
    close_all();
    throw;
  }
  return fds;
}

// --- TcpTransport ---

TcpTransport::TcpTransport(int rank, int p, std::vector<int> fds,
                           std::size_t max_frame_bytes, double timeout_s)
    : ChunkedTransport(rank, p), fds_(std::move(fds)),
      readers_(static_cast<std::size_t>(p)),
      max_frame_bytes_(max_frame_bytes), timeout_s_(timeout_s) {
  ALGE_REQUIRE(static_cast<int>(fds_.size()) == p,
               "tcp transport needs %d fds, got %zu", p, fds_.size());
  ALGE_REQUIRE(fds_[static_cast<std::size_t>(rank)] == -1,
               "tcp transport rank %d must not have a socket to itself",
               rank);
  for (int peer = 0; peer < p; ++peer) {
    const int fd = fds_[static_cast<std::size_t>(peer)];
    if (fd < 0) continue;
    readers_[static_cast<std::size_t>(peer)] =
        std::make_unique<serve::FrameReader>(fd, max_frame_bytes_);
  }
}

TcpTransport::~TcpTransport() {
  for (const int fd : fds_) {
    if (fd >= 0) ::close(fd);
  }
}

int TcpTransport::fd(int peer) const {
  ALGE_CHECK(peer >= 0 && peer < p_, "tcp peer %d out of %d", peer, p_);
  const int f = fds_[static_cast<std::size_t>(peer)];
  if (f < 0) {
    throw TransportError(
        strfmt("rank %d has no connection to rank %d", rank_, peer));
  }
  return f;
}

bool TcpTransport::await_progress(int dst, Clock::time_point deadline) {
  // Indexed by peer; poll() skips the negative fds (self, missing links,
  // streams that already ended and would otherwise read as ready forever).
  std::vector<pollfd> pfds(static_cast<std::size_t>(p_));
  for (int peer = 0; peer < p_; ++peer) {
    pollfd& pfd = pfds[static_cast<std::size_t>(peer)];
    const serve::FrameReader* reader =
        readers_[static_cast<std::size_t>(peer)].get();
    if (reader != nullptr && !reader->ended()) pfd.events |= POLLIN;
    if (peer == dst) pfd.events |= POLLOUT;
    pfd.fd = pfd.events != 0 ? fds_[static_cast<std::size_t>(peer)] : -1;
  }
  const auto left = std::chrono::ceil<std::chrono::milliseconds>(
      deadline - Clock::now());
  const int rv = ::poll(pfds.data(), pfds.size(),
                        static_cast<int>(std::max<std::int64_t>(
                            0, static_cast<std::int64_t>(left.count()))));
  if (rv <= 0) return Clock::now() < deadline;  // timeout or EINTR
  for (int peer = 0; peer < p_; ++peer) {
    const pollfd& pfd = pfds[static_cast<std::size_t>(peer)];
    if ((pfd.events & POLLIN) != 0 &&
        (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      readers_[static_cast<std::size_t>(peer)]->pull();
    }
  }
  return true;
}

void TcpTransport::send_frame(int dst, const void* bytes, std::size_t len) {
  const int f = fd(dst);
  frame_out_.clear();
  serve::append_frame(
      frame_out_, std::string_view(static_cast<const char*>(bytes), len));
  const Clock::time_point deadline = deadline_after(timeout_s_);
  std::size_t off = 0;
  while (off < frame_out_.size()) {
    const ssize_t n = ::send(f, frame_out_.data() + off,
                             frame_out_.size() - off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // The socket is full: drain every peer while waiting for room, so a
      // peer blocked sending to us gets on to reading.
      if (await_progress(dst, deadline)) continue;
      throw TransportError(strfmt(
          "rank %d send to rank %d timed out after %.1fs with the socket "
          "full (%zu of %zu bytes unsent)",
          rank_, dst, timeout_s_, frame_out_.size() - off,
          frame_out_.size()));
    }
    throw TransportError(strfmt(
        "rank %d send to rank %d: connection lost mid-write (%s)", rank_,
        dst, std::strerror(errno)));
  }
}

void TcpTransport::recv_frame(int src, WireChunkHeader* header,
                              std::vector<double>* payload) {
  (void)fd(src);  // rejects a missing connection before touching readers_
  serve::FrameReader& reader = *readers_[static_cast<std::size_t>(src)];
  const Clock::time_point deadline = deadline_after(timeout_s_);
  // Wait until a whole frame is buffered or the stream has ended; next()
  // then returns without touching the socket.
  while (!reader.frame_buffered() && reader.pull() &&
         !reader.frame_buffered()) {
    if (!await_progress(-1, deadline)) {
      throw TransportError(strfmt(
          "rank %d recv from rank %d: socket read failed or timed out (no "
          "frame within %.1fs)",
          rank_, src, timeout_s_));
    }
  }
  std::string_view frame;
  switch (reader.next(&frame)) {
    case serve::FrameReader::Status::kFrame:
      break;
    case serve::FrameReader::Status::kEmpty:
      throw TransportError(strfmt(
          "rank %d recv from rank %d: empty frame (protocol violation)",
          rank_, src));
    case serve::FrameReader::Status::kTooLarge:
      throw TransportError(strfmt(
          "rank %d recv from rank %d: frame exceeds the %zu-byte cap",
          rank_, src, max_frame_bytes_));
    case serve::FrameReader::Status::kClosed:
      throw TransportError(strfmt(
          "rank %d recv from rank %d: peer closed the connection", rank_,
          src));
    case serve::FrameReader::Status::kTruncated:
      throw TransportError(strfmt(
          "rank %d recv from rank %d: connection dropped mid-frame "
          "(truncated frame)",
          rank_, src));
    case serve::FrameReader::Status::kError:
      throw TransportError(strfmt(
          "rank %d recv from rank %d: socket read failed or timed out (%s)",
          rank_, src, std::strerror(errno)));
  }
  if (frame.size() < sizeof(WireChunkHeader)) {
    throw TransportError(strfmt(
        "rank %d recv from rank %d: %zu-byte frame is smaller than a chunk "
        "header",
        rank_, src, frame.size()));
  }
  std::memcpy(header, frame.data(), sizeof(WireChunkHeader));
  const std::size_t body = frame.size() - sizeof(WireChunkHeader);
  if (body % sizeof(double) != 0 ||
      body / sizeof(double) != header->chunk_words) {
    throw TransportError(strfmt(
        "rank %d recv from rank %d: frame body is %zu bytes but the header "
        "declares %llu words",
        rank_, src, body,
        static_cast<unsigned long long>(header->chunk_words)));
  }
  payload->resize(static_cast<std::size_t>(header->chunk_words));
  std::memcpy(payload->data(), frame.data() + sizeof(WireChunkHeader), body);
}

}  // namespace alge::transport
