// Wire protocol of the optimizer query service: length-prefixed JSON over
// TCP. Every frame is a 4-byte big-endian payload length followed by that
// many bytes of UTF-8 JSON; requests and responses use the same framing, and
// responses on one connection come back in request order (so clients may
// pipeline arbitrarily many requests before reading).
//
// FrameReader is the server's (and load-test client's) buffered demuxer: it
// owns a read buffer on top of a socket fd, hands out zero-copy views of
// complete frames, and classifies the malformed cases (zero-length frame,
// oversized frame, mid-frame disconnect) so the connection handler can
// answer each with a structured error instead of dying. frame_buffered()
// lets the handler batch responses: it keeps serving frames that already
// arrived and flushes one coalesced write() per burst, which is what makes
// 100k+ pipelined queries/s affordable in syscalls.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace alge::serve {

/// Default upper bound on a frame payload. Requests are ~100 bytes and the
/// largest responses (stats dumps) a few KB; anything near the cap is a
/// protocol violation, not a big query.
constexpr std::size_t kDefaultMaxFrameBytes = 1 << 20;

/// Append one frame (header + payload) to `out`; the caller writes `out` in
/// a single send so pipelined responses coalesce.
void append_frame(std::string& out, std::string_view payload);

/// Write all of `data` to `fd` (retrying short writes, EINTR-safe, no
/// SIGPIPE). Returns false on a closed/failed peer.
bool write_all(int fd, std::string_view data);

/// Frame `payload` and write it; convenience for one-shot clients.
bool write_frame(int fd, std::string_view payload);

class FrameReader {
 public:
  enum class Status {
    kFrame,      ///< *payload points at a complete frame
    kEmpty,      ///< zero-length frame (protocol error, stream still framed)
    kTooLarge,   ///< declared length exceeds max (stream unrecoverable)
    kClosed,     ///< clean EOF at a frame boundary
    kTruncated,  ///< EOF mid-frame (client vanished)
    kError,      ///< read() failed
  };

  explicit FrameReader(int fd,
                       std::size_t max_frame_bytes = kDefaultMaxFrameBytes);

  /// Block until the next frame (or stream end). On kFrame, *payload views
  /// this reader's buffer and stays valid until the next call.
  Status next(std::string_view* payload);

  /// True when a complete frame is already buffered — next() would return
  /// without touching the socket. Used for response write-batching.
  bool frame_buffered() const;

  /// Buffer whatever the socket holds right now, without blocking (the
  /// transport drains every peer this way while it waits). Returns false
  /// once the stream has ended or failed; next() reports which after the
  /// frames still buffered.
  bool pull();

  /// True once EOF or a read error was seen; the socket is not read again.
  bool ended() const { return eof_ || error_; }

 private:
  /// One recv() with `flags`; true if it buffered bytes, false on EOF/error
  /// (sets eof_/error_) or, under MSG_DONTWAIT, when nothing is waiting.
  bool fill(int flags);

  int fd_;
  std::size_t max_frame_bytes_;
  std::string buf_;
  std::size_t pos_ = 0;  ///< consumed prefix of buf_
  bool eof_ = false;
  bool error_ = false;
};

/// Bind and listen on 127.0.0.1:`port` (0 = ephemeral). Returns the listen
/// fd and stores the actual port in *bound_port. Throws
/// invalid_argument_error on failure. The service is loopback-only by
/// design: it has no authentication. `buffer_bytes` > 0 sets SO_SNDBUF and
/// SO_RCVBUF before listening, so every accepted socket inherits them.
int listen_tcp(int port, int backlog, int* bound_port,
               std::size_t buffer_bytes = 0);

/// Connect to host:port; throws invalid_argument_error on failure. The
/// returned fd has TCP_NODELAY set (the protocol is small-frame RPC).
/// `buffer_bytes` > 0 sets SO_SNDBUF and SO_RCVBUF before connecting.
int connect_tcp(const std::string& host, int port,
                std::size_t buffer_bytes = 0);

}  // namespace alge::serve
