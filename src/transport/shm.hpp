// Shared-memory multi-process backend: p forked rank processes exchanging
// chunk frames over p×p single-producer/single-consumer byte rings in one
// anonymous MAP_SHARED arena mapped before fork.
//
// The arena is laid out by ShmArena: per-rank result slots first (status
// word, error text, wall time, the rank's model RankCounters and wire/self
// TransportStats, and a fixed-capacity output area the parent harvests),
// then one ring per ordered (src, dst) pair. Rings are byte streams, not
// frame buffers: a frame larger than the ring flows through in pieces while
// the consumer drains, so ring_bytes bounds memory, never message size.
//
// Progress rule (eager send): every blocking ring wait — a send facing a
// full ring, a receive facing an empty one — first drains all of the rank's
// inbound rings into per-source spill buffers, and a receive reads its
// source's spill before the live ring. So no rank waits on a consumer that
// is itself blocked: a sender waits only on a peer that is running (and
// drains as soon as it waits) or on one that has finished, which is a
// structured error. Two ranks that each send more than a ring holds before
// receiving both complete, as they do on the simulator.
//
// Liveness contract: every blocking ring wait polls the peer's status and
// the parent-maintained death flag under a deadline, so a peer that exits,
// crashes, or is killed turns into a TransportError at every rank still
// talking to it — never a hang. The parent (transport/run.cpp) reaps
// children, marks abnormal exits dead, and SIGKILLs the stragglers when the
// global timeout expires.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/counters.hpp"
#include "transport/wire.hpp"

namespace alge::transport {

inline constexpr std::size_t kShmErrorBytes = 512;

/// One rank's result slot in the arena, written by the child just before
/// _exit and read by the parent after reaping (plus the two flags siblings
/// poll while blocked). Trivially copyable throughout — it lives in raw
/// shared memory.
struct ShmRankSlot {
  static constexpr std::uint32_t kRunning = 0;
  static constexpr std::uint32_t kDone = 1;
  static constexpr std::uint32_t kFailed = 2;

  std::atomic<std::uint32_t> state{kRunning};
  /// Set by the parent when the child exited without reporting (crash,
  /// signal, kill): peers blocked on its rings fail fast instead of timing
  /// out.
  std::atomic<std::uint32_t> dead{0};
  double wall_s = 0.0;
  sim::RankCounters model;
  TransportStats wire;
  TransportStats self;
  std::uint64_t output_words = 0;
  char error[kShmErrorBytes] = {};
};
static_assert(std::atomic<std::uint32_t>::is_always_lock_free,
              "shm status flags must be address-free atomics");

/// SPSC byte-ring header; the data buffer follows it in the arena.
/// `head`/`tail` are monotone byte counts (never wrapped), so `head - tail`
/// is the buffered byte count and position = count % ring_bytes.
struct ShmRing {
  alignas(64) std::atomic<std::uint64_t> head{0};  ///< produced (src writes)
  alignas(64) std::atomic<std::uint64_t> tail{0};  ///< consumed (dst reads)
};

/// The mapped arena: owns one anonymous MAP_SHARED mapping sized for p rank
/// slots (each with `max_output_words` doubles of output space) and p·p
/// rings of `ring_bytes` each. Construct in the parent before fork; the
/// children inherit the same mapping at the same address.
class ShmArena {
 public:
  ShmArena(int p, std::size_t ring_bytes, std::size_t max_output_words);
  ~ShmArena();
  ShmArena(const ShmArena&) = delete;
  ShmArena& operator=(const ShmArena&) = delete;

  int p() const { return p_; }
  std::size_t ring_bytes() const { return ring_bytes_; }
  std::size_t max_output_words() const { return max_output_words_; }

  ShmRankSlot& slot(int rank);
  double* output(int rank);
  ShmRing& ring(int src, int dst);
  char* ring_data(int src, int dst);

 private:
  int p_;
  std::size_t ring_bytes_;
  std::size_t max_output_words_;
  std::size_t slot_stride_;
  std::size_t ring_stride_;
  std::size_t total_bytes_;
  char* base_ = nullptr;
};

/// One rank's shm endpoint. send_frame streams onto the (rank_, dst) ring;
/// recv_frame reads the src spill, then the (src, rank_) ring. Chunking,
/// reassembly and the wire stats live in ChunkedTransport.
class ShmTransport final : public ChunkedTransport {
 public:
  ShmTransport(ShmArena& arena, int rank, double timeout_s);

  const char* name() const override { return "shm"; }

 protected:
  void send_frame(int dst, const void* bytes, std::size_t len) override;
  void recv_frame(int src, WireChunkHeader* header,
                  std::vector<double>* payload) override;

 private:
  /// Bytes drained off a ring ahead of the receive that wants them;
  /// `bytes[pos..]` are still unread.
  struct Spill {
    std::vector<char> bytes;
    std::size_t pos = 0;
  };

  /// Stream `len` bytes onto the (rank_, dst) ring, draining the inbound
  /// rings while it is full; throws TransportError on peer death or
  /// timeout.
  void ring_write(int dst, const char* bytes, std::size_t len);
  /// Read exactly `len` bytes from src (spill first, then the ring),
  /// draining the inbound rings while both are empty; throws
  /// TransportError when the producer is gone or the deadline passes.
  void ring_read(int src, char* out, std::size_t len);
  /// Copy up to `max` bytes off the (src, rank_) ring and hand the space
  /// back to the producer; returns the count.
  std::size_t ring_take(int src, char* out, std::size_t max);
  /// Move every buffered byte of every (s, rank_) ring into spill_[s].
  void drain_inbound();

  ShmArena& arena_;
  double timeout_s_;
  std::vector<Spill> spill_;  ///< spill_[src]; never used at our own rank
};

}  // namespace alge::transport
