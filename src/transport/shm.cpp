#include "transport/shm.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <new>
#include <thread>

#include "support/common.hpp"

namespace alge::transport {

namespace {

constexpr std::size_t kAlign = 64;

std::size_t round_up(std::size_t n) { return (n + kAlign - 1) & ~(kAlign - 1); }

/// Largest chunk payload recv_frame will believe from a header before the
/// wire-format validation even runs: a corrupted chunk_words must not turn
/// into a multi-gigabyte allocation.
constexpr std::uint64_t kMaxChunkWords = std::uint64_t{1} << 31;

using Clock = std::chrono::steady_clock;

Clock::time_point deadline_after(double timeout_s) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(timeout_s));
}

}  // namespace

// --- ShmArena ---

ShmArena::ShmArena(int p, std::size_t ring_bytes,
                   std::size_t max_output_words)
    : p_(p), ring_bytes_(ring_bytes), max_output_words_(max_output_words) {
  ALGE_REQUIRE(p >= 1, "shm arena needs p >= 1, got %d", p);
  ALGE_REQUIRE(ring_bytes >= kAlign, "ring_bytes %zu too small", ring_bytes);
  slot_stride_ =
      round_up(sizeof(ShmRankSlot) + max_output_words * sizeof(double));
  ring_stride_ = round_up(sizeof(ShmRing) + ring_bytes);
  const std::size_t np = static_cast<std::size_t>(p);
  total_bytes_ = np * slot_stride_ + np * np * ring_stride_;
  void* mem = ::mmap(nullptr, total_bytes_, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  ALGE_CHECK(mem != MAP_FAILED, "mmap of %zu-byte shm arena failed (p=%d)",
             total_bytes_, p);
  base_ = static_cast<char*>(mem);
  for (int r = 0; r < p; ++r) {
    new (base_ + static_cast<std::size_t>(r) * slot_stride_) ShmRankSlot();
  }
  for (int s = 0; s < p; ++s) {
    for (int d = 0; d < p; ++d) {
      new (&ring(s, d)) ShmRing();
    }
  }
}

ShmArena::~ShmArena() {
  if (base_ != nullptr) ::munmap(base_, total_bytes_);
}

ShmRankSlot& ShmArena::slot(int rank) {
  ALGE_CHECK(rank >= 0 && rank < p_, "shm slot rank %d out of %d", rank, p_);
  return *reinterpret_cast<ShmRankSlot*>(
      base_ + static_cast<std::size_t>(rank) * slot_stride_);
}

double* ShmArena::output(int rank) {
  return reinterpret_cast<double*>(reinterpret_cast<char*>(&slot(rank)) +
                                   sizeof(ShmRankSlot));
}

ShmRing& ShmArena::ring(int src, int dst) {
  ALGE_CHECK(src >= 0 && src < p_ && dst >= 0 && dst < p_,
             "shm ring (%d, %d) out of %d", src, dst, p_);
  const std::size_t idx = static_cast<std::size_t>(src) *
                              static_cast<std::size_t>(p_) +
                          static_cast<std::size_t>(dst);
  return *reinterpret_cast<ShmRing*>(
      base_ + static_cast<std::size_t>(p_) * slot_stride_ +
      idx * ring_stride_);
}

char* ShmArena::ring_data(int src, int dst) {
  return reinterpret_cast<char*>(&ring(src, dst)) + sizeof(ShmRing);
}

// --- ShmTransport ---

ShmTransport::ShmTransport(ShmArena& arena, int rank, double timeout_s)
    : ChunkedTransport(rank, arena.p()), arena_(arena),
      timeout_s_(timeout_s), spill_(static_cast<std::size_t>(arena.p())) {}

std::size_t ShmTransport::ring_take(int src, char* out, std::size_t max) {
  ShmRing& r = arena_.ring(src, rank_);
  const std::uint64_t tail = r.tail.load(std::memory_order_relaxed);
  const std::uint64_t head = r.head.load(std::memory_order_acquire);
  const std::size_t n = std::min(static_cast<std::size_t>(head - tail), max);
  if (n == 0) return 0;
  const char* data = arena_.ring_data(src, rank_);
  const std::size_t cap = arena_.ring_bytes();
  const std::size_t pos = static_cast<std::size_t>(tail % cap);
  const std::size_t first = std::min(n, cap - pos);
  std::memcpy(out, data + pos, first);
  std::memcpy(out + first, data, n - first);
  r.tail.store(tail + n, std::memory_order_release);
  return n;
}

void ShmTransport::drain_inbound() {
  for (int s = 0; s < p_; ++s) {
    if (s == rank_) continue;
    ShmRing& r = arena_.ring(s, rank_);
    const auto avail = static_cast<std::size_t>(
        r.head.load(std::memory_order_acquire) -
        r.tail.load(std::memory_order_relaxed));
    if (avail == 0) continue;
    Spill& spill = spill_[static_cast<std::size_t>(s)];
    // Drop the read prefix once it is at least half the buffer, so copying
    // the unread rest costs no more than the bytes already consumed.
    if (spill.pos * 2 >= spill.bytes.size()) {
      spill.bytes.erase(spill.bytes.begin(),
                        spill.bytes.begin() +
                            static_cast<std::ptrdiff_t>(spill.pos));
      spill.pos = 0;
    }
    const std::size_t old = spill.bytes.size();
    spill.bytes.resize(old + avail);
    ring_take(s, spill.bytes.data() + old, avail);
  }
}

void ShmTransport::ring_write(int dst, const char* bytes, std::size_t len) {
  ShmRing& r = arena_.ring(rank_, dst);
  char* data = arena_.ring_data(rank_, dst);
  const std::size_t cap = arena_.ring_bytes();
  std::uint64_t head = r.head.load(std::memory_order_relaxed);
  std::size_t done = 0;
  const Clock::time_point deadline = deadline_after(timeout_s_);
  while (done < len) {
    const std::uint64_t tail = r.tail.load(std::memory_order_acquire);
    const std::size_t free_bytes = cap - static_cast<std::size_t>(head - tail);
    if (free_bytes == 0) {
      // The consumer may itself be blocked sending to us: keep our inbound
      // rings moving while we wait, so it gets to drain this one.
      drain_inbound();
      const ShmRankSlot& peer = arena_.slot(dst);
      // A full ring only drains if the consumer is still alive to drain it.
      if (peer.dead.load(std::memory_order_acquire) != 0) {
        throw TransportError(strfmt(
            "rank %d send to rank %d: peer process died with the ring full",
            rank_, dst));
      }
      if (peer.state.load(std::memory_order_acquire) !=
          ShmRankSlot::kRunning) {
        throw TransportError(strfmt(
            "rank %d send to rank %d: peer finished without draining the "
            "ring (%zu of %zu bytes unsent)",
            rank_, dst, len - done, len));
      }
      if (Clock::now() >= deadline) {
        throw TransportError(strfmt(
            "rank %d send to rank %d timed out after %.1fs with the ring "
            "full (%zu of %zu bytes unsent)",
            rank_, dst, timeout_s_, len - done, len));
      }
      std::this_thread::yield();
      continue;
    }
    const std::size_t n = std::min(free_bytes, len - done);
    const std::size_t pos = static_cast<std::size_t>(head % cap);
    const std::size_t first = std::min(n, cap - pos);
    std::memcpy(data + pos, bytes + done, first);
    std::memcpy(data, bytes + done + first, n - first);
    head += n;
    r.head.store(head, std::memory_order_release);
    done += n;
  }
}

void ShmTransport::ring_read(int src, char* out, std::size_t len) {
  Spill& spill = spill_[static_cast<std::size_t>(src)];
  std::size_t done = 0;
  const Clock::time_point deadline = deadline_after(timeout_s_);
  while (done < len) {
    if (spill.pos < spill.bytes.size()) {
      const std::size_t n =
          std::min(spill.bytes.size() - spill.pos, len - done);
      std::memcpy(out + done, spill.bytes.data() + spill.pos, n);
      spill.pos += n;
      done += n;
      continue;
    }
    const std::size_t n = ring_take(src, out + done, len - done);
    if (n > 0) {
      done += n;
      continue;
    }
    // Read the peer's status before draining: it publishes its last bytes
    // before it stops, so bytes written just before a stop are already in
    // the drain below and are read, not reported missing.
    const ShmRankSlot& peer = arena_.slot(src);
    const bool dead = peer.dead.load(std::memory_order_acquire) != 0;
    const std::uint32_t st = peer.state.load(std::memory_order_acquire);
    drain_inbound();
    if (spill.pos < spill.bytes.size()) continue;
    if (dead) {
      throw TransportError(strfmt(
          "rank %d recv from rank %d: peer process died mid-stream (%zu "
          "of %zu frame bytes arrived)",
          rank_, src, done, len));
    }
    if (st == ShmRankSlot::kFailed) {
      throw TransportError(strfmt(
          "rank %d recv from rank %d: peer failed before sending", rank_,
          src));
    }
    if (st == ShmRankSlot::kDone) {
      throw TransportError(strfmt(
          "rank %d recv from rank %d: peer finished without sending the "
          "expected message",
          rank_, src));
    }
    if (Clock::now() >= deadline) {
      throw TransportError(strfmt(
          "rank %d recv from rank %d timed out after %.1fs (%zu of %zu "
          "frame bytes arrived)",
          rank_, src, timeout_s_, done, len));
    }
    std::this_thread::yield();
  }
}

void ShmTransport::send_frame(int dst, const void* bytes, std::size_t len) {
  ring_write(dst, static_cast<const char*>(bytes), len);
}

void ShmTransport::recv_frame(int src, WireChunkHeader* header,
                              std::vector<double>* payload) {
  ring_read(src, reinterpret_cast<char*>(header), sizeof(*header));
  if (header->magic != kWireMagic || header->chunk_words > kMaxChunkWords) {
    throw TransportError(strfmt(
        "rank %d: ring from rank %d desynchronized (magic %08x, %llu chunk "
        "words)",
        rank_, src, header->magic,
        static_cast<unsigned long long>(header->chunk_words)));
  }
  payload->resize(static_cast<std::size_t>(header->chunk_words));
  ring_read(src, reinterpret_cast<char*>(payload->data()),
            payload->size() * sizeof(double));
}

}  // namespace alge::transport
