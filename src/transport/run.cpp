#include "transport/run.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <thread>

#include "serve/protocol.hpp"
#include "sim/comm.hpp"
#include "support/common.hpp"
#include "transport/shm.hpp"
#include "transport/tcp.hpp"

namespace alge::transport {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

sim::MachineConfig machine_config(const RunOptions& opts) {
  sim::MachineConfig cfg;
  cfg.p = opts.p;
  cfg.params = opts.params;
  return cfg;
}

void validate(const RunOptions& opts) {
  ALGE_REQUIRE(opts.p >= 1, "transport run needs p >= 1, got %d", opts.p);
  ALGE_REQUIRE(opts.timeout_s > 0.0, "transport run needs timeout_s > 0");
}

void record_span(const RunOptions& opts, int rank, Clock::time_point start,
                 Clock::time_point end) {
  if (opts.spans == nullptr) return;
  opts.spans->record(strfmt("rank %d", rank), rank, start, end,
                     /*cached=*/false);
}

/// The shared per-rank tail of every backend: run the program, time it,
/// then capture the model counters and both transports' wire stats.
void run_rank_body(const RunOptions& opts, sim::Comm& comm,
                   const RankProgram& program, RankReport* out) {
  const Clock::time_point t0 = Clock::now();
  program(comm, out->output);
  const Clock::time_point t1 = Clock::now();
  out->wall_s = std::chrono::duration<double>(t1 - t0).count();
  record_span(opts, comm.rank(), t0, t1);
  out->model = comm.counters();
  if (const TransportStats* w = comm.transport().wire_stats()) {
    out->wire = *w;
  }
  if (const TransportStats* s = comm.self_transport().wire_stats()) {
    out->self = *s;
  }
}

}  // namespace

std::string_view to_string(Backend b) {
  switch (b) {
    case Backend::kSim: return "sim";
    case Backend::kShm: return "shm";
    case Backend::kTcp: return "tcp";
  }
  ALGE_CHECK(false, "unhandled Backend value %d", static_cast<int>(b));
  return "";
}

Backend backend_from_string(std::string_view name) {
  if (name == "sim") return Backend::kSim;
  if (name == "shm") return Backend::kShm;
  if (name == "tcp") return Backend::kTcp;
  ALGE_REQUIRE(false, "unknown transport backend '%.*s' (sim, shm, tcp)",
               static_cast<int>(name.size()), name.data());
  return Backend::kSim;
}

double RunReport::makespan() const {
  double t = 0.0;
  for (const RankReport& r : ranks) t = std::max(t, r.model.clock);
  return t;
}

sim::SimTotals RunReport::totals() const {
  sim::SimTotals t;
  for (const RankReport& r : ranks) sim::accumulate(t, r.model);
  return t;
}

sim::SimEnergy RunReport::energy(const core::MachineParams& mp) const {
  const sim::SimTotals t = totals();
  return sim::energy_of(mp, p, makespan(), t, t.mean_highwater(p));
}

RunReport run(Backend backend, const RunOptions& opts,
              const RankProgram& program) {
  switch (backend) {
    case Backend::kSim: return run_sim(opts, program);
    case Backend::kShm: return run_shm(opts, program);
    case Backend::kTcp: return run_tcp_threads(opts, program);
  }
  ALGE_CHECK(false, "unhandled Backend value %d", static_cast<int>(backend));
  return {};
}

RunReport run_sim(const RunOptions& opts, const RankProgram& program) {
  validate(opts);
  RunReport report;
  report.backend = Backend::kSim;
  report.p = opts.p;
  report.ranks.resize(static_cast<std::size_t>(opts.p));
  sim::Machine machine(machine_config(opts));
  const Clock::time_point t0 = Clock::now();
  machine.run([&](sim::Comm& comm) {
    run_rank_body(opts, comm, program,
                  &report.ranks[static_cast<std::size_t>(comm.rank())]);
  });
  report.wall_s = seconds_since(t0);
  return report;
}

// --- shm ---

namespace {

/// The forked child's whole life: run the rank, publish results into the
/// arena, flip the status word, _exit. Never returns; never unwinds into
/// the parent's stack/atexit state.
[[noreturn]] void shm_child(ShmArena& arena, int rank, const RunOptions& opts,
                            const RankProgram& program) {
  ShmRankSlot& slot = arena.slot(rank);
  try {
    sim::Machine machine(machine_config(opts));
    ShmTransport t(arena, rank, opts.timeout_s);
    sim::Comm comm(machine, rank, &t);
    std::vector<double> output;
    const Clock::time_point t0 = Clock::now();
    program(comm, output);
    slot.wall_s = seconds_since(t0);
    if (output.size() > arena.max_output_words()) {
      throw TransportError(strfmt(
          "rank %d output of %zu words exceeds the arena's "
          "max_output_words=%zu",
          rank, output.size(), arena.max_output_words()));
    }
    if (!output.empty()) {
      std::memcpy(arena.output(rank), output.data(),
                  output.size() * sizeof(double));
    }
    slot.output_words = output.size();
    slot.model = comm.counters();
    if (const TransportStats* w = t.wire_stats()) slot.wire = *w;
    if (const TransportStats* s = comm.self_transport().wire_stats()) {
      slot.self = *s;
    }
    slot.state.store(ShmRankSlot::kDone, std::memory_order_release);
    ::_exit(0);
  } catch (const std::exception& e) {
    std::strncpy(slot.error, e.what(), kShmErrorBytes - 1);
    slot.state.store(ShmRankSlot::kFailed, std::memory_order_release);
    ::_exit(1);
  } catch (...) {
    std::strncpy(slot.error, "unknown exception", kShmErrorBytes - 1);
    slot.state.store(ShmRankSlot::kFailed, std::memory_order_release);
    ::_exit(1);
  }
}

}  // namespace

RunReport run_shm(const RunOptions& opts, const RankProgram& program) {
  validate(opts);
  const int p = opts.p;
  ShmArena arena(p, opts.ring_bytes, opts.max_output_words);
  const Clock::time_point t0 = Clock::now();
  std::vector<pid_t> pids(static_cast<std::size_t>(p), -1);
  for (int r = 0; r < p; ++r) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      shm_child(arena, r, opts, program);  // never returns
    }
    if (pid < 0) {
      // Could not spawn the full world: mark the missing rank dead so
      // already-running children fail fast, then kill and reap them.
      arena.slot(r).dead.store(1, std::memory_order_release);
      for (int k = 0; k < r; ++k) {
        ::kill(pids[static_cast<std::size_t>(k)], SIGKILL);
        int status = 0;
        ::waitpid(pids[static_cast<std::size_t>(k)], &status, 0);
      }
      throw TransportError(
          strfmt("fork of shm rank %d failed: %s", r, std::strerror(errno)));
    }
    pids[static_cast<std::size_t>(r)] = pid;
  }

  // Supervise: reap as children finish, mark crashed ones dead (so blocked
  // siblings error out instead of timing out), and SIGKILL stragglers after
  // the children's own deadlines have had time to fire.
  const Clock::time_point hard_deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opts.timeout_s + 10.0));
  std::vector<bool> reaped(static_cast<std::size_t>(p), false);
  int live = p;
  bool killed = false;
  while (live > 0) {
    bool progress = false;
    for (int r = 0; r < p; ++r) {
      if (reaped[static_cast<std::size_t>(r)]) continue;
      int status = 0;
      const pid_t rv =
          ::waitpid(pids[static_cast<std::size_t>(r)], &status, WNOHANG);
      if (rv != pids[static_cast<std::size_t>(r)]) continue;
      reaped[static_cast<std::size_t>(r)] = true;
      --live;
      progress = true;
      ShmRankSlot& slot = arena.slot(r);
      if (slot.state.load(std::memory_order_acquire) ==
          ShmRankSlot::kRunning) {
        // Exited without reporting: crash or kill. Record what the wait
        // status says and unblock its peers.
        if (WIFSIGNALED(status)) {
          std::snprintf(slot.error, kShmErrorBytes,
                        "rank %d process killed by signal %d", r,
                        WTERMSIG(status));
        } else {
          std::snprintf(slot.error, kShmErrorBytes,
                        "rank %d process exited with status %d without "
                        "reporting",
                        r, WIFEXITED(status) ? WEXITSTATUS(status) : -1);
        }
        slot.dead.store(1, std::memory_order_release);
      }
    }
    if (live == 0) break;
    if (Clock::now() >= hard_deadline && !killed) {
      killed = true;
      for (int r = 0; r < p; ++r) {
        if (!reaped[static_cast<std::size_t>(r)]) {
          ::kill(pids[static_cast<std::size_t>(r)], SIGKILL);
        }
      }
    }
    if (!progress) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  std::string failures;
  for (int r = 0; r < p; ++r) {
    const ShmRankSlot& slot = arena.slot(r);
    if (slot.state.load(std::memory_order_acquire) == ShmRankSlot::kDone) {
      continue;
    }
    if (!failures.empty()) failures += "; ";
    failures += slot.error[0] != '\0'
                    ? slot.error
                    : strfmt("rank %d did not finish", r).c_str();
  }
  if (!failures.empty()) {
    throw TransportError(strfmt("shm run failed: %s%s", failures.c_str(),
                                killed ? " (stragglers killed)" : ""));
  }

  RunReport report;
  report.backend = Backend::kShm;
  report.p = p;
  report.wall_s = seconds_since(t0);
  report.ranks.resize(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    const ShmRankSlot& slot = arena.slot(r);
    RankReport& rr = report.ranks[static_cast<std::size_t>(r)];
    rr.output.assign(arena.output(r),
                     arena.output(r) + slot.output_words);
    rr.model = slot.model;
    rr.wire = slot.wire;
    rr.self = slot.self;
    rr.wall_s = slot.wall_s;
    if (opts.spans != nullptr) {
      opts.spans->record(
          strfmt("rank %d", r), r, t0,
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(slot.wall_s)),
          /*cached=*/false);
    }
  }
  return report;
}

// --- tcp ---

namespace {

RankReport tcp_rank_body(int rank, const RunOptions& opts, int rendezvous_fd,
                         const std::string& host, int port,
                         const RankProgram& program) {
  std::vector<int> fds = tcp_mesh(rank, opts.p, rendezvous_fd, host, port,
                                  opts.timeout_s, opts.socket_buffer_bytes);
  TcpTransport t(rank, opts.p, std::move(fds), opts.max_frame_bytes,
                 opts.timeout_s);
  sim::Machine machine(machine_config(opts));
  sim::Comm comm(machine, rank, &t);
  RankReport report;
  run_rank_body(opts, comm, program, &report);
  return report;
}

}  // namespace

RunReport run_tcp_threads(const RunOptions& opts, const RankProgram& program) {
  validate(opts);
  const int p = opts.p;
  int bound_port = 0;
  const int listen_fd =
      serve::listen_tcp(0, p, &bound_port, opts.socket_buffer_bytes);
  RunReport report;
  report.backend = Backend::kTcp;
  report.p = p;
  report.ranks.resize(static_cast<std::size_t>(p));
  std::vector<std::string> errors(static_cast<std::size_t>(p));
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    threads.emplace_back([&, r]() {
      try {
        report.ranks[static_cast<std::size_t>(r)] =
            tcp_rank_body(r, opts, r == 0 ? listen_fd : -1, "127.0.0.1",
                          bound_port, program);
      } catch (const std::exception& e) {
        errors[static_cast<std::size_t>(r)] = e.what();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  ::close(listen_fd);
  report.wall_s = seconds_since(t0);
  std::string failures;
  for (int r = 0; r < p; ++r) {
    if (errors[static_cast<std::size_t>(r)].empty()) continue;
    if (!failures.empty()) failures += "; ";
    failures += errors[static_cast<std::size_t>(r)];
  }
  if (!failures.empty()) {
    throw TransportError(strfmt("tcp run failed: %s", failures.c_str()));
  }
  return report;
}

RankReport run_tcp_rank(int rank, const RunOptions& opts,
                        const std::string& host, int port,
                        const RankProgram& program) {
  validate(opts);
  ALGE_REQUIRE(rank >= 0 && rank < opts.p, "rank %d out of p=%d", rank,
               opts.p);
  ALGE_REQUIRE(port > 0, "multi-process tcp needs an explicit port");
  int listen_fd = -1;
  if (rank == 0) {
    int bound = 0;
    listen_fd = serve::listen_tcp(port, opts.p, &bound,
                                  opts.socket_buffer_bytes);
  }
  try {
    RankReport report =
        tcp_rank_body(rank, opts, listen_fd, host, port, program);
    if (listen_fd >= 0) ::close(listen_fd);
    return report;
  } catch (...) {
    if (listen_fd >= 0) ::close(listen_fd);
    throw;
  }
}

}  // namespace alge::transport
