// Wall-clock micro-benchmarks (google-benchmark) for the simulator's three
// hot paths — message matching, payload transport, and fiber scheduling —
// tracked before/after optimization work in BENCH_sim.json.
//
// The first four benchmarks map onto the costs a simulated experiment pays:
//   BM_PingPong            per-message latency incl. the block/unblock path
//   BM_AllToAllMatch/p     recv-side matching with p-1 pending messages per
//                          rank (recvs issued in reverse arrival order: the
//                          worst case for a linear mailbox scan)
//   BM_ContextSwitch/n     switch rate with n-2 blocked bystander fibers (a
//                          scheduler that scans all fibers degrades with n)
//   BM_SendRecvThroughput  credit-window streaming (payload transport +
//                          the blocking exchange cycle, the shape of real
//                          collective traffic)
//
// BM_RotorSweep/<schedule>/threads times one sim::rotor_run of a folded
// SUMMA, LU or 2.5D (c = 4) schedule at q = 256, inline (threads = 1) and
// with the default team (threads = 0), and reports ns_per_rank_op: wall
// time per (rank, schedule op) pair, the unit of the array sweep's work.
// The summa_compute, summa_bcast_row and summa_bcast_col schedules keep
// only the SUMMA ops of one kind, so each op kind's cost and team scaling
// is measured on its own.
//
// BM_SectionV/<question> times one cold §V answer from core::Optimizer on
// the case-study machine: n-body V-A (the closed form), classical-mm V-B
// and LU's V-A time (the structured 1-D solve). The zoomed (p, M) grid they
// replaced cost ~100× more, which the committed baseline's 4× gate catches.
//
// BM_LocalKernels/<kernel> times one local kernel call at real_p4's sizes:
// the 512³ block product of Cannon and SUMMA at n = 1024, q = 2
// (items = flops), and one 4096-particle same-block force sweep (items =
// interactions). Each runs the widest kernel variant the CPU supports
// (algs/kernels.hpp).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "algs/foldmaps.hpp"
#include "algs/matmul/local.hpp"
#include "algs/nbody/nbody.hpp"
#include "core/opt.hpp"
#include "fiber/fiber.hpp"
#include "machines/db.hpp"
#include "obs/chrome_trace.hpp"
#include "sim/comm.hpp"
#include "sim/fold.hpp"
#include "sim/fold_rotor.hpp"
#include "sim/group.hpp"
#include "sim/machine.hpp"
#include "support/rng.hpp"

namespace {

using namespace alge;

sim::MachineConfig unit_config(int p) {
  sim::MachineConfig cfg;
  cfg.p = p;
  cfg.params = core::MachineParams::unit();
  return cfg;
}

void BM_PingPong(benchmark::State& state) {
  // Round-trip of an 8-word message between two ranks. Every recv blocks
  // (the partner has not sent yet), so this measures matching + the
  // block/unblock path + two payload transports per round.
  const int rounds = 2000;
  const sim::MachineConfig cfg = unit_config(2);
  for (auto _ : state) {
    sim::Machine m(cfg);
    m.run([&](sim::Comm& c) {
      std::vector<double> buf(8, 1.0);
      for (int i = 0; i < rounds; ++i) {
        if (c.rank() == 0) {
          c.send(1, buf);
          c.recv(1, buf);
        } else {
          c.recv(0, buf);
          c.send(0, buf);
        }
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * 2 * rounds);
}
BENCHMARK(BM_PingPong);

void BM_AllToAllMatch(benchmark::State& state) {
  // Each rank posts p-1 eager sends, then receives from every peer in
  // reverse order of arrival. A mailbox that scans linearly pays
  // O(pending) per recv — O(p^2) scans per rank and round; indexed
  // matching pays O(1).
  const int p = static_cast<int>(state.range(0));
  const int rounds = 4;
  const sim::MachineConfig cfg = unit_config(p);
  for (auto _ : state) {
    sim::Machine m(cfg);
    m.run([&](sim::Comm& c) {
      std::vector<double> out(4, 0.0);
      const std::vector<double> in(4, 1.0);
      for (int r = 0; r < rounds; ++r) {
        for (int d = 1; d < p; ++d) c.send((c.rank() + d) % p, in, r);
        for (int d = p - 1; d >= 1; --d) c.recv((c.rank() + d) % p, out, r);
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * rounds * p *
                          static_cast<int64_t>(p - 1));
}
BENCHMARK(BM_AllToAllMatch)->Arg(16)->Arg(64);

void BM_ContextSwitch(benchmark::State& state) {
  // Two fibers yield to each other while n-2 bystanders sit blocked, then
  // everything is released. A scheduler that scans the whole fiber table
  // per switch costs O(n); a ready queue costs O(1).
  const int n = static_cast<int>(state.range(0));
  const int yields = 4000;
  for (auto _ : state) {
    fiber::Scheduler s;
    std::vector<fiber::Scheduler::FiberId> blocked;
    for (int f = 0; f < 2; ++f) {
      s.spawn([&, f] {
        for (int i = 0; i < yields; ++i) fiber::Scheduler::active()->yield();
        if (f == 0) {
          for (auto id : blocked) fiber::Scheduler::active()->unblock(id);
        }
      });
    }
    for (int f = 2; f < n; ++f) {
      blocked.push_back(s.spawn(
          [] { fiber::Scheduler::active()->block("bystander"); }));
    }
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * 2 * yields);
}
BENCHMARK(BM_ContextSwitch)->Arg(2)->Arg(64)->Arg(256);

void BM_SendRecvThroughput(benchmark::State& state) {
  // Rank 0 streams `words`-word messages to rank 1 under a two-message
  // credit window (rank 1 acks each window with an empty message) — the
  // shape of the simulator's real traffic: collective steps are blocking
  // neighbor exchanges, never unbounded eager bursts. Measures payload
  // transport end to end: rendezvous delivery into the blocked receiver,
  // pooled buffers for the queued half, and the block/unblock cycle.
  // Items are words moved.
  const int msgs = 2000;
  const int window = 2;
  const std::size_t words = static_cast<std::size_t>(state.range(0));
  const sim::MachineConfig cfg = unit_config(2);
  for (auto _ : state) {
    sim::Machine m(cfg);
    m.run([&](sim::Comm& c) {
      if (c.rank() == 0) {
        const std::vector<double> buf(words, 1.0);
        for (int i = 0; i < msgs; ++i) {
          c.send(1, buf, 0);
          if (i % window == window - 1) c.recv(1, std::span<double>(), 1);
        }
      } else {
        std::vector<double> buf(words, 0.0);
        for (int i = 0; i < msgs; ++i) {
          c.recv(0, buf, 0);
          if (i % window == window - 1) {
            c.send(0, std::span<const double>(), 1);
          }
        }
        benchmark::DoNotOptimize(buf.data());
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * msgs *
                          static_cast<int64_t>(words));
}
BENCHMARK(BM_SendRecvThroughput)->Arg(32)->Arg(256);

/// Times rotor_run of `rs` with state.range(0) threads (0 = the default
/// team) and reports ns_per_rank_op.
void time_rotor(benchmark::State& state, const sim::RotorSchedule& rs) {
  sim::MachineConfig cfg = unit_config(rs.p());
  cfg.data_mode = sim::DataMode::kGhost;
  std::vector<sim::RankCounters> out(static_cast<std::size_t>(rs.p()));
  const int threads = static_cast<int>(state.range(0));
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    sim::rotor_run(rs, cfg, out, threads);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  const double elapsed_ns = std::chrono::duration<double, std::nano>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
  const double rank_ops =
      static_cast<double>(rs.p()) * static_cast<double>(rs.ops.size());
  state.counters["ns_per_rank_op"] =
      elapsed_ns / (rank_ops * static_cast<double>(state.iterations()));
}

// Folded ghost schedules at q = 256 (n = 4096): SUMMA and LU at
// p = 65,536, 2.5D at c = 4, p = 262,144.
constexpr int kRotorQ = 256;
constexpr int kRotorN = 4096;

void BM_RotorSweep(benchmark::State& state, int alg) {
  std::shared_ptr<const sim::FoldMap> map;
  switch (alg) {
    case 0:
      map = algs::foldmap_summa(kRotorN, kRotorQ);
      break;
    case 1:
      map = algs::foldmap_lu(kRotorN, 8, kRotorQ, 1);
      break;
    default:
      map = algs::foldmap_mm25d(kRotorQ, 4, kRotorN / kRotorQ, false);
      break;
  }
  time_rotor(state, *map->rotor());
}

/// The SUMMA schedule of BM_RotorSweep cut down to its ops of one kind.
void BM_RotorSweepKind(benchmark::State& state, sim::RotorOp::Kind kind) {
  sim::RotorSchedule rs = *algs::foldmap_summa(kRotorN, kRotorQ)->rotor();
  std::erase_if(rs.ops,
                [kind](const sim::RotorOp& op) { return op.kind != kind; });
  time_rotor(state, rs);
}

#define ALGE_ROTOR_BENCH(fn, label, arg)   \
  BENCHMARK_CAPTURE(fn, label, arg)        \
      ->Name("BM_RotorSweep/" #label)      \
      ->ArgName("threads")                 \
      ->Arg(1)                             \
      ->Arg(0)                             \
      ->UseRealTime()                      \
      ->Unit(benchmark::kMillisecond)

ALGE_ROTOR_BENCH(BM_RotorSweep, summa, 0);
ALGE_ROTOR_BENCH(BM_RotorSweep, lu, 1);
ALGE_ROTOR_BENCH(BM_RotorSweep, mm25d_c4, 2);
ALGE_ROTOR_BENCH(BM_RotorSweepKind, summa_compute,
                 sim::RotorOp::Kind::kCompute);
ALGE_ROTOR_BENCH(BM_RotorSweepKind, summa_bcast_row,
                 sim::RotorOp::Kind::kBcastRow);
ALGE_ROTOR_BENCH(BM_RotorSweepKind, summa_bcast_col,
                 sim::RotorOp::Kind::kBcastCol);

using SectionV = core::RunPoint (*)(const core::Optimizer&);

void BM_SectionV(benchmark::State& state, const char* model_name, double n,
                 SectionV ask) {
  const auto model = core::make_model(model_name, 20.0);
  core::MachineParams mp = machines::CaseStudyMachine{}.params();
  mp.mem_words = 0.0;  // the optimizer chooses M, as the query service does
  benchmark::DoNotOptimize(n);
  const core::Optimizer solver(*model, n, mp);
  for (auto _ : state) {
    const core::RunPoint pt = ask(solver);
    benchmark::DoNotOptimize(pt);
  }
}
BENCHMARK_CAPTURE(BM_SectionV, nbody_min_energy, "nbody", 1e7,
                  [](const core::Optimizer& s) { return s.minimize_energy(); })
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_SectionV, mm_min_energy_given_time, "classical-mm", 5e4,
                  [](const core::Optimizer& s) {
                    return s.min_energy_given_time(75.0);
                  })
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_SectionV, lu_minimize_time, "lu-2.5d", 5e4,
                  [](const core::Optimizer& s) { return s.minimize_time(); })
    ->Unit(benchmark::kMicrosecond);

void BM_LocalKernels_matmul_512(benchmark::State& state) {
  const int n = 512;
  Rng rng(1);
  const std::vector<double> a = algs::random_matrix(n, n, rng);
  const std::vector<double> b = algs::random_matrix(n, n, rng);
  std::vector<double> c(a.size(), 0.0);
  for (auto _ : state) {
    algs::matmul_add(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * int64_t{n} * n * n);
}
BENCHMARK(BM_LocalKernels_matmul_512)
    ->Name("BM_LocalKernels/matmul_512")
    ->Unit(benchmark::kMillisecond);

void BM_LocalKernels_nbody_4096(benchmark::State& state) {
  const int n = 4096;
  Rng rng(2);
  const std::vector<double> x = algs::random_particles(n, rng);
  std::vector<double> f(static_cast<std::size_t>(n) * algs::kForceWords);
  double pairs = 0.0;
  for (auto _ : state) {
    pairs += algs::accumulate_forces(x, x, f, /*same_block=*/true);
    benchmark::DoNotOptimize(f.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(pairs));
}
BENCHMARK(BM_LocalKernels_nbody_4096)
    ->Name("BM_LocalKernels/nbody_4096")
    ->Unit(benchmark::kMillisecond);

// --trace-out=PATH: export a Chrome trace of a small representative run — a
// p=4 machine doing phased compute, a ring exchange, and an allreduce —
// exercising every exported track (spans, collectives, phases, F/W/S/M
// counters). micro_sim links only the sim layer, so the demo is built from
// raw collectives rather than an engine spec.
void write_demo_trace(const std::string& path) {
  sim::MachineConfig cfg = unit_config(4);
  cfg.enable_trace = true;
  sim::Machine m(cfg);
  m.run([](sim::Comm& c) {
    const sim::Group world = sim::Group::world(c.size());
    sim::Buffer buf = c.alloc(32);
    {
      auto ph = c.phase("local-work");
      c.compute(100.0 * (c.rank() + 1));
    }
    {
      auto ph = c.phase("ring-exchange");
      const int next = (c.rank() + 1) % c.size();
      const int prev = (c.rank() + c.size() - 1) % c.size();
      sim::Buffer in = c.alloc(32);
      c.sendrecv(next, buf.span(), prev, in.span());
    }
    {
      auto ph = c.phase("reduce");
      std::vector<double> v(16, 1.0);
      c.allreduce_sum(v, world);
    }
  });
  obs::write_chrome_trace_file(m.trace(), m.p(), path);
  std::fprintf(stderr,
               "[trace] wrote %s (p=%d) -- load in chrome://tracing or "
               "https://ui.perfetto.dev\n",
               path.c_str(), m.p());
}

}  // namespace

// BENCHMARK_MAIN, plus the --trace-out flag google-benchmark would reject:
// strip it from argv before Initialize, act on it after the benchmarks run.
int main(int argc, char** argv) {
  std::string trace_out;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(12);
      continue;
    }
    if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
      continue;
    }
    args.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!trace_out.empty()) write_demo_trace(trace_out);
  return 0;
}
