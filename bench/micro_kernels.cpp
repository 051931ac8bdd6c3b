// Wall-clock micro-benchmarks (google-benchmark) for the hot local kernels
// and the simulator substrate itself: these bound how large a simulated
// experiment the repo can run, and catch performance regressions in the
// fiber/message machinery.
#include <benchmark/benchmark.h>

#include <vector>

#include "algs/fft/fft.hpp"
#include "algs/matmul/local.hpp"
#include "algs/strassen/local.hpp"
#include "fiber/fiber.hpp"
#include "sim/comm.hpp"
#include "sim/machine.hpp"
#include "support/rng.hpp"

namespace {

using namespace alge;

void BM_Matmul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  const auto a = algs::random_matrix(n, n, rng);
  const auto b = algs::random_matrix(n, n, rng);
  std::vector<double> c(a.size(), 0.0);
  for (auto _ : state) {
    algs::matmul_add(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * int64_t{n} * n * n);
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256);

void BM_StrassenLocal(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(2);
  const auto a = algs::random_matrix(n, n, rng);
  const auto b = algs::random_matrix(n, n, rng);
  std::vector<double> c(a.size(), 0.0);
  for (auto _ : state) {
    algs::strassen_multiply(a, b, c, n, 32);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<int64_t>(algs::strassen_flops(n, 32)));
}
BENCHMARK(BM_StrassenLocal)->Arg(128)->Arg(256);

void BM_FftLocal(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  std::vector<double> x(2 * static_cast<std::size_t>(n));
  rng.fill_uniform(x, -1.0, 1.0);
  for (auto _ : state) {
    algs::fft_inplace(std::span<double>(x), n);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FftLocal)->Arg(1 << 10)->Arg(1 << 14);

void BM_FiberSwitch(benchmark::State& state) {
  // Round-trip cost of suspending/resuming fibers: two fibers yielding to
  // each other through the scheduler.
  const int yields = 10000;
  for (auto _ : state) {
    fiber::Scheduler s;
    for (int f = 0; f < 2; ++f) {
      s.spawn([&] {
        for (int i = 0; i < yields; ++i) fiber::Scheduler::active()->yield();
      });
    }
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * 2 * yields);
}
BENCHMARK(BM_FiberSwitch);

void BM_SimMessageRoundtrip(benchmark::State& state) {
  // Ping-pong throughput of the simulated point-to-point layer.
  const int rounds = 1000;
  sim::MachineConfig cfg;
  cfg.p = 2;
  cfg.params = core::MachineParams::unit();
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
BENCHMARK(BM_SimMessageRoundtrip);

void BM_SimBroadcast64(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  sim::MachineConfig cfg;
  cfg.p = p;
  cfg.params = core::MachineParams::unit();
  for (auto _ : state) {
    sim::Machine m(cfg);
    m.run([&](sim::Comm& c) {
      std::vector<double> buf(64, 1.0);
      c.bcast(buf, 0, sim::Group::world(p));
    });
  }
  state.SetItemsProcessed(state.iterations() * p);
}
BENCHMARK(BM_SimBroadcast64)->Arg(16)->Arg(64)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
