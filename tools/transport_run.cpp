// transport_run: one rank of a multi-process TCP run — one shell per rank.
//
//   # shell 1 (rank 0 listens on the port and rendezvouses the mesh)
//   transport_run --alg=summa --rank=0 --port=7777
//   # shell 2
//   transport_run --alg=summa --rank=1 --port=7777
//   ... one shell per rank, up to the world size the spec implies ...
//
// Every shell runs the same deterministic per-rank program (inputs are
// regenerated from --seed inside each rank, so no driver process exists),
// connects into the rank mesh via rank 0's rendezvous listener, executes
// the algorithm for real over TCP, and prints its own rank report: model
// clock, F/W/S ledger, wire traffic, wall seconds, and the
// ledger-vs-wire verdict. Exit 0 on a conformant run, 1 on divergence,
// and a nonzero TransportError exit if a peer disconnects or times out.
//
// The world size is the spec's: q²c for mm25d/summa/lu, 7^k for caps,
// --p for nbody/fft/tsqr. Run with --help for the spec flags.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "support/cli.hpp"
#include "support/common.hpp"
#include "transport/programs.hpp"
#include "transport/run.hpp"

int main(int argc, char** argv) {
  using namespace alge;
  CliArgs cli;
  cli.add_flag("alg", "summa", "algorithm: " + algs::names_list());
  cli.add_flag("rank", "0", "this shell's rank (0 hosts the rendezvous)");
  cli.add_flag("host", "127.0.0.1", "rank 0's host (loopback only)");
  cli.add_flag("port", "7777", "rank 0's rendezvous port");
  cli.add_flag("timeout", "60", "seconds before any blocked wait fails");
  cli.add_flag("n", "0", "problem size (0 = the conformance default)");
  cli.add_flag("q", "0", "grid edge (mm25d/summa/lu)");
  cli.add_flag("c", "0", "replication factor / team count");
  cli.add_flag("p", "0", "rank count (nbody/fft/tsqr)");
  cli.add_flag("k", "0", "CAPS levels (world size 7^k)");
  cli.add_flag("nb", "0", "LU block size / TSQR column count");
  cli.add_flag("r-dim", "0", "FFT row dimension");
  cli.add_flag("c-dim", "0", "FFT column dimension");
  cli.add_flag("seed", "1", "input-generation seed (same on every shell)");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.usage("transport_run");
    return 0;
  }

  transport::ProgramSpec spec =
      transport::conformance_spec(cli.get("alg"));
  auto override_int = [&](const char* flag, int* field) {
    const int v = static_cast<int>(cli.get_int(flag));
    if (v != 0) *field = v;
  };
  override_int("n", &spec.n);
  override_int("q", &spec.q);
  override_int("c", &spec.c);
  override_int("p", &spec.p);
  override_int("k", &spec.k);
  override_int("nb", &spec.nb);
  override_int("r-dim", &spec.r_dim);
  override_int("c-dim", &spec.c_dim);
  spec.seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  const transport::AlgProgram ap = transport::make_program(spec);
  const int rank = static_cast<int>(cli.get_int("rank"));
  ALGE_REQUIRE(rank >= 0 && rank < ap.p,
               "--rank=%d out of range: %s with these dimensions runs %d "
               "ranks",
               rank, spec.alg.c_str(), ap.p);

  transport::RunOptions opts;
  opts.p = ap.p;
  opts.params = core::MachineParams::unit();
  opts.timeout_s = cli.get_double("timeout");

  std::fprintf(stderr, "[transport_run] %s rank %d of %d, rendezvous %s:%d\n",
               spec.alg.c_str(), rank, ap.p, cli.get("host").c_str(),
               static_cast<int>(cli.get_int("port")));
  try {
    const transport::RankReport r = transport::run_tcp_rank(
        rank, opts, cli.get("host"),
        static_cast<int>(cli.get_int("port")), ap.program);
    const bool match =
        r.wire.msgs_sent == r.model.msgs_sent &&
        r.wire.words_sent == r.model.words_sent &&
        r.wire.msgs_recv == r.model.msgs_recv &&
        r.wire.words_recv + r.self.words_recv == r.model.words_recv;
    std::printf(
        "rank %d/%d  %s over tcp\n"
        "  model   clock=%.0f  flops=%.0f  words_sent=%.0f  msgs_sent=%.0f\n"
        "  wire    words_sent=%.0f  msgs_sent=%.0f  words_recv=%.0f  "
        "msgs_recv=%.0f\n"
        "  output  %zu words   wall %.4f s   ledger %s\n",
        rank, ap.p, spec.alg.c_str(), r.model.clock, r.model.flops,
        r.model.words_sent, r.model.msgs_sent, r.wire.words_sent,
        r.wire.msgs_sent, r.wire.words_recv, r.wire.msgs_recv,
        r.output.size(), r.wall_s, match ? "match" : "DIVERGED");
    return match ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[transport_run] rank %d failed: %s\n", rank,
                 e.what());
    return 2;
  }
}
