// real_p4: all 7 algorithms at p = 4 (CAPS at p = 7 = 7¹, the smallest
// CAPS machine) run for real through transport::make_program and
// transport::run on the sim, shm and tcp backends. Per-rank messages range
// from below to above the 1 MiB shm ring. This is the only workload where
// real rings, sockets, fork and the local kernels do the work; the sim
// backend is the single-process baseline.
//
// Checks: every rank's output is bitwise equal across the three backends,
// and on the real backends the wire counters equal the model's W/S ledger
// exactly (self-sends never touch the wire; their words count on receive).
//
// Known defect, recorded rather than avoided: Cannon n=1024 (2 MiB shift
// blocks) and FFT 1024×1024 (1 MiB + 56 B frames) fail on shm with "peer
// finished without draining the ring"; both run on tcp. They stay in the
// list at these sizes, bounded by kTimeoutS, and count as failed.
#include <algorithm>
#include <string>
#include <vector>

#include "bench.hpp"
#include "kernels.hpp"
#include "support/common.hpp"
#include "transport/programs.hpp"
#include "transport/run.hpp"

namespace perfbench {
namespace {

namespace tr = alge::transport;

/// Bound on every blocking transport wait and on each multi-process run.
/// The same on every commit, so a hang costs the same time everywhere.
constexpr double kTimeoutS = 2.0;

std::vector<tr::ProgramSpec> programs(std::uint64_t seed) {
  std::vector<tr::ProgramSpec> v(7);
  v[0].alg = "mm25d";  // Cannon: 512×512 blocks, 2 MiB per shift
  v[0].n = 1024;
  v[0].q = 2;
  v[0].c = 1;
  v[1].alg = "summa";
  v[1].n = 1024;
  v[1].q = 2;
  v[2].alg = "caps";
  v[2].n = 448;
  v[2].k = 1;
  v[3].alg = "nbody";
  v[3].n = 8192;
  v[3].p = 4;
  v[3].c = 2;
  v[4].alg = "lu";
  v[4].n = 768;
  v[4].nb = 32;
  v[4].q = 2;
  v[4].c = 1;
  v[5].alg = "fft";  // 1024×1024 points: 1 MiB transpose blocks
  v[5].r_dim = 1024;
  v[5].c_dim = 1024;
  v[5].p = 4;
  v[6].alg = "tsqr";
  v[6].n = 8192;
  v[6].nb = 32;
  v[6].p = 4;
  for (tr::ProgramSpec& s : v) s.seed = seed;
  return v;
}

constexpr tr::Backend kBackends[] = {tr::Backend::kSim, tr::Backend::kShm,
                                     tr::Backend::kTcp};

/// Wire traffic equals the model's ledger on every rank.
bool wire_matches_ledger(const tr::RunReport& rep) {
  for (const tr::RankReport& r : rep.ranks) {
    if (r.wire.msgs_sent != r.model.msgs_sent ||
        r.wire.words_sent != r.model.words_sent ||
        r.wire.msgs_recv != r.model.msgs_recv ||
        r.wire.words_recv + r.self.words_recv != r.model.words_recv) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result run_real_p4(const Options& opt, Tracer* tracer) {
  Result r;
  const std::vector<tr::ProgramSpec> specs = programs(opt.seed);

  // Set-up: build every rank program (each rank regenerates its inputs
  // from the seed when it runs) and warm each backend with a tiny run, so
  // the first fork and the first socket mesh are not in the timed pass.
  std::vector<tr::AlgProgram> progs;
  const double setup = median_setup(5, [&] {
    progs.clear();
    for (const tr::ProgramSpec& s : specs) progs.push_back(tr::make_program(s));
    const tr::AlgProgram tiny = tr::make_program(tr::conformance_spec("summa"));
    tr::RunOptions ro;
    ro.p = tiny.p;
    ro.params = alge::core::MachineParams::unit();
    ro.timeout_s = kTimeoutS;
    for (const tr::Backend b : kBackends) (void)tr::run(b, ro, tiny.program);
  });
  r.set("setup_s", setup);

  PassTimes passes, untraced;
  std::vector<std::vector<double>> run_s(specs.size() * 3);
  std::vector<double> rank_max, rank_mean, launch, wire_bytes, wire_frames;
  // Outputs of the first successful run per (program, rank): what every
  // later run on any backend must reproduce bit for bit.
  std::vector<std::vector<std::vector<double>>> reference(specs.size());

  auto pass = [&](Tracer* tp) {
    Scope ps(tp, "bench.pass");
    std::vector<double> op_s;
    double pmax = 0.0, pmean = 0.0, plaunch = 0.0, bytes = 0.0, frames = 0.0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      for (std::size_t b = 0; b < 3; ++b) {
        const tr::Backend be = kBackends[b];
        const std::string name =
            specs[i].alg + "." + std::string(tr::to_string(be));
        ++r.attempted;
        tr::RunOptions ro;
        ro.p = progs[i].p;
        ro.params = alge::core::MachineParams::unit();
        ro.timeout_s = kTimeoutS;
        const auto o0 = Clock::now();
        tr::RunReport rep;
        try {
          Scope s(tp, "transport.run." + name);
          rep = tr::run(be, ro, progs[i].program);
        } catch (const std::exception& e) {
          op_s.push_back(seconds_since(t0));
          run_s[i * 3 + b].push_back(seconds_since(o0));
          r.fail(name + ": " + e.what());
          continue;
        }
        op_s.push_back(seconds_since(t0));
        run_s[i * 3 + b].push_back(seconds_since(o0));
        std::vector<std::vector<double>> outs;
        for (const tr::RankReport& rr : rep.ranks) outs.push_back(rr.output);
        if (reference[i].empty()) reference[i] = outs;
        if (outs != reference[i]) {
          r.mismatch(name + ": outputs differ from the other backends");
        } else if (be != tr::Backend::kSim && !wire_matches_ledger(rep)) {
          r.mismatch(name + ": wire counters differ from the W/S ledger");
        }
        if (be != tr::Backend::kSim) {
          double mx = 0.0, sum = 0.0;
          for (const tr::RankReport& rr : rep.ranks) {
            mx = std::max(mx, rr.wall_s);
            sum += rr.wall_s;
            bytes += 8.0 * rr.wire.words_sent;
            frames += rr.wire.msgs_sent;
          }
          pmax += mx;
          pmean += sum / static_cast<double>(rep.ranks.size());
          plaunch += rep.wall_s - mx;
        }
      }
    }
    const double wall = seconds_since(t0);
    if (tp == nullptr && tracer != nullptr) {
      untraced.add_pass(wall, op_s);
      return;
    }
    passes.add_pass(wall, op_s);
    rank_max.push_back(pmax);
    rank_mean.push_back(pmean);
    launch.push_back(plaunch);
    wire_bytes.push_back(bytes);
    wire_frames.push_back(frames);
  };

  run_passes(opt, tracer, pass);

  if (tracer != nullptr) {
    {
      std::vector<KernelShape> shapes;
      for (const tr::ProgramSpec& s : specs) {
        shapes.push_back({s.alg, s.n, s.q, s.c, s.p, s.nb, s.r_dim, s.c_dim});
      }
      Scope k(tracer, "algs.kernels");
      r.set("algs.kernel_s", replay_kernels(shapes));
    }
    for (std::size_t i = 0; i < specs.size(); ++i) {
      for (std::size_t b = 0; b < 3; ++b) {
        r.set("transport.run_s." + specs[i].alg + "." +
                  std::string(tr::to_string(kBackends[b])),
              median(run_s[i * 3 + b]));
      }
    }
    r.set("transport.rank_wall_max_s", median(rank_max));
    r.set("transport.rank_wall_mean_s", median(rank_mean));
    r.set("transport.launch_s", median(launch));
    r.set("transport.wire_bytes", median(wire_bytes));
    r.set("transport.wire_frames", median(wire_frames));
    r.set("bench.trace_overhead_s",
          median(passes.wall) - median(untraced.wall));
    r.set("bench.trace_overhead_p50_ms",
          (median(passes.op_p50) - median(untraced.op_p50)) * 1e3);
    report_self_times(*tracer, opt.workload, r);
  } else {
    passes.report(r);
  }
  r.set("peak_rss_mb", peak_rss_mib(true));
  return r;
}

}  // namespace perfbench
