// fiber_sweep: an engine::SweepRunner sweep, run cold into a fresh on-disk
// result cache and then again warm from that cache (a fresh runner on the
// same directory, so the warm pass reads entries back from disk). Two
// halves: full-data verified runs of all 7 algorithms at p = 32..64, and
// ghost fiber-per-rank runs of shapes that do not fold. The fiber
// scheduler, mailboxes, collectives, local kernels and the engine cache do
// the work; the rotor does none.
//
// Checks: every verified run's error against the sequential reference is
// below kTolerance, and the warm pass returns the cold pass's results bit
// for bit.

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.hpp"
#include "engine/runner.hpp"
#include "kernels.hpp"
#include "specs.hpp"
#include "support/common.hpp"

namespace perfbench {
namespace {

namespace engine = alge::engine;

constexpr double kTolerance = 1e-6;
/// Sweep threads. One: with two pool threads the peak RSS depended on which
/// thread ran which 4096-fiber job (356–558 MiB across runs of the same
/// code), which no bound could hold.
constexpr int kThreads = 1;
constexpr int kRssPasses = 4;

struct Job {
  std::string family;  ///< engine.execute_s.<family>
  std::string fragment;
};

const std::vector<Job>& jobs() {
  static const std::vector<Job> list = {
      // Ghost, one fiber per rank: shapes with no fold. The two 4096-rank
      // jobs come first so they always share the pool, which keeps the
      // peak RSS a property of the list rather than of thread timing.
      {"ghost_summa_fibers",
       R"({"alg": "summa", "n": 1024, "q": 64, "data_mode": "ghost"})"},
      {"ghost_mm25d_ring",
       R"({"alg": "mm25d", "n": 1024, "q": 32, "c": 4,
           "ring_replication": true, "data_mode": "ghost"})"},
      {"ghost_lu25d",
       R"({"alg": "lu", "n": 1024, "nb": 8, "q": 16, "c": 4,
           "data_mode": "ghost"})"},
      // Full data, verified against the sequential reference.
      {"full_mm25d", R"({"alg": "mm25d", "n": 512, "q": 8, "c": 1})"},
      {"full_summa", R"({"alg": "summa", "n": 512, "q": 8})"},
      {"full_caps", R"({"alg": "caps", "n": 224, "k": 2})"},
      {"full_nbody", R"({"alg": "nbody", "n": 2048, "p": 64, "c": 4})"},
      {"full_lu", R"({"alg": "lu", "n": 256, "nb": 8, "q": 4, "c": 2})"},
      {"full_fft", R"({"alg": "fft", "r_dim": 32, "c_dim": 64, "p": 32})"},
      {"full_tsqr", R"({"alg": "tsqr", "n": 64, "nb": 8, "p": 64})"},
  };
  return list;
}

bool is_full(const engine::ExperimentSpec& s) {
  return s.data_mode == alge::sim::DataMode::kFull;
}

}  // namespace

Result run_fiber_sweep(const Options& opt, Tracer* tracer) {
  Result r;
  const std::vector<Job>& list = jobs();
  const std::string cache_root = opt.work_dir + "/fiber_sweep_cache";
  std::filesystem::remove_all(cache_root);
  std::filesystem::create_directories(cache_root);

  std::vector<engine::ExperimentSpec> specs;
  // Set-up: decode the specs (verified full-data runs, seed-derived inputs)
  // and run one small job (the LU one) so first-call costs land here.
  const double setup = median_setup(3, [&] {
    specs.clear();
    for (const Job& j : list) {
      engine::ExperimentSpec s =
          spec_from(j.fragment, alge::core::MachineParams::unit(), opt.seed);
      s.verify = is_full(s);
      specs.push_back(s);
    }
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (list[i].family == "full_lu") (void)engine::execute(specs[i]);
    }
  });
  r.set("setup_s", setup);

  PassTimes passes, untraced;
  std::vector<double> lookup_s, serialize_s, queue_s, occupancy, hit_ratio;
  int pass_no = 0;

  auto pass = [&](Tracer* tr) {
    const std::string dir = cache_root + "/" + std::to_string(pass_no++);
    Scope ps(tr, "bench.pass");
    // Operation latency: each cold job's completion time, counted from the
    // sweep's start (every job is submitted then). Warm jobs are cache hits
    // and are counted in ops/s and wall_s only.
    // The runner serializes progress calls.
    std::vector<double> op_s;
    Clock::time_point t_sweep;
    bool warm_phase = false;
    auto progress = [&](int, int) {
      if (!warm_phase) op_s.push_back(seconds_since(t_sweep));
    };
    const auto t0 = Clock::now();
    std::vector<engine::ExperimentResult> cold, warm;
    engine::SweepStats cold_stats, warm_stats;
    try {
      {
        Scope s(tr, "engine.sweep_cold");
        engine::SweepRunner runner({kThreads, dir, progress});
        t_sweep = Clock::now();
        cold = runner.run(specs);
        cold_stats = runner.stats();
      }
      {
        Scope s(tr, "engine.sweep_warm");
        engine::SweepRunner runner({kThreads, dir, progress});
        warm_phase = true;
        warm = runner.run(specs);
        warm_stats = runner.stats();
      }
    } catch (const std::exception& e) {
      r.attempted += 2 * static_cast<std::int64_t>(specs.size());
      r.fail(std::string("sweep: ") + e.what());
      return;
    }
    const double wall = seconds_since(t0);
    std::filesystem::remove_all(dir);

    for (std::size_t i = 0; i < specs.size(); ++i) {
      r.attempted += 2;
      const std::string& fam = list[i].family;
      if (specs[i].verify && !(cold[i].max_abs_error < kTolerance)) {
        r.mismatch(alge::strfmt("%s: verify error %.3g", fam.c_str(),
                                cold[i].max_abs_error));
      }
      if (!(warm[i] == cold[i])) {
        r.mismatch(fam + ": warm (cached) result differs from cold");
      }
    }
    if (warm_stats.cache_hits != static_cast<int>(specs.size())) {
      r.notes.push_back(alge::strfmt("warm pass hit %d of %zu",
                                     warm_stats.cache_hits, specs.size()));
    }
    if (tr == nullptr && tracer != nullptr) {
      untraced.add_pass(wall, op_s, 2 * specs.size());
      return;
    }
    passes.add_pass(wall, op_s, 2 * specs.size());
    const engine::SweepProfile& p = cold_stats.profile;
    lookup_s.push_back(p.cache_lookup_seconds +
                       warm_stats.profile.cache_lookup_seconds);
    serialize_s.push_back(p.serialize_seconds);
    queue_s.push_back(p.queue_wait_seconds);
    occupancy.push_back(p.pool_occupancy);
    hit_ratio.push_back(
        static_cast<double>(cold_stats.cache_hits + warm_stats.cache_hits) /
        static_cast<double>(cold_stats.jobs + warm_stats.jobs));
  };

  // Peak RSS is read after a fixed number of passes: the process grows by
  // about 2 MiB per cold+warm pass, so the end-of-run peak would depend on
  // how many passes fit in --seconds.
  double rss = 0.0;
  int passes_done = 0;
  run_passes(opt, tracer, [&](Tracer* tp) {
    pass(tp);
    if (++passes_done == kRssPasses) rss = peak_rss_mib(false);
  });
  if (rss == 0.0) rss = peak_rss_mib(false);
  r.notes.push_back(alge::strfmt(
      "peak RSS %.1f MiB after %d passes, %.1f MiB after %d", rss,
      std::min(passes_done, kRssPasses), peak_rss_mib(false), passes_done));

  if (tracer != nullptr) {
    // Layer probes, single-threaded: each spec through engine::execute,
    // the full-data ones again unverified, and the local kernels alone.
    double ghost = 0.0, full = 0.0, verify = 0.0;
    {
      Scope s(tracer, "bench.layer_probe");
      for (std::size_t i = 0; i < specs.size(); ++i) {
        auto t0 = Clock::now();
        {
          Scope e(tracer, "engine.execute." + list[i].family);
          (void)engine::execute(specs[i]);
        }
        const double dt = seconds_since(t0);
        r.set("engine.execute_s." + list[i].family, dt);
        (is_full(specs[i]) ? full : ghost) += dt;
        if (specs[i].verify) {
          engine::ExperimentSpec plain = specs[i];
          plain.verify = false;
          t0 = Clock::now();
          {
            Scope e(tracer, "engine.execute.unverified");
            (void)engine::execute(plain);
          }
          verify += dt - seconds_since(t0);
        }
      }
      std::vector<KernelShape> shapes;
      for (const engine::ExperimentSpec& s : specs) {
        if (!is_full(s)) continue;
        shapes.push_back({std::string(engine::to_string(s.alg)), s.n, s.q,
                          s.c, s.p, s.nb, s.r_dim, s.c_dim});
      }
      Scope k(tracer, "algs.kernels");
      r.set("algs.kernel_s", replay_kernels(shapes));
    }
    r.set("engine.execute_ghost_s", ghost);
    r.set("engine.execute_full_s", full);
    r.set("algs.verify_s", verify);
    r.set("engine.cache_lookup_s", median(lookup_s));
    r.set("engine.serialize_s", median(serialize_s));
    r.set("engine.queue_wait_s", median(queue_s));
    r.set("engine.pool_occupancy", median(occupancy));
    r.set("engine.cache_hit_ratio", median(hit_ratio));
    r.set("bench.trace_overhead_s",
          median(passes.wall) - median(untraced.wall));
    r.set("bench.trace_overhead_p50_ms",
          (median(passes.op_p50) - median(untraced.op_p50)) * 1e3);
    report_self_times(*tracer, opt.workload, r);
  } else {
    passes.report(r);
  }
  std::filesystem::remove_all(cache_root);
  r.set("peak_rss_mb", rss);
  return r;
}

}  // namespace perfbench
