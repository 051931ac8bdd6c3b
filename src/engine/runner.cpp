#include "engine/runner.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <utility>

#include "chaos/fault_plan.hpp"
#include "chaos/schedule.hpp"
#include "engine/pool.hpp"
#include "sim/comm.hpp"
#include "sim/machine.hpp"
#include "support/common.hpp"

namespace alge::engine {

namespace {

ExperimentResult from_run(const algs::RunResult& r) {
  return {.p = r.p,
          .makespan = r.makespan,
          .totals = r.totals,
          .energy = r.energy.breakdown,
          .max_abs_error = r.max_abs_error,
          .verified = r.verified,
          .fold_slots = r.fold_slots};
}

/// The collective microbenches of ablation_collectives as engine jobs: one
/// Machine of spec.p ranks runs the collective once on a payload of
/// spec.payload_words.
ExperimentResult run_collective(const ExperimentSpec& spec,
                                sim::MachineConfig cfg,
                                const algs::Inspect& inspect) {
  ALGE_REQUIRE(spec.p >= 1, "collective spec needs p >= 1");
  ALGE_REQUIRE(spec.payload_words >= 1,
               "collective spec needs payload_words >= 1");
  cfg.p = spec.p;
  const bool ghost = cfg.data_mode == sim::DataMode::kGhost;
  sim::Machine m(cfg);
  const std::size_t k = static_cast<std::size_t>(spec.payload_words);
  const std::size_t kp = k * static_cast<std::size_t>(spec.p);
  m.run([&](sim::Comm& c) {
    const sim::Group world = sim::Group::world(spec.p);
    // Ghost runs pass storage-free views of the same sizes; the cost
    // schedule is identical either way.
    std::vector<double> d, out;
    auto view = [ghost](std::vector<double>& v, std::size_t words,
                        double fill) {
      if (ghost) return sim::Payload::ghost(words);
      v.assign(words, fill);
      return sim::Payload(v);
    };
    switch (spec.alg) {
      case Alg::kCollBcast:
        c.bcast(view(d, k, 1.0), 0, world);
        break;
      case Alg::kCollReduce:
        c.reduce_sum(view(d, k, 1.0), view(out, k, 0.0), 0, world);
        break;
      case Alg::kCollAllgather:
        c.allgather(view(d, k, 1.0), view(out, kp, 0.0), world);
        break;
      case Alg::kCollA2aDirect:
        c.alltoall(view(d, kp, 1.0), view(out, kp, 0.0), world);
        break;
      case Alg::kCollA2aBruck:
        c.alltoall_bruck(view(d, kp, 1.0), view(out, kp, 0.0), world);
        break;
      default:
        ALGE_CHECK(false, "not a collective alg");
    }
  });
  if (inspect) inspect(m);
  const sim::SimTotals totals = m.totals();
  return {.p = m.p(),
          .makespan = m.makespan(),
          .totals = totals,
          .energy = m.energy(totals).breakdown};
}

}  // namespace

algs::Problem problem_of(const ExperimentSpec& spec) {
  return {.alg = std::string(to_string(spec.alg)), .n = spec.n, .q = spec.q,
          .c = spec.c, .p = spec.p, .k = spec.k, .nb = spec.nb,
          .r_dim = spec.r_dim, .c_dim = spec.c_dim,
          .fft_bruck = spec.fft_bruck, .caps_schedule = spec.caps_schedule,
          .caps_cutoff = spec.caps_cutoff,
          .ring_replication = spec.ring_replication, .seed = spec.seed};
}

ExperimentSpec spec_of(const algs::Problem& pb) {
  return {.alg = alg_from_string(pb.alg), .params = {}, .n = pb.n,
          .q = pb.q, .c = pb.c, .p = pb.p, .k = pb.k, .nb = pb.nb,
          .r_dim = pb.r_dim, .c_dim = pb.c_dim,
          .ring_replication = pb.ring_replication,
          .caps_schedule = pb.caps_schedule, .caps_cutoff = pb.caps_cutoff,
          .fft_bruck = pb.fft_bruck, .seed = pb.seed, .fault_plan = {}};
}

sim::MachineConfig machine_config(const ExperimentSpec& spec) {
  // Folded replay carries costs, not data, so a full-data folded run has
  // nothing to produce — reject it up front rather than deep inside the
  // Machine constructor.
  ALGE_REQUIRE(spec.exec_mode != sim::ExecMode::kFolded ||
                   spec.data_mode == sim::DataMode::kGhost,
               "exec_mode=folded requires data_mode=ghost (class replay "
               "moves costs, not data)");
  sim::MachineConfig cfg;
  cfg.params = spec.params;
  cfg.data_mode = spec.data_mode;
  cfg.exec_mode = spec.exec_mode;
  if (spec.chaos_seed != 0) {
    cfg.wake_policy =
        std::make_shared<chaos::SchedulePermuter>(spec.chaos_seed);
  }
  if (!spec.fault_plan.empty()) {
    const chaos::FaultPlan plan = chaos::FaultPlan::bundled(spec.fault_plan);
    if (!plan.inert()) {
      cfg.faults = plan.make_injector(
          spec.chaos_seed != 0 ? spec.chaos_seed : 1, cfg.params.alpha_t);
    }
  }
  return cfg;
}

namespace {

ExperimentResult run_spec(const ExperimentSpec& spec, bool trace,
                          const algs::Inspect& inspect) {
  sim::MachineConfig cfg = machine_config(spec);
  cfg.enable_trace = trace;
  // The collective microbenches follow the table algorithms in Alg.
  if (spec.alg >= Alg::kCollBcast) {
    return run_collective(spec, std::move(cfg), inspect);
  }
  return from_run(
      algs::run(problem_of(spec), std::move(cfg), spec.verify, inspect));
}

}  // namespace

ExperimentResult execute(const ExperimentSpec& spec) {
  return run_spec(spec, false, {});
}

ExperimentResult execute_traced(const ExperimentSpec& spec,
                                sim::Trace* trace) {
  ALGE_REQUIRE(trace != nullptr, "execute_traced needs a trace to fill");
  return run_spec(spec, true,
                  [trace](const sim::Machine& m) { *trace = m.trace(); });
}

SweepRunner::SweepRunner(SweepOptions opts)
    : opts_(std::move(opts)),
      cache_(std::make_unique<ResultCache>(opts_.cache_dir)) {}

ExperimentResult SweepRunner::run_one(const ExperimentSpec& spec,
                                      JobTiming* timing) {
  using clock = std::chrono::steady_clock;
  auto seconds_since = [](clock::time_point t0) {
    return std::chrono::duration<double>(clock::now() - t0).count();
  };
  const auto t_lookup = clock::now();
  auto hit = cache_->lookup(spec);
  timing->lookup = seconds_since(t_lookup);
  if (hit) {
    timing->hit = true;
    return *hit;
  }
  timing->hit = false;
  const auto t_run = clock::now();
  ExperimentResult r = execute(spec);
  timing->run = seconds_since(t_run);
  const auto t_store = clock::now();
  cache_->store(spec, r);
  timing->store = seconds_since(t_store);
  return r;
}

std::vector<ExperimentResult> SweepRunner::run(
    const std::vector<ExperimentSpec>& specs) {
  const auto t0 = std::chrono::steady_clock::now();
  const int total = static_cast<int>(specs.size());
  stats_ = SweepStats{};
  stats_.jobs = total;
  std::vector<ExperimentResult> out(specs.size());

  std::mutex mu;  // guards done/hits/prof and serializes progress callbacks
  int done = 0;
  int hits = 0;
  SweepProfile prof;
  auto finish_job = [&](const JobTiming& t) {
    std::lock_guard lock(mu);
    ++done;
    if (t.hit) ++hits;
    prof.cache_lookup_seconds += t.lookup;
    prof.run_seconds += t.run;
    prof.run_max_seconds = std::max(prof.run_max_seconds, t.run);
    prof.serialize_seconds += t.store;
    if (opts_.progress) opts_.progress(done, total);
  };

  if (opts_.threads <= 1) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      JobTiming t;
      out[i] = run_one(specs[i], &t);
      finish_job(t);
    }
  } else {
    ThreadPool pool(opts_.threads);
    std::vector<std::future<void>> futures;
    futures.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      futures.push_back(pool.submit([this, &specs, &out, &finish_job, i]() {
        JobTiming t;
        out[i] = run_one(specs[i], &t);
        finish_job(t);
      }));
    }
    pool.drain();
    const PoolProfile pp = pool.profile();
    prof.queue_wait_seconds = pp.queue_wait_total;
    prof.queue_wait_max_seconds = pp.queue_wait_max;
    prof.pool_busy_seconds = pp.busy_total;
    // All jobs finished; surface the first failure (if any) after the
    // sweep so no future is abandoned mid-flight.
    std::exception_ptr first;
    for (auto& f : futures) {
      try {
        f.get();
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
    if (first) std::rethrow_exception(first);
  }

  stats_.cache_hits = hits;
  stats_.executed = total - hits;
  stats_.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  stats_.jobs_per_sec =
      stats_.wall_seconds > 0.0 ? total / stats_.wall_seconds : 0.0;
  if (opts_.threads <= 1) {
    // Serial runs have no pool: jobs are "busy" for their whole duration.
    prof.pool_busy_seconds =
        prof.cache_lookup_seconds + prof.run_seconds + prof.serialize_seconds;
  }
  if (stats_.wall_seconds > 0.0) {
    prof.pool_occupancy = prof.pool_busy_seconds /
                          (std::max(opts_.threads, 1) * stats_.wall_seconds);
  }
  stats_.profile = prof;
  return out;
}

}  // namespace alge::engine
