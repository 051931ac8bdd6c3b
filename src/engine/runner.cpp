#include "engine/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <sstream>
#include <utility>

#include "chaos/fault_plan.hpp"
#include "chaos/schedule.hpp"
#include "engine/backend.hpp"
#include "engine/pool.hpp"
#include "sim/comm.hpp"
#include "sim/machine.hpp"
#include "support/common.hpp"
#include "support/json.hpp"

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
  return {.p = m.p(),
          .makespan = m.makespan(),
          .totals = m.totals(),
          .energy = m.energy().breakdown};
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
  // Transport axis, resolved before every other axis: a real backend
  // executes the whole spec itself (and rejects incompatible axes). "sim"
  // is the explicit name of the default path (distinct cache key,
  // identical result).
  if (!spec.transport.empty() && spec.transport != "sim") {
    const BackendExecutor* exec = find_backend_executor(spec.transport);
    ALGE_REQUIRE(exec != nullptr,
                 "no executor registered for transport \"%s\" — link "
                 "alge_transport and call "
                 "transport::register_engine_backends() first",
                 spec.transport.c_str());
    return (*exec)(spec);
  }
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

void add_engine_flags(CliArgs& cli) {
  cli.add_flag("threads", "1",
               "worker threads for the experiment sweep (1 = serial)");
  cli.add_flag("cache-dir", "",
               "directory for the persistent result cache (empty = off)");
  cli.add_flag("progress", "false", "print sweep progress to stderr");
  cli.add_flag("bench-json", "BENCH_engine.json",
               "append a machine-readable perf record here (empty = off)");
}

SweepOptions sweep_options_from_cli(const CliArgs& cli) {
  SweepOptions opts;
  opts.threads = static_cast<int>(cli.get_int("threads"));
  ALGE_REQUIRE(opts.threads >= 1, "--threads must be >= 1");
  opts.cache_dir = cli.get("cache-dir");
  if (cli.get_bool("progress")) {
    opts.progress = [](int done, int total) {
      std::fprintf(stderr, "[engine] %d/%d jobs done\n", done, total);
    };
  }
  return opts;
}

void append_bench_record(const std::string& bench_name,
                         const SweepRunner& runner, const std::string& path) {
  if (path.empty()) return;
  json::Value records = json::Value::array();
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      try {
        json::Value existing = json::parse(buf.str());
        if (existing.is_array()) records = std::move(existing);
      } catch (const json::json_error&) {
        // Malformed history: start a fresh array rather than failing the
        // bench run.
      }
    }
  }
  const SweepStats& s = runner.stats();
  json::Value prof = json::Value::object();
  prof.set("cache_lookup_seconds", s.profile.cache_lookup_seconds)
      .set("serialize_seconds", s.profile.serialize_seconds)
      .set("run_seconds", s.profile.run_seconds)
      .set("run_max_seconds", s.profile.run_max_seconds)
      .set("queue_wait_seconds", s.profile.queue_wait_seconds)
      .set("queue_wait_max_seconds", s.profile.queue_wait_max_seconds)
      .set("pool_busy_seconds", s.profile.pool_busy_seconds)
      .set("pool_occupancy", s.profile.pool_occupancy);
  json::Value rec = json::Value::object();
  rec.set("bench", bench_name)
      .set("jobs", s.jobs)
      .set("cache_hits", s.cache_hits)
      .set("executed", s.executed)
      .set("threads", runner.options().threads)
      .set("wall_seconds", s.wall_seconds)
      .set("jobs_per_sec", s.jobs_per_sec)
      .set("profile", std::move(prof))
      .set("unix_time",
           static_cast<double>(std::chrono::duration_cast<std::chrono::seconds>(
                                   std::chrono::system_clock::now()
                                       .time_since_epoch())
                                   .count()));
  records.push_back(std::move(rec));
  std::ofstream out(path, std::ios::trunc);
  if (out) out << records.dump() << '\n';
}

}  // namespace alge::engine
