// Sweep runner: execute a vector of ExperimentSpecs through the result
// cache and the thread pool, returning results in input order.
//
// Every job is a self-contained deterministic simulation (one Machine, its
// fibers, and its Rng live entirely on the executing thread — see the
// threading note in sim/machine.hpp), so a sweep's results are bit-identical
// regardless of thread count; threads only change wall-clock time. The bench
// binaries build their parameter grids as specs, call run(), and print the
// same tables they always printed — with --threads N for concurrency and
// --cache-dir PATH to persist results so re-runs only compute changed
// points.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "algs/registry.hpp"
#include "engine/cache.hpp"
#include "engine/job.hpp"
#include "sim/trace.hpp"

namespace alge::engine {

/// The algorithm-table problem `spec` names (spec.alg must be one of the
/// table's algorithms, not a collective microbench).
algs::Problem problem_of(const ExperimentSpec& spec);

/// The inverse of problem_of: a spec running `pb`, with every engine axis
/// (machine parameters, modes, chaos) at its default.
ExperimentSpec spec_of(const algs::Problem& pb);

/// The simulated machine `spec` asks for: parameters, data and execution
/// mode, and the chaos axes (wake-order permuter, fault injector). Throws
/// invalid_argument_error for folded execution without ghost data or an
/// unknown fault plan. The caller sets p (and any trace or ledger flags).
sim::MachineConfig machine_config(const ExperimentSpec& spec);

/// Execute one spec on the simulator, on the calling thread (cache not
/// consulted): algs::run(problem_of(spec), machine_config(spec),
/// spec.verify) — or the collective microbench spec.alg names.
ExperimentResult execute(const ExperimentSpec& spec);

/// Like execute(), but with tracing enabled on the simulated machine: the
/// run's event stream is copied into *trace before the machine is torn
/// down (cache keys and the execute() path itself are untouched). Use
/// result.p for the rank count when exporting, e.g.
/// obs::write_chrome_trace.
ExperimentResult execute_traced(const ExperimentSpec& spec, sim::Trace* trace);

struct SweepOptions {
  int threads = 1;        ///< <= 1: run inline on the calling thread
  std::string cache_dir;  ///< "" = in-memory cache only
  /// Called after each job completes with (done, total). May be invoked
  /// from pool workers (serialized); keep it cheap and write to stderr so
  /// table output on stdout stays clean.
  std::function<void(int done, int total)> progress;
};

/// Where a sweep's wall-clock time went (seconds, summed over jobs), so perf
/// regressions can be localized (queueing vs simulation vs cache
/// serialization) rather than just detected.
struct SweepProfile {
  double cache_lookup_seconds = 0.0;  ///< total time in ResultCache::lookup
  double serialize_seconds = 0.0;     ///< total time in ResultCache::store
  double run_seconds = 0.0;           ///< total time in execute()
  double run_max_seconds = 0.0;       ///< slowest single job's execute()
  double queue_wait_seconds = 0.0;    ///< pool: total submit-to-start latency
  double queue_wait_max_seconds = 0.0;
  double pool_busy_seconds = 0.0;     ///< pool: total time workers ran jobs
  /// pool_busy / (threads × wall): 1.0 = workers never idle. Serial runs
  /// report job time over wall time (so ~1.0 unless spec-building dominates).
  double pool_occupancy = 0.0;
};

struct SweepStats {
  int jobs = 0;
  int cache_hits = 0;
  int executed = 0;
  double wall_seconds = 0.0;
  double jobs_per_sec = 0.0;
  SweepProfile profile;
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions opts = {});

  /// Run all specs; result[i] corresponds to specs[i]. Rethrows the first
  /// job exception after the remaining jobs finish.
  std::vector<ExperimentResult> run(const std::vector<ExperimentSpec>& specs);

  /// Stats of the most recent run().
  const SweepStats& stats() const { return stats_; }
  ResultCache& cache() { return *cache_; }
  const SweepOptions& options() const { return opts_; }

 private:
  /// Per-job wall-clock breakdown, folded into SweepStats::profile.
  struct JobTiming {
    bool hit = false;
    double lookup = 0.0;  ///< cache lookup seconds
    double run = 0.0;     ///< execute() seconds (0 on a hit)
    double store = 0.0;   ///< cache store seconds (0 on a hit)
  };

  ExperimentResult run_one(const ExperimentSpec& spec, JobTiming* timing);

  SweepOptions opts_;
  std::unique_ptr<ResultCache> cache_;
  SweepStats stats_;
};

}  // namespace alge::engine
