// Shared pieces of the repository benchmark: the run context every workload
// receives, the metric catalog (every metric name and unit the benchmark
// prints), wall-clock helpers, and the span recorder used by traced runs.
//
// The benchmark drives the library only through public entry points
// (engine::execute / SweepRunner, serve::Server / QueryService,
// core::Optimizer, navigator::navigate, algs fold-map builders and local
// kernels, transport::make_program / run). Spans are recorded here, around
// those calls, never inside the library.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double now_s();
double seconds_since(Clock::time_point t0);

/// Linear-interpolated quantile (q in [0,1]) of a copy of `v`; 0 when empty.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// Peak resident set size of this process in MiB; with `children`, the max
/// over this process and every waited-for child (forked ranks).
double peak_rss_mib(bool children);

/// The fixed local dgemm used to fingerprint the host (seconds, median of
/// a few repetitions). Recorded with every result, never used to rescale.
double calibrate_dgemm();

/// Host fingerprint line (nproc, CPU model, build type, calibration).
std::string host_fingerprint_json(double calib_s);

// ---------------------------------------------------------------------------
// Spans

/// In-memory span recorder for traced runs. Each span has a name
/// ("<layer>.<what>"), start and end, parent span and request id; the
/// parent is the innermost open span on the recording thread unless given.
/// Written out once, at the end, as Chrome trace_event JSON.
class Tracer {
 public:
  struct Span {
    std::string name;
    int id = 0;
    int parent = -1;
    std::int64_t request = -1;
    int lane = 0;
    double t0 = 0.0;  ///< seconds since the tracer's origin
    double t1 = 0.0;
  };

  Tracer();

  /// Open a span on the calling thread; returns its id.
  int open(const std::string& name, std::int64_t request = -1);
  void close(int id);
  /// Record a finished span with explicit times (seconds since origin) and
  /// parent, e.g. a request timed from when it was due.
  void add(const std::string& name, int parent, std::int64_t request,
           int lane, double t0, double t1);
  double now() const;  ///< seconds since the origin

  std::vector<Span> spans() const;
  void write_chrome(const std::string& path) const;

  /// Wall time under `root` split by layer (the name's prefix before the
  /// first '.'): every instant goes to the most recently opened span that
  /// covers it, so the layer times sum to the root's duration exactly. For
  /// nested synchronous spans this is the usual self time (a span's
  /// duration minus the part its children cover).
  std::map<std::string, double> self_time_by_layer(int root) const;

 private:
  /// Innermost span open on the calling thread (-1 if none).
  int current() const;

  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when `tracer` is null (untraced runs).
class Scope {
 public:
  Scope(Tracer* tracer, const std::string& name, std::int64_t request = -1);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_ = -1;
};

// ---------------------------------------------------------------------------
// Run context and results

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch directory inside the checkout
};

/// What a workload returns. `metrics` holds whichever catalog metrics the
/// workload measures; main() fills the rest of the catalog with 0, the
/// value of a layer the workload never calls into.
struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t wrong = 0;  ///< subset of failed: outputs that failed a check
  std::map<std::string, double> metrics;
  /// Human-readable lines for stderr (failures, self-time table, ...).
  std::vector<std::string> notes;

  /// An operation that errored, was refused or timed out.
  void fail(const std::string& what);
  /// An operation whose output failed its correctness check.
  void mismatch(const std::string& what);
  void set(const std::string& name, double value) { metrics[name] = value; }
};

struct MetricDef {
  std::string name;
  const char* unit;
};

/// End-to-end metrics (printed with --trace 0), in BENCHMARK.json order.
const std::vector<MetricDef>& end_to_end_metrics();
/// Per-layer metrics (printed with --trace 1), in BENCHMARK.json order.
const std::vector<MetricDef>& per_layer_metrics();

/// Batch workloads run their fixed operation list in passes. These fold the
/// per-pass samples into the end-to-end metrics the same way for every batch
/// workload: wall_s is the median over passes, slo_max_qps the median of
/// operations per second. op_p50 (when half the list was done,
/// counted from the pass's start) serves the tracing-overhead figure.
struct PassTimes {
  std::vector<double> wall;      ///< seconds per pass
  std::vector<double> op_p50;    ///< per pass: median completion time (s)
  std::vector<double> ops_rate;  ///< per pass: ops / wall (1/s)

  /// `done_s` are the completion times of the pass's timed operations;
  /// `ops` the operations the pass completed (defaults to done_s.size()).
  void add_pass(double wall_s, const std::vector<double>& done_s,
                std::size_t ops = 0);
  void report(Result& r) const;
};

/// Run `fn` `times` times and return the median duration; used for set-up.
template <class F>
double median_setup(int times, F&& fn) {
  std::vector<double> d;
  for (int i = 0; i < times; ++i) {
    const auto t0 = Clock::now();
    fn();
    d.push_back(seconds_since(t0));
  }
  return median(d);
}

/// Run `pass` (given the tracer to record into, or null) until --seconds
/// have elapsed. Traced runs alternate untraced and traced passes, an
/// untraced one first and at least one of each, so the tracing overhead is
/// measured under the same conditions as the traced figures.
template <class Pass>
void run_passes(const Options& opt, Tracer* tracer, Pass&& pass) {
  const auto start = Clock::now();
  for (int i = 0;; ++i) {
    const bool traced = tracer != nullptr && i % 2 == 1;
    pass(traced ? tracer : nullptr);
    if (seconds_since(start) >= opt.seconds && (tracer == nullptr || i >= 1)) {
      break;
    }
  }
}

/// The self-time table over every top-level span (one without a parent) as
/// per-layer metrics `self_s.<layer>` and `bench.self_cover`, plus a
/// printable table in r.notes.
void report_self_times(const Tracer& tracer, const std::string& wl,
                       Result& r);

Result run_frontier_rotor(const Options& opt, Tracer* tracer);
Result run_fiber_sweep(const Options& opt, Tracer* tracer);
Result run_serve_mix(const Options& opt, Tracer* tracer);
Result run_real_p4(const Options& opt, Tracer* tracer);

}  // namespace perfbench
