#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <thread>

#include "algs/matmul/local.hpp"
#include "support/common.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mib(bool children) {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  long kib = self.ru_maxrss;
  if (children) {
    rusage kids{};
    getrusage(RUSAGE_CHILDREN, &kids);
    kib = std::max(kib, kids.ru_maxrss);
  }
  return static_cast<double>(kib) / 1024.0;
}

double calibrate_dgemm() {
  constexpr int kN = 192;
  alge::Rng rng(12345);
  const std::vector<double> a = alge::algs::random_matrix(kN, kN, rng);
  const std::vector<double> b = alge::algs::random_matrix(kN, kN, rng);
  std::vector<double> c(static_cast<std::size_t>(kN) * kN);
  std::vector<double> d;
  for (int rep = 0; rep < 5; ++rep) {
    std::fill(c.begin(), c.end(), 0.0);
    const auto t0 = Clock::now();
    alge::algs::matmul_add(a.data(), b.data(), c.data(), kN, kN, kN);
    d.push_back(seconds_since(t0));
  }
  ALGE_CHECK(c[0] == c[0], "calibration produced NaN");
  return median(d);
}

std::string host_fingerprint_json(double calib_s) {
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  alge::json::Value o = alge::json::Value::object();
  o.set("host", alge::json::Value::object()
                    .set("nproc", static_cast<double>(
                                      std::thread::hardware_concurrency()))
                    .set("cpu", cpu)
#ifdef PERFBENCH_BUILD_TYPE
                    .set("build_type", PERFBENCH_BUILD_TYPE)
#else
                    .set("build_type", "unknown")
#endif
                    .set("bench.calib_s", calib_s));
  return o.dump();
}

// ---------------------------------------------------------------------------
// Tracer

namespace {
thread_local std::vector<int> t_open;
}  // namespace

Tracer::Tracer() : origin_(Clock::now()) {}

double Tracer::now() const { return seconds_since(origin_); }

int Tracer::current() const { return t_open.empty() ? -1 : t_open.back(); }

int Tracer::open(const std::string& name, std::int64_t request) {
  const double t = now();
  const int parent = current();
  std::lock_guard lock(mu_);
  Span s;
  s.name = name;
  s.id = static_cast<int>(spans_.size());
  s.parent = parent;
  s.request = request;
  s.lane = static_cast<int>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % 1000);
  s.t0 = t;
  s.t1 = t;
  spans_.push_back(std::move(s));
  t_open.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::close(int id) {
  const double t = now();
  std::lock_guard lock(mu_);
  spans_.at(static_cast<std::size_t>(id)).t1 = t;
  ALGE_CHECK(!t_open.empty() && t_open.back() == id,
             "span %d closed out of order", id);
  t_open.pop_back();
}

void Tracer::add(const std::string& name, int parent, std::int64_t request,
                 int lane, double t0, double t1) {
  std::lock_guard lock(mu_);
  Span s;
  s.name = name;
  s.id = static_cast<int>(spans_.size());
  s.parent = parent;
  s.request = request;
  s.lane = lane;
  s.t0 = t0;
  s.t1 = t1;
  spans_.push_back(std::move(s));
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard lock(mu_);
  return spans_;
}

void Tracer::write_chrome(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::ofstream out(path);
  ALGE_REQUIRE(out.good(), "cannot write %s", path.c_str());
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    alge::json::Value e = alge::json::Value::object();
    e.set("name", s.name)
        .set("ph", "X")
        .set("pid", 1)
        .set("tid", s.lane)
        .set("ts", s.t0 * 1e6)
        .set("dur", (s.t1 - s.t0) * 1e6)
        .set("args", alge::json::Value::object()
                         .set("id", s.id)
                         .set("parent", s.parent)
                         .set("request", static_cast<double>(s.request)));
    out << (i == 0 ? "" : ",\n") << e.dump();
  }
  out << "]}\n";
}

std::map<std::string, double> Tracer::self_time_by_layer(int root) const {
  const std::vector<Span> all = spans();
  const Span& r = all.at(static_cast<std::size_t>(root));
  // Spans under the root (the root included), by id.
  std::vector<char> under(all.size(), 0);
  under[static_cast<std::size_t>(root)] = 1;
  for (const Span& s : all) {
    // Parents are always recorded before their children.
    if (s.parent >= 0 && under[static_cast<std::size_t>(s.parent)]) {
      under[static_cast<std::size_t>(s.id)] = 1;
    }
  }
  struct Edge {
    double t;
    bool open;
    int id;
  };
  std::vector<Edge> edges;
  for (const Span& s : all) {
    if (!under[static_cast<std::size_t>(s.id)]) continue;
    const double a = std::max(s.t0, r.t0);
    const double b = std::min(s.t1, r.t1);
    if (b <= a) continue;
    edges.push_back({a, true, s.id});
    edges.push_back({b, false, s.id});
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& x, const Edge& y) {
    if (x.t != y.t) return x.t < y.t;
    return x.open < y.open;  // closes before opens at equal times
  });
  auto layer_of = [&](int id) {
    const std::string& n = all[static_cast<std::size_t>(id)].name;
    return n.substr(0, n.find('.'));
  };
  // Active spans ordered by start (then id): the owner of an instant is the
  // most recently opened one.
  std::map<std::pair<double, int>, int> active;
  std::map<std::string, double> out;
  double last = r.t0;
  for (const Edge& e : edges) {
    if (!active.empty() && e.t > last) {
      out[layer_of(active.rbegin()->second)] += e.t - last;
    }
    last = e.t;
    const Span& s = all[static_cast<std::size_t>(e.id)];
    const std::pair<double, int> key{std::max(s.t0, r.t0), s.id};
    if (e.open) {
      active[key] = s.id;
    } else {
      active.erase(key);
    }
  }
  return out;
}

Scope::Scope(Tracer* tracer, const std::string& name, std::int64_t request)
    : tracer_(tracer) {
  if (tracer_ != nullptr) id_ = tracer_->open(name, request);
}

Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->close(id_);
}

// ---------------------------------------------------------------------------
// Results

void Result::fail(const std::string& what) {
  ++failed;
  notes.push_back("FAILED: " + what);
}

void Result::mismatch(const std::string& what) {
  ++failed;
  ++wrong;
  notes.push_back("WRONG: " + what);
}

void PassTimes::add_pass(double wall_s, const std::vector<double>& done_s,
                         std::size_t ops) {
  wall.push_back(wall_s);
  op_p50.push_back(quantile(done_s, 0.5));
  ops_rate.push_back(static_cast<double>(ops == 0 ? done_s.size() : ops) /
                     wall_s);
}

void PassTimes::report(Result& r) const {
  r.set("wall_s", median(wall));
  r.set("slo_max_qps", median(ops_rate));
  std::string walls;
  for (const double w : wall) walls += alge::strfmt(" %.3f", w);
  r.notes.push_back(alge::strfmt(
      "passes: %zu, wall s:%s (end-to-end figures: medians over passes)",
      wall.size(), walls.c_str()));
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},       {"wall_s", "s"},
      {"peak_rss_mb", "MiB"}, {"ok_frac", "ratio"},
      {"slo_max_qps", "1/s"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"sim.rotor_ns_per_rank_op", "ns"},
        {"sim.fold_slots", "count"},
        {"sim.msgs_simulated", "count"},
        {"engine.execute_s.summa_rotor", "s"},
        {"engine.execute_s.lu_rotor", "s"},
        {"engine.execute_s.mm25d_rotor", "s"},
        {"engine.execute_s.cannon_fold", "s"},
        {"engine.execute_s.full_mm25d", "s"},
        {"engine.execute_s.full_summa", "s"},
        {"engine.execute_s.full_caps", "s"},
        {"engine.execute_s.full_nbody", "s"},
        {"engine.execute_s.full_lu", "s"},
        {"engine.execute_s.full_fft", "s"},
        {"engine.execute_s.full_tsqr", "s"},
        {"engine.execute_s.ghost_mm25d_ring", "s"},
        {"engine.execute_s.ghost_lu25d", "s"},
        {"engine.execute_s.ghost_summa_fibers", "s"},
        {"engine.execute_ghost_s", "s"},
        {"engine.execute_full_s", "s"},
        {"engine.cache_lookup_s", "s"},
        {"engine.serialize_s", "s"},
        {"engine.cache_hit_ratio", "ratio"},
        {"engine.queue_wait_s", "s"},
        {"engine.pool_occupancy", "ratio"},
        {"algs.foldmap_build_s", "s"},
        {"algs.kernel_s", "s"},
        {"algs.verify_s", "s"},
        {"core.opt_us.nbody_min_energy", "us"},
        {"core.opt_us.mm_min_energy_given_time", "us"},
        {"core.evaluate_us", "us"},
        {"serve.handle_hit_us", "us"},
        {"serve.answer_hit_ratio", "ratio"},
        {"serve.handle_miss_us.min_energy", "us"},
        {"serve.handle_miss_us.min_energy_given_time", "us"},
        {"serve.handle_miss_us.evaluate", "us"},
        {"serve.handle_miss_us.experiment", "us"},
        {"serve.handle_miss_us.navigate", "us"},
        {"serve.wait_ms_p99", "ms"},
        {"serve.rtt_us", "us"},
        {"serve.lat_p50_ms", "ms"},
        {"serve.lat_p99_ms", "ms"},
        {"navigator.navigate_ms", "ms"},
    };
    for (const char* alg :
         {"mm25d", "summa", "caps", "nbody", "lu", "fft", "tsqr"}) {
      for (const char* be : {"sim", "shm", "tcp"}) {
        d.push_back({std::string("transport.run_s.") + alg + "." + be, "s"});
      }
    }
    const std::vector<MetricDef> tail = {
        {"transport.rank_wall_max_s", "s"},
        {"transport.rank_wall_mean_s", "s"},
        {"transport.launch_s", "s"},
        {"transport.wire_bytes", "bytes"},
        {"transport.wire_frames", "count"},
        {"bench.gen_lag_p99_ms", "ms"},
        {"bench.calib_s", "s"},
        {"self_s.bench", "s"},
        {"self_s.engine", "s"},
        {"self_s.algs", "s"},
        {"self_s.core", "s"},
        {"self_s.serve", "s"},
        {"self_s.navigator", "s"},
        {"self_s.transport", "s"},
        {"bench.self_cover", "ratio"},
        {"bench.trace_overhead_s", "s"},
        {"bench.trace_overhead_p50_ms", "ms"},
    };
    d.insert(d.end(), tail.begin(), tail.end());
    return d;
  }();
  return defs;
}

void report_self_times(const Tracer& tracer, const std::string& wl,
                       Result& r) {
  std::map<std::string, double> self;
  double total = 0.0;
  for (const Tracer::Span& s : tracer.spans()) {
    if (s.parent != -1) continue;
    total += s.t1 - s.t0;
    for (const auto& [layer, t] : tracer.self_time_by_layer(s.id)) {
      self[layer] += t;
    }
  }
  double sum = 0.0;
  r.notes.push_back(alge::strfmt("self-time table (%s, traced wall %.4f s):",
                                 wl.c_str(), total));
  for (const auto& [layer, s] : self) {
    sum += s;
    r.set("self_s." + layer, s);
    r.notes.push_back(alge::strfmt("  %-10s %10.4f s  %5.1f%%", layer.c_str(),
                                   s, total > 0 ? 100.0 * s / total : 0.0));
  }
  r.set("bench.self_cover", total > 0 ? sum / total : 0.0);
}

}  // namespace perfbench
