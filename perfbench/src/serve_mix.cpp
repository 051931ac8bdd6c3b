// serve_mix: an open-loop request schedule against an in-process
// serve::Server (2 workers) over loopback TCP. One client thread
// multiplexes 2 connections and sends each request when it is due, whether
// or not earlier ones were answered (callers are independent users), so a
// stall shows as queueing in the latency of every later request.
//
// The mix: ~70% repeated closed-form queries (answer-store hits; the hot
// set is stored during set-up), ~20% unique cold §V questions (nbody
// min_energy, classical-mm min_energy_given_time), ~5% unique evaluate,
// ~4.9% unique ghost experiments and ~0.1% unique navigate queries.
// Offered rates step through kRates, interleaved over rounds;
// kOperatingStep is the operating point whose latency is reported. Latency
// is timed from when a request was due.
//
// Checks: every response is {"ok": true}; every answer served at the
// operating step, hot or cold, is bit-identical to a direct
// core::Optimizer, engine::execute or navigator::navigate call.
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/algmodel.hpp"
#include "core/opt.hpp"
#include "engine/runner.hpp"
#include "machines/db.hpp"
#include "navigator/navigator.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "support/common.hpp"
#include "support/json.hpp"

namespace perfbench {
namespace {

namespace json = alge::json;
namespace serve = alge::serve;
namespace core = alge::core;

/// Offered rates (requests/s), from an eighth of the two-worker capacity
/// measured on the development host (~3000 q/s) to above it; the lowest
/// step keeps slo_max_qps above 0 through slow spells of the host. Fixed so
/// every commit is offered the same load.
constexpr double kRates[] = {400, 800, 1200, 3600};
constexpr int kSteps = sizeof(kRates) / sizeof(kRates[0]);
constexpr int kOperatingStep = 1;
constexpr double kSloMs = 20.0;
/// A failed request counts as this late (over any limit).
constexpr double kFailedLatencyMs = 1e6;
/// A step is valid only if the generator sent on time: its p99 lag is at
/// most a quarter of the latency limit.
constexpr double kMaxGenLagMs = kSloMs / 4;
constexpr int kHotSet = 64;
/// The steps run interleaved in rounds (one segment of every step per
/// round, as many rounds as fit in --seconds, at least kMinRounds), so that
/// a stall of the host lands in some rounds of a step rather than in all of
/// it. A segment is kSegment requests: a p99 with ten samples beyond it.
constexpr std::size_t kSegment = 1000;
constexpr int kMinRounds = 3;

/// Rounds that fit in `seconds` of offered load.
int rounds_for(double seconds) {
  double round_s = 0.0;
  for (const double rate : kRates) round_s += kSegment / rate;
  return std::max(kMinRounds, static_cast<int>(std::lround(seconds / round_s)));
}

enum class Kind { kHot, kMinEnergy, kMinEnergyGivenTime, kEvaluate,
                  kExperiment, kNavigate };

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kHot: return "hot";
    case Kind::kMinEnergy: return "min_energy";
    case Kind::kMinEnergyGivenTime: return "min_energy_given_time";
    case Kind::kEvaluate: return "evaluate";
    case Kind::kExperiment: return "experiment";
    case Kind::kNavigate: return "navigate";
  }
  return "?";
}

struct Request {
  Kind kind = Kind::kHot;
  std::string body;
};

json::Value closed_form(const char* kind, const char* model, double n) {
  json::Value q = json::Value::object();
  q.set("kind", kind).set("model", model);
  if (std::string(model) == "nbody") q.set("f", 20.0);
  q.set("n", n).set("machine", "case-study");
  return q;
}

std::string nbody_min_energy(double n) {
  return closed_form("min_energy", "nbody", n).dump();
}

std::string mm_min_energy_given_time(double n, double t_max) {
  return closed_form("min_energy_given_time", "classical-mm", n)
      .set("t_max", t_max)
      .dump();
}

std::string nbody_evaluate(double n, double p, double M) {
  return closed_form("evaluate", "nbody", n).set("p", p).set("M", M).dump();
}

alge::engine::ExperimentSpec experiment_spec(std::uint64_t unique) {
  alge::engine::ExperimentSpec s;
  s.alg = alge::engine::Alg::kMm25d;
  s.params = core::MachineParams::unit();
  s.n = 16;
  s.q = 2;
  s.c = 1;
  s.seed = unique;  // part of the cache key: a distinct simulation
  s.data_mode = alge::sim::DataMode::kGhost;
  return s;
}

std::string experiment(std::uint64_t unique) {
  json::Value q = json::Value::object();
  q.set("kind", "experiment").set("spec", experiment_spec(unique).to_json());
  return q.dump();
}

std::string navigate(double n) {
  json::Value q = json::Value::object();
  q.set("kind", "navigate")
      .set("model", "nbody")
      .set("f", 20.0)
      .set("n", n)
      .set("machine", "case-study")
      .set("p_samples", 24)
      .set("m_samples", 12);
  return q.dump();
}

core::MachineParams case_study() {
  core::MachineParams mp = alge::machines::CaseStudyMachine{}.params();
  mp.mem_words = 0.0;  // the optimizer chooses M, as the service does
  return mp;
}

json::Value point_json(const core::RunPoint& pt) {
  json::Value o = json::Value::object();
  o.set("feasible", pt.feasible)
      .set("p", pt.p)
      .set("M", pt.M)
      .set("T", pt.T)
      .set("E", pt.E)
      .set("total_power", pt.total_power())
      .set("proc_power", pt.proc_power());
  return o;
}

/// The answer a direct library call gives for `request` — the benchmark's
/// own copy of the request → call mapping, so a served answer is checked
/// against the library, not against the service's code path.
std::string expected_answer(const std::string& request) {
  const json::Value q = json::parse(request);
  const std::string& kind = q.at("kind").as_string();
  if (kind == "experiment") {
    return alge::engine::execute(
               alge::engine::ExperimentSpec::from_json(q.at("spec")))
        .to_json()
        .dump();
  }
  const double n = q.at("n").as_double();
  if (kind == "navigate") {
    alge::navigator::NavRequest nr;
    nr.model = q.at("model").as_string();
    nr.n = n;
    nr.f = q.at("f").as_double();
    nr.params = case_study();
    nr.p_samples = static_cast<int>(q.at("p_samples").as_double());
    nr.m_samples = static_cast<int>(q.at("m_samples").as_double());
    nr.threads = 1;
    return alge::navigator::navigate(nr).to_json().dump();
  }
  std::unique_ptr<core::AlgModel> model;
  if (q.at("model").as_string() == "nbody") {
    model = std::make_unique<core::NBodyModel>(q.at("f").as_double());
  } else {
    model = std::make_unique<core::ClassicalMatmulModel>();
  }
  const core::Optimizer solver(*model, n, case_study());
  if (kind == "min_energy") return point_json(solver.minimize_energy()).dump();
  if (kind == "min_energy_given_time") {
    return point_json(solver.min_energy_given_time(q.at("t_max").as_double()))
        .dump();
  }
  return point_json(solver.evaluate(q.at("p").as_double(),
                                    q.at("M").as_double()))
      .dump();
}

/// The layer a direct call for `k` goes into (for its span).
const char* layer_of(Kind k) {
  switch (k) {
    case Kind::kExperiment: return "engine";
    case Kind::kNavigate: return "navigator";
    default: return "core";
  }
}

/// The "answer" member of a served response, or "" if it is not ok.
std::string served_answer(const std::string& response) {
  const json::Value v = json::parse(response);
  const json::Value* ok = v.find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) return "";
  return v.at("answer").dump();
}

/// Requests of each kind per block of 1000: 70% hits, 20% cold §V
/// questions, 5% evaluate, 4.9% experiment, 0.1% navigate.
constexpr std::pair<Kind, int> kBlockMix[] = {
    {Kind::kHot, 700},      {Kind::kMinEnergy, 100},
    {Kind::kMinEnergyGivenTime, 100},
    {Kind::kEvaluate, 50},  {Kind::kExperiment, 49},
    {Kind::kNavigate, 1},
};

/// The seeded request schedule: the hot set, and one request list per
/// (round, step) segment, run in that order.
struct Schedule {
  std::vector<std::string> hot;
  std::vector<std::vector<Request>> segments;  ///< [round * kSteps + step]
};

Schedule make_schedule(std::uint64_t seed, double seconds) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  Schedule s;
  for (int i = 0; i < kHotSet; ++i) {
    s.hot.push_back(i % 2 == 0
                        ? nbody_min_energy(std::floor(1e6 * (1.0 + u(rng))))
                        : mm_min_energy_given_time(
                              std::floor(2e4 * (1.0 + u(rng))),
                              50.0 * (1.0 + u(rng))));
  }
  // Unique values: a seed-drawn base plus a counter, so no cold question
  // repeats within a run.
  std::uint64_t unique = 0;
  std::vector<Kind> block;
  const int rounds = rounds_for(seconds);
  for (int round = 0; round < rounds; ++round) {
    for (int k = 0; k < kSteps; ++k) {
      std::vector<Request> reqs;
      reqs.reserve(kSegment);
      for (std::size_t i = 0; i < kSegment; ++i) {
        if (block.empty()) {
          // Stratified mix: every block of 1000 holds exactly these
          // counts, in a seed-shuffled order, so a run's share of slow
          // requests does not depend on the seed.
          for (const auto& [kind, n] : kBlockMix) {
            block.insert(block.end(), n, kind);
          }
          std::shuffle(block.begin(), block.end(), rng);
        }
        Request r;
        r.kind = block.back();
        block.pop_back();
        const double id = static_cast<double>(++unique);
        switch (r.kind) {
          case Kind::kHot:
            r.body = s.hot[static_cast<std::size_t>(u(rng) * kHotSet)];
            break;
          case Kind::kMinEnergy:
            r.body =
                nbody_min_energy(3e6 + 7.0 * id + std::floor(6.0 * u(rng)));
            break;
          case Kind::kMinEnergyGivenTime:
            r.body = mm_min_energy_given_time(5e4 + id, 50.0 * (1.0 + u(rng)));
            break;
          case Kind::kEvaluate:
            r.body = nbody_evaluate(1e6 + id,
                                    std::floor(64.0 + 4096.0 * u(rng)),
                                    std::floor(1e5 * (1.0 + u(rng))));
            break;
          case Kind::kExperiment:
            r.body = experiment(seed * 1000003 + unique);
            break;
          case Kind::kNavigate:
            r.body = navigate(5e6 + id);
            break;
        }
        reqs.push_back(std::move(r));
      }
      s.segments.push_back(std::move(reqs));
    }
  }
  return s;
}

/// A client connection with a non-blocking frame parser for responses.
struct Conn {
  int fd = -1;
  std::string in;
  std::deque<std::size_t> inflight;  ///< request indices, in send order
  explicit Conn(int port) : fd(serve::connect_tcp("127.0.0.1", port)) {}
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Read what is available; append complete frames to `out`. False on EOF.
  bool drain(std::vector<std::string>* out) {
    char buf[1 << 16];
    const ssize_t got = ::read(fd, buf, sizeof buf);
    if (got <= 0) return got < 0 && (errno == EINTR || errno == EAGAIN);
    in.append(buf, static_cast<std::size_t>(got));
    std::size_t pos = 0;
    while (in.size() - pos >= 4) {
      const auto* h = reinterpret_cast<const unsigned char*>(in.data() + pos);
      const std::size_t len = (std::size_t{h[0]} << 24) |
                              (std::size_t{h[1]} << 16) |
                              (std::size_t{h[2]} << 8) | std::size_t{h[3]};
      if (in.size() - pos - 4 < len) break;
      out->emplace_back(in, pos + 4, len);
      pos += 4 + len;
    }
    in.erase(0, pos);
    return true;
  }
};

struct Served {
  std::unique_ptr<serve::QueryService> service;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<Conn> conns[2];

  /// Close the connections, stop the server, then drop the service it
  /// points at.
  void reset() {
    conns[0].reset();
    conns[1].reset();
    server.reset();
    service.reset();
  }
};

/// Send every request once over conns[0] and wait for the answers.
void warm(Conn& c, const std::vector<std::string>& reqs) {
  std::string out;
  for (const std::string& r : reqs) serve::append_frame(out, r);
  ALGE_REQUIRE(serve::write_all(c.fd, out), "server closed during warm-up");
  std::vector<std::string> got;
  while (got.size() < reqs.size()) {
    ALGE_REQUIRE(c.drain(&got), "server closed during warm-up");
  }
}

/// One segment: a request list offered at one rate.
struct Segment {
  double rate = 0.0;
  std::vector<double> latency_ms;  ///< per request, from its due time
  std::vector<double> lag_ms;      ///< send time minus due time
  std::vector<std::string> responses;
  double first_due = 0.0, last_done = 0.0;
  std::size_t failed = 0;

  /// Requests served per second, first due time to last response.
  double served_qps() const {
    const double span = last_done - first_due;
    return span > 0.0 ? static_cast<double>(latency_ms.size()) / span : 0.0;
  }
  /// Served over offered rate; below 0.95 the backlog grew.
  double pace() const { return served_qps() / rate; }
};

/// A step's segments, one per round. Each figure is the median over rounds
/// of the segment's figure, so a host stall that spans under half the
/// rounds does not move it.
struct Step {
  double rate = 0.0;
  std::vector<Segment> segments;

  double across(const std::function<double(const Segment&)>& f) const {
    std::vector<double> v;
    for (const Segment& g : segments) v.push_back(f(g));
    return median(v);
  }
  double p(double q) const {
    return across([q](const Segment& g) { return quantile(g.latency_ms, q); });
  }
  double wall() const {
    return across([](const Segment& g) { return g.last_done - g.first_due; });
  }
  double lag_p99() const {
    return across([](const Segment& g) { return quantile(g.lag_ms, 0.99); });
  }
  double served_qps() const {
    return across([](const Segment& g) { return g.served_qps(); });
  }
  bool kept_pace() const {
    return across([](const Segment& g) { return g.pace(); }) >= 0.95;
  }
  bool generator_ok() const { return lag_p99() <= kMaxGenLagMs; }
  std::string summary() const {
    std::string out;
    for (const Segment& g : segments) {
      out += alge::strfmt(" %.3f/%.2f", quantile(g.latency_ms, 0.5),
                          quantile(g.latency_ms, 0.99));
    }
    return out;
  }
};

/// Run one open-loop segment: request i is due at start + i / rate. Returns
/// once every response has arrived, so segments never overlap.
Segment run_segment(Served& s, const std::vector<Request>& reqs, double rate,
                    Tracer* tracer, int parent, std::int64_t id_base) {
  Segment st;
  st.rate = rate;
  const std::size_t n = reqs.size();
  st.latency_ms.assign(n, kFailedLatencyMs);
  st.lag_ms.assign(n, 0.0);
  st.responses.resize(n);
  std::vector<double> due(n);
  // now_s() of the tracer's time origin, to place request spans.
  const double origin = tracer != nullptr ? now_s() - tracer->now() : 0.0;
  const double start = now_s() + 0.002;
  for (std::size_t i = 0; i < n; ++i) due[i] = start + i / rate;
  st.first_due = start;
  std::size_t next = 0, done = 0;
  std::vector<std::string> frames;
  double last_progress = now_s();
  while (done < n) {
    double now = now_s();
    while (next < n && due[next] <= now) {
      Conn& c = *s.conns[next % 2];
      std::string frame;
      serve::append_frame(frame, reqs[next].body);
      st.lag_ms[next] = (now_s() - due[next]) * 1e3;
      if (!serve::write_all(c.fd, frame)) {
        throw std::runtime_error("server closed the connection");
      }
      c.inflight.push_back(next);
      ++next;
      now = now_s();
    }
    // The client never sleeps: it polls without blocking, so neither its
    // own wake-up latency nor timer slack is part of a measured latency or
    // of the generator's lag.
    pollfd fds[2] = {{s.conns[0]->fd, POLLIN, 0}, {s.conns[1]->fd, POLLIN, 0}};
    const timespec ts{0, 0};
    const int ready = ::ppoll(fds, 2, &ts, nullptr);
    if (ready < 0 && errno != EINTR) throw std::runtime_error("ppoll failed");
    for (int k = 0; k < 2 && ready > 0; ++k) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& c = *s.conns[k];
      frames.clear();
      if (!c.drain(&frames)) throw std::runtime_error("server hung up");
      const double t = now_s();
      for (std::string& f : frames) {
        ALGE_CHECK(!c.inflight.empty(), "response without a request");
        const std::size_t i = c.inflight.front();
        c.inflight.pop_front();
        ++done;
        last_progress = t;
        st.last_done = t;
        if (f.find("\"ok\":true") == std::string::npos) {
          ++st.failed;
        } else {
          st.latency_ms[i] = (t - due[i]) * 1e3;
        }
        if (tracer != nullptr) {
          tracer->add(std::string("serve.request.") + kind_name(reqs[i].kind),
                      parent, id_base + static_cast<std::int64_t>(i), k + 1,
                      due[i] - origin, t - origin);
        }
        st.responses[i] = std::move(f);
      }
    }
    if (now_s() - last_progress > 30.0) {
      throw std::runtime_error("no response for 30 s");
    }
  }
  return st;
}

Served start_served(const Schedule& sched) {
  Served s;
  s.service = std::make_unique<serve::QueryService>();
  serve::ServerOptions so;
  so.threads = 2;
  s.server = std::make_unique<serve::Server>(*s.service, so);
  s.server->start();
  s.conns[0] = std::make_unique<Conn>(s.server->port());
  s.conns[1] = std::make_unique<Conn>(s.server->port());
  warm(*s.conns[0], sched.hot);
  return s;
}

template <class F>
double median_us(int reps, F&& fn) {
  std::vector<double> d;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn(i);
    d.push_back(seconds_since(t0) * 1e6);
  }
  return median(d);
}

}  // namespace

Result run_serve_mix(const Options& opt, Tracer* tracer) {
  Result r;

  // Set-up: build the request schedule, start the server, connect both
  // client connections and store the hot set's answers.
  Schedule sched;
  Served served;
  const double setup = median_setup(3, [&] {
    served.reset();
    sched = make_schedule(opt.seed, opt.seconds);
    served = start_served(sched);
  });
  r.set("setup_s", setup);

  // Segment `g` of the schedule is step g % kSteps of round g / kSteps.
  const int rounds = static_cast<int>(sched.segments.size()) / kSteps;
  auto op_segment = [&](int round) -> const std::vector<Request>& {
    return sched.segments[static_cast<std::size_t>(round * kSteps +
                                                   kOperatingStep)];
  };
  Segment untraced_op;
  if (tracer != nullptr) {
    // Untraced reference for the tracing overhead: one operating-step
    // segment alone, on its own server.
    Served ref = start_served(sched);
    untraced_op = run_segment(ref, op_segment(0), kRates[kOperatingStep],
                              nullptr, -1, 0);
    ref.reset();
  }

  const int root =
      tracer != nullptr ? tracer->open("bench.serve_mix") : -1;
  std::vector<Step> steps(kSteps);
  std::int64_t id_base = 0;
  for (std::size_t g = 0; g < sched.segments.size(); ++g) {
    const int k = static_cast<int>(g) % kSteps;
    Scope seg(tracer, alge::strfmt("bench.step.%g", kRates[k]));
    steps[k].rate = kRates[k];
    steps[k].segments.push_back(run_segment(served, sched.segments[g],
                                            kRates[k], tracer, seg.id(),
                                            id_base));
    id_base += static_cast<std::int64_t>(sched.segments[g].size());
  }

  // The highest step that met the limit, kept pace and was generated on
  // time, counting up from the lowest and stopping at the first miss; the
  // figure is the rate that step actually served (its offered rate less
  // the time to drain the last responses).
  double slo_qps = 0.0;
  bool below = true;
  for (const Step& st : steps) {
    for (const Segment& g : st.segments) {
      r.attempted += static_cast<std::int64_t>(g.latency_ms.size());
      for (std::size_t i = 0; i < g.failed; ++i) {
        r.fail(alge::strfmt("response not ok at %g q/s", st.rate));
      }
    }
    const bool met =
        st.p(0.99) <= kSloMs && st.kept_pace() && st.generator_ok();
    r.notes.push_back(alge::strfmt(
        "step %6.0f q/s: p50 %.3f ms p99 %.3f ms kept_pace %d "
        "gen_lag_p99 %.3f ms%s; per round p50/p99 ms:%s",
        st.rate, st.p(0.5), st.p(0.99), st.kept_pace() ? 1 : 0,
        st.lag_p99(), met ? "" : " (misses the limit)",
        st.summary().c_str()));
    below = below && met;
    if (below) slo_qps = st.served_qps();
  }

  // Correctness: every answer served at the operating step equals a direct
  // library call, bit for bit.
  const Step& op = steps[kOperatingStep];
  std::size_t checked = 0, samples = 0;
  {
    Scope check(tracer, "bench.verify");
    // Expected hot answers, one direct call per distinct hot request.
    std::map<std::string, std::string> hot_want;
    for (std::size_t i = 0; i < sched.hot.size(); ++i) {
      if (hot_want.count(sched.hot[i]) != 0) continue;
      Scope call(tracer, "core.direct", static_cast<std::int64_t>(i));
      hot_want[sched.hot[i]] = expected_answer(sched.hot[i]);
    }
    for (int round = 0; round < rounds; ++round) {
      const std::vector<Request>& reqs = op_segment(round);
      const Segment& g = op.segments[static_cast<std::size_t>(round)];
      samples += reqs.size();
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        // A response that was not ok is already counted as failed.
        if (g.latency_ms[i] == kFailedLatencyMs) continue;
        ++checked;
        std::string want;
        if (reqs[i].kind == Kind::kHot) {
          want = hot_want.at(reqs[i].body);
        } else {
          Scope call(tracer, std::string(layer_of(reqs[i].kind)) + ".direct",
                     static_cast<std::int64_t>(i));
          want = expected_answer(reqs[i].body);
        }
        if (served_answer(g.responses[i]) != want) {
          r.mismatch(std::string("served ") + kind_name(reqs[i].kind) +
                     " answer differs from the direct call: " + reqs[i].body);
        }
      }
    }
  }
  r.notes.push_back(alge::strfmt(
      "operating step %g q/s: %zu samples in %d rounds; %zu answers checked "
      "against direct calls",
      kRates[kOperatingStep], samples, rounds, checked));

  const double wall = op.wall();
  if (tracer == nullptr) {
    r.set("wall_s", wall);
    r.set("slo_max_qps", slo_qps);
  } else {
    r.set("serve.lat_p50_ms", op.p(0.5));
    r.set("serve.lat_p99_ms", op.p(0.99));
    // Layer probes: direct core / navigator calls, in-process handle() on
    // hits and misses, and the hot socket round trip.
    std::mt19937_64 rng(opt.seed + 17);
    std::uniform_real_distribution<double> u(1.0, 2.0);
    const core::MachineParams mp = case_study();
    {
      Scope probe(tracer, "bench.layer_probe");
      r.set("core.opt_us.nbody_min_energy", median_us(41, [&](int i) {
              Scope s(tracer, "core.optimizer.min_energy", i);
              const core::NBodyModel m(20.0);
              (void)core::Optimizer(m, 1e6 * u(rng), mp).minimize_energy();
            }));
      r.set("core.opt_us.mm_min_energy_given_time", median_us(41, [&](int i) {
              Scope s(tracer, "core.optimizer.min_energy_given_time", i);
              const core::ClassicalMatmulModel m;
              (void)core::Optimizer(m, 2e4 * u(rng), mp)
                  .min_energy_given_time(50.0 * u(rng));
            }));
      r.set("core.evaluate_us", median_us(201, [&](int i) {
              Scope s(tracer, "core.optimizer.evaluate", i);
              const core::NBodyModel m(20.0);
              (void)core::Optimizer(m, 1e6 * u(rng), mp)
                  .evaluate(std::floor(64 * u(rng)), 1e5 * u(rng));
            }));
      r.set("navigator.navigate_ms", median_us(9, [&](int i) {
              Scope s(tracer, "navigator.navigate", i);
              (void)expected_answer(navigate(7e6 + i));
            }) / 1e3);

      serve::QueryService svc;
      const std::string hit = sched.hot[0];
      (void)svc.handle(hit);
      r.set("serve.handle_hit_us", median_us(2001, [&](int i) {
              Scope s(tracer, "serve.handle.hit", i);
              (void)svc.handle(hit);
            }));
      auto miss = [&](const char* metric, auto make) {
        r.set(std::string("serve.handle_miss_us.") + metric,
              median_us(metric == std::string("navigate") ? 9 : 41,
                        [&](int i) {
                          const std::string req = make(i);
                          Scope s(tracer, std::string("serve.handle.") +
                                              metric, i);
                          (void)svc.handle(req);
                        }));
      };
      miss("min_energy",
           [&](int i) { return nbody_min_energy(8e6 + i); });
      miss("min_energy_given_time", [&](int i) {
        return mm_min_energy_given_time(9e4 + i, 50.0 * u(rng));
      });
      miss("evaluate", [&](int i) {
        return nbody_evaluate(9e6 + i, 128.0, 1e5 * u(rng));
      });
      miss("experiment",
           [&](int i) { return experiment(opt.seed * 7919 + 1000000000ULL +
                                         static_cast<std::uint64_t>(i)); });
      miss("navigate", [&](int i) { return navigate(9e6 + i); });

      // Queueing and head-of-line blocking: the operating step's requests
      // replayed in order through a fresh in-process service holding the
      // same hot set; end-to-end latency minus handle time.
      serve::QueryService replay;
      for (const std::string& h : sched.hot) (void)replay.handle(h);
      std::vector<double> wait_p99;
      for (int round = 0; round < rounds; ++round) {
        const std::vector<Request>& reqs = op_segment(round);
        const Segment& g = op.segments[static_cast<std::size_t>(round)];
        std::vector<double> wait_ms;
        for (std::size_t i = 0; i < reqs.size(); ++i) {
          const auto t0 = Clock::now();
          {
            Scope s(tracer, "serve.handle.replay",
                    static_cast<std::int64_t>(i));
            (void)replay.handle(reqs[i].body);
          }
          wait_ms.push_back(g.latency_ms[i] - seconds_since(t0) * 1e3);
        }
        wait_p99.push_back(quantile(wait_ms, 0.99));
      }
      r.set("serve.wait_ms_p99", median(wait_p99));

      // Hot socket round trip, closed loop, minus the in-process hit time.
      Conn& c = *served.conns[0];
      std::vector<double> rtt;
      for (int i = 0; i < 2001; ++i) {
        Scope s(tracer, "serve.rtt", i);
        const auto t0 = Clock::now();
        warm(c, {hit});
        rtt.push_back(seconds_since(t0) * 1e6);
      }
      r.set("serve.rtt_us", median(rtt) - r.metrics["serve.handle_hit_us"]);
    }
    double count = 0.0, hits = 0.0;
    const json::Value stats = served.service->stats_json();
    for (const auto& [kind, cs] : stats.at("classes").as_object()) {
      count += cs.at("count").as_double();
      hits += cs.at("answer_hits").as_double();
    }
    r.set("serve.answer_hit_ratio", count > 0 ? hits / count : 0.0);
    r.set("bench.gen_lag_p99_ms", op.lag_p99());
    r.set("bench.trace_overhead_s",
          wall - (untraced_op.last_done - untraced_op.first_due));
    r.set("bench.trace_overhead_p50_ms",
          op.p(0.5) - quantile(untraced_op.latency_ms, 0.5));
    tracer->close(root);
    report_self_times(*tracer, opt.workload, r);
  }
  served.reset();
  r.set("peak_rss_mb", peak_rss_mib(false));
  return r;
}

}  // namespace perfbench
