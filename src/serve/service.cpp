#include "serve/service.hpp"

#include <bit>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <utility>

#include "core/algmodel.hpp"
#include "core/codesign.hpp"
#include "core/opt.hpp"
#include "engine/job.hpp"
#include "engine/runner.hpp"
#include "machines/db.hpp"
#include "navigator/navigator.hpp"
#include "support/common.hpp"

namespace alge::serve {

namespace {

double require_positive(const json::Value& req, const char* key) {
  const double x = req.at(key).as_double();
  ALGE_REQUIRE(std::isfinite(x) && x > 0.0, "\"%s\" must be positive", key);
  return x;
}

double optional_double(const json::Value& req, const char* key, double def) {
  const json::Value* v = req.find(key);
  return v == nullptr ? def : v->as_double();
}

std::unique_ptr<core::AlgModel> make_model(const json::Value& req) {
  const std::string& name = req.at("model").as_string();
  if (name == "nbody") {
    return std::make_unique<core::NBodyModel>(optional_double(req, "f", 1.0));
  }
  if (name == "classical-mm") {
    return std::make_unique<core::ClassicalMatmulModel>();
  }
  if (name == "strassen") {
    return std::make_unique<core::StrassenModel>(optional_double(
        req, "omega0", core::StrassenModel::kStrassenOmega));
  }
  if (name == "lu-2.5d") return std::make_unique<core::LuModel>();
  if (name == "fft-naive") {
    return std::make_unique<core::FftModel>(core::FftModel::AllToAll::kNaive);
  }
  if (name == "fft-tree") {
    return std::make_unique<core::FftModel>(core::FftModel::AllToAll::kTree);
  }
  throw invalid_argument_error(
      strfmt("unknown model \"%s\"", name.c_str()));
}

core::MachineParams resolve_machine(const json::Value& req) {
  if (const json::Value* params = req.find("params"); params != nullptr) {
    core::MachineParams mp = engine::machine_params_from_json(*params);
    mp.validate();
    return mp;
  }
  const json::Value* machine = req.find("machine");
  const std::string name =
      machine == nullptr ? "case-study" : machine->as_string();
  if (name == "case-study") {
    core::MachineParams mp = machines::CaseStudyMachine{}.params();
    // The optimizer chooses M; limits.M_cap (not the socket's DIMM count)
    // bounds it — exactly bench/sec5_optimizer's setup, which the CI smoke
    // cross-checks against.
    mp.mem_words = 0.0;
    return mp;
  }
  if (name == "unit") return core::MachineParams::unit();
  throw invalid_argument_error(
      strfmt("unknown machine \"%s\" (use \"case-study\", \"unit\", or an "
             "explicit \"params\" object)",
             name.c_str()));
}

core::OptLimits resolve_limits(const json::Value& req) {
  core::OptLimits lim;
  if (const json::Value* limits = req.find("limits"); limits != nullptr) {
    lim.p_available =
        optional_double(*limits, "p_available", lim.p_available);
    lim.M_cap = optional_double(*limits, "M_cap", lim.M_cap);
    ALGE_REQUIRE(lim.p_available >= 1.0 && lim.M_cap > 0.0,
                 "bad limits: p_available=%g M_cap=%g", lim.p_available,
                 lim.M_cap);
  }
  return lim;
}

core::ParamScaleSpec scale_from_string(const std::string& s) {
  if (s == "all") return core::ParamScaleSpec::all();
  if (s == "gamma_e") return core::ParamScaleSpec::only_gamma_e();
  if (s == "beta_e") return core::ParamScaleSpec::only_beta_e();
  if (s == "alpha_e") return core::ParamScaleSpec::only_alpha_e();
  if (s == "delta_e") return core::ParamScaleSpec::only_delta_e();
  if (s == "eps_e") return core::ParamScaleSpec{false, false, false, false,
                                                true};
  throw invalid_argument_error(
      strfmt("unknown scale spec \"%s\"", s.c_str()));
}

json::Value run_point_json(const core::RunPoint& pt) {
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

/// Overlay `over` onto `base`, member by member; objects merge recursively
/// (for the nested "params"), everything else is replaced. Keys only in
/// `over` append after `base`'s, preserving canonical field order for the
/// fields the cache key is built from.
json::Value merge_objects(const json::Value& base, const json::Value& over) {
  json::Value out = json::Value::object();
  for (const auto& [key, val] : base.as_object()) {
    const json::Value* o = over.find(key);
    if (o == nullptr) {
      out.set(key, val);
    } else if (val.is_object() && o->is_object()) {
      out.set(key, merge_objects(val, *o));
    } else {
      out.set(key, *o);
    }
  }
  for (const auto& [key, val] : over.as_object()) {
    if (base.find(key) == nullptr) out.set(key, val);
  }
  return out;
}

/// Partial spec JSON → full ExperimentSpec: absent fields take the
/// default-constructed spec's values, and data_mode defaults to GHOST (the
/// service exists to make sim-backed answers cheap; callers wanting a
/// full-data run say {"data_mode": "full"} explicitly).
engine::ExperimentSpec spec_from_request(const json::Value& spec_json) {
  ALGE_REQUIRE(spec_json.is_object(), "\"spec\" must be a JSON object");
  json::Value merged =
      merge_objects(engine::ExperimentSpec{}.to_json(), spec_json);
  if (spec_json.find("data_mode") == nullptr) {
    merged.set("data_mode", "ghost");
  }
  return engine::ExperimentSpec::from_json(merged);
}

json::Value run_codesign(const json::Value& req, const core::AlgModel& model,
                         double n, const core::MachineParams& mp,
                         const core::OptLimits& lim) {
  const core::Optimizer solver(model, n, mp);
  const core::RunPoint best = solver.minimize_energy(lim);
  ALGE_REQUIRE(best.feasible, "codesign: no feasible min-energy point");
  const double target = require_positive(req, "target_gflops_per_watt");
  const json::Value* scale = req.find("scale");
  const core::ParamScaleSpec which =
      scale_from_string(scale == nullptr ? "all" : scale->as_string());
  const double factor = optional_double(req, "factor", 0.5);
  ALGE_REQUIRE(factor > 0.0 && factor < 1.0, "\"factor\" must be in (0,1)");
  const int max_gen =
      static_cast<int>(optional_double(req, "max_generations", 40.0));
  ALGE_REQUIRE(max_gen >= 1, "\"max_generations\" must be >= 1");
  json::Value o = json::Value::object();
  o.set("p", best.p)
      .set("M", best.M)
      .set("gflops_per_watt", core::gflops_per_watt(model, n, best.p, best.M,
                                                    mp))
      .set("target_gflops_per_watt", target)
      .set("scale", which.label())
      .set("per_generation_factor", factor)
      .set("generations",
           core::generations_to_target(model, n, best.p, best.M, mp, which,
                                       target, max_gen, factor));
  return o;
}

/// "navigate" query → navigator::NavRequest. Reuses the closed-form
/// queries' model/machine/limits conventions; budgets and the sim-stage
/// knobs come from optional fields of the same names tools/navigator uses.
/// The engine result cache is the service's own (cache_dir), so navigate
/// queries and "experiment" queries share simulations; threads is pinned
/// to 1 because the server already parallelizes across worker threads.
json::Value run_navigate(const json::Value& req,
                         const std::string& cache_dir) {
  navigator::NavRequest nr;
  nr.model = req.at("model").as_string();
  nr.n = require_positive(req, "n");
  nr.f = optional_double(req, "f", nr.f);
  nr.omega0 = optional_double(req, "omega0", nr.omega0);
  nr.params = resolve_machine(req);
  nr.limits = resolve_limits(req);
  if (const json::Value* b = req.find("budgets"); b != nullptr) {
    ALGE_REQUIRE(b->is_object(), "\"budgets\" must be a JSON object");
    if (const json::Value* v = b->find("t_max")) {
      nr.budgets.t_max = v->as_double();
    }
    if (const json::Value* v = b->find("e_max")) {
      nr.budgets.e_max = v->as_double();
    }
    if (const json::Value* v = b->find("total_power_max")) {
      nr.budgets.total_power_max = v->as_double();
    }
    if (const json::Value* v = b->find("proc_power_max")) {
      nr.budgets.proc_power_max = v->as_double();
    }
  }
  nr.p_samples = static_cast<int>(
      optional_double(req, "p_samples", nr.p_samples));
  nr.m_samples = static_cast<int>(
      optional_double(req, "m_samples", nr.m_samples));
  if (const json::Value* caps = req.find("msg_caps"); caps != nullptr) {
    for (const json::Value& c : caps->as_array()) {
      nr.msg_caps.push_back(c.as_double());
    }
  }
  if (const json::Value* s = req.find("simulate"); s != nullptr) {
    nr.simulate = s->as_bool();
  }
  nr.sim_n = static_cast<int>(optional_double(req, "sim_n", nr.sim_n));
  nr.sim_points =
      static_cast<int>(optional_double(req, "sim_points", nr.sim_points));
  if (const json::Value* plans = req.find("fault_plans"); plans != nullptr) {
    nr.fault_plans.clear();
    for (const json::Value& p : plans->as_array()) {
      nr.fault_plans.push_back(p.as_string());
    }
  }
  nr.chaos_seed = static_cast<std::uint64_t>(
      optional_double(req, "chaos_seed", static_cast<double>(nr.chaos_seed)));
  nr.crossover_target_gflops_per_watt =
      optional_double(req, "target_gflops_per_watt",
                      nr.crossover_target_gflops_per_watt);
  nr.cache_dir = cache_dir;
  nr.threads = 1;
  return navigator::navigate(nr).to_json();
}

}  // namespace

struct QueryService::InFlight {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  bool failed = false;
  std::string error;
  std::string kind;
  std::shared_ptr<const std::string> response;          ///< byte-level
  std::shared_ptr<engine::ExperimentResult> result;     ///< spec-level
};

double ClassStats::quantile_us(double q) const {
  std::uint64_t total = 0;
  for (const std::uint64_t b : latency_ns_log2) total += b;
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  std::uint64_t cum = 0;
  for (int i = 0; i < 64; ++i) {
    cum += latency_ns_log2[i];
    if (static_cast<double>(cum) >= target) {
      // Geometric midpoint of [2^i, 2^(i+1)) ns, in µs.
      return std::exp2(i) * 1.4142135623730951e-3;
    }
  }
  return std::exp2(63) * 1e-3;
}

QueryService::QueryService(ServiceOptions opts)
    : opts_(std::move(opts)), result_cache_(opts_.cache_dir) {
  ALGE_REQUIRE(opts_.host_watts >= 0.0, "host_watts must be >= 0");
}

std::shared_ptr<const std::string> QueryService::handle(
    std::string_view request, int lane) {
  const auto t0 = obs::SpanLog::Clock::now();
  const std::uint64_t key = engine::fnv1a64(request);

  auto finish = [&](const std::string& kind,
                    const std::shared_ptr<const std::string>& resp,
                    bool cached, bool ok) {
    const auto t1 = obs::SpanLog::Clock::now();
    note(kind, std::chrono::duration<double>(t1 - t0).count(), cached, ok);
    if (opts_.spans != nullptr) {
      opts_.spans->record(kind, lane, t0, t1, cached);
    }
    return resp;
  };

  // Hot path: content-addressed answer store, no JSON parsing.
  {
    std::shared_lock lock(answer_mu_);
    if (const auto it = answers_.find(key);
        it != answers_.end() && it->second.request == request) {
      // Second chance: mark the entry hot so the eviction hand skips it.
      it->second.referenced->store(true, std::memory_order_relaxed);
      return finish(it->second.kind, it->second.response, /*cached=*/true,
                    /*ok=*/true);
    }
  }

  // Byte-level coalescing: identical concurrent requests compute once.
  std::shared_ptr<InFlight> fl;
  bool owner = false;
  {
    std::lock_guard lock(inflight_mu_);
    if (const auto it = inflight_.find(request); it == inflight_.end()) {
      fl = std::make_shared<InFlight>();
      inflight_.emplace(std::string(request), fl);
      owner = true;
    } else {
      fl = it->second;
    }
  }
  if (!owner) {
    std::unique_lock l(fl->mu);
    fl->cv.wait(l, [&] { return fl->done; });
    auto resp = fl->response;
    const std::string kind = fl->kind;
    const bool ok = !fl->failed;
    l.unlock();
    {
      std::lock_guard lock(ledger_mu_);
      ++coalesced_;
    }
    return finish(kind, resp, /*cached=*/true, ok);
  }

  std::string kind_label = "unparsed";
  bool cacheable = false;
  bool ok = false;
  auto resp = compute(request, &kind_label, &cacheable, &ok);

  bool evicted = false;
  if (ok && cacheable && opts_.answer_cache_cap > 0) {
    std::unique_lock lock(answer_mu_);
    const auto it = answers_.find(key);
    if (it != answers_.end()) {
      // Hash hit with different bytes (collision) or a racing refresh:
      // overwrite in place; the key keeps its ring slot.
      it->second.request = std::string(request);
      it->second.kind = kind_label;
      it->second.response = resp;
    } else {
      if (answers_.size() >= opts_.answer_cache_cap) {
        evict_one_locked();
        evicted = true;
      }
      answers_.emplace(
          key, Answer{std::string(request), kind_label, resp,
                      std::make_unique<std::atomic<bool>>(false)});
      clock_keys_.push_back(key);
    }
  }
  if (evicted) {
    std::lock_guard lock(ledger_mu_);
    ++answer_evictions_;
  }

  {
    std::lock_guard l(fl->mu);
    fl->response = resp;
    fl->kind = kind_label;
    fl->failed = !ok;
    fl->done = true;
  }
  fl->cv.notify_all();
  {
    std::lock_guard lock(inflight_mu_);
    inflight_.erase(inflight_.find(request));
  }

  return finish(kind_label, resp, /*cached=*/false, ok);
}

std::shared_ptr<const std::string> QueryService::compute(
    std::string_view request, std::string* kind_label, bool* cacheable,
    bool* ok) {
  json::Value resp = json::Value::object();
  *ok = false;
  *cacheable = false;
  try {
    const json::Value req = json::parse(request);
    ALGE_REQUIRE(req.is_object(), "request must be a JSON object");
    if (const json::Value* id = req.find("id"); id != nullptr) {
      resp.set("id", *id);
    }
    const std::string& kind = req.at("kind").as_string();
    *kind_label = kind;
    json::Value answer = dispatch(req, kind, cacheable);
    resp.set("ok", true).set("kind", kind).set("answer", std::move(answer));
    *ok = true;
  } catch (const std::exception& e) {
    resp.set("ok", false).set("error", std::string(e.what()));
    *cacheable = false;
  }
  return std::make_shared<const std::string>(resp.dump());
}

json::Value QueryService::dispatch(const json::Value& req,
                                   const std::string& kind,
                                   bool* cacheable) {
  *cacheable = true;
  if (kind == "ping") {
    *cacheable = false;
    return json::Value("pong");
  }
  if (kind == "stats") {
    *cacheable = false;
    return stats_json();
  }
  if (kind == "experiment") return run_experiment(req);
  if (kind == "navigate") return run_navigate(req, opts_.cache_dir);
  if (kind == "batch") {
    // The batch frame itself is never cached: each element re-enters
    // handle(), so the answer store, both coalescers and the ledger see
    // every element individually — a repeated spec hits per-spec whether
    // it arrives alone or inside a batch.
    *cacheable = false;
    return run_batch(req);
  }

  // Reject unknown kinds before demanding closed-form fields, so the
  // error names the actual problem.
  const bool closed_form =
      kind == "min_energy" || kind == "min_time" ||
      kind == "min_energy_given_time" || kind == "min_time_given_energy" ||
      kind == "min_time_given_total_power" ||
      kind == "min_energy_given_total_power" ||
      kind == "min_time_given_proc_power" ||
      kind == "min_energy_given_proc_power" || kind == "evaluate" ||
      kind == "codesign";
  if (!closed_form) {
    throw invalid_argument_error(
        strfmt("unknown query kind \"%s\"", kind.c_str()));
  }

  // Closed-form fast path: the same core::Optimizer a direct caller uses.
  const std::unique_ptr<core::AlgModel> model = make_model(req);
  const double n = require_positive(req, "n");
  const core::MachineParams mp = resolve_machine(req);
  const core::OptLimits lim = resolve_limits(req);
  if (kind == "codesign") return run_codesign(req, *model, n, mp, lim);

  const core::Optimizer solver(*model, n, mp);
  core::RunPoint pt;
  if (kind == "min_energy") {
    pt = solver.minimize_energy(lim);
  } else if (kind == "min_time") {
    pt = solver.minimize_time(lim);
  } else if (kind == "min_energy_given_time") {
    pt = solver.min_energy_given_time(require_positive(req, "t_max"), lim);
  } else if (kind == "min_time_given_energy") {
    pt = solver.min_time_given_energy(require_positive(req, "e_max"), lim);
  } else if (kind == "min_time_given_total_power") {
    pt = solver.min_time_given_total_power(
        require_positive(req, "power_max"), lim);
  } else if (kind == "min_energy_given_total_power") {
    pt = solver.min_energy_given_total_power(
        require_positive(req, "power_max"), lim);
  } else if (kind == "min_time_given_proc_power") {
    pt = solver.min_time_given_proc_power(
        require_positive(req, "proc_power_max"), lim);
  } else if (kind == "min_energy_given_proc_power") {
    pt = solver.min_energy_given_proc_power(
        require_positive(req, "proc_power_max"), lim);
  } else {
    pt = solver.evaluate(require_positive(req, "p"),
                         require_positive(req, "M"));
  }
  return run_point_json(pt);
}

json::Value QueryService::run_batch(const json::Value& req) {
  const json::Value* queries = req.find("queries");
  ALGE_REQUIRE(queries != nullptr && queries->is_array(),
               "batch query needs a \"queries\" array");
  const json::Value::Array& arr = queries->as_array();
  ALGE_REQUIRE(!arr.empty(), "batch \"queries\" must be non-empty");
  for (const json::Value& q : arr) {
    ALGE_REQUIRE(q.is_object(), "batch elements must be JSON objects");
    const json::Value* kind = q.find("kind");
    ALGE_REQUIRE(kind == nullptr || !kind->is_string() ||
                     kind->as_string() != "batch",
                 "batch queries cannot nest");
  }
  // One response element per query, in order. Element failures stay
  // element-local ({"ok": false} in place), matching the one-frame case.
  json::Value out = json::Value::array();
  for (const json::Value& q : arr) {
    const std::shared_ptr<const std::string> resp = handle(q.dump());
    out.push_back(json::parse(*resp));
  }
  return out;
}

json::Value QueryService::run_experiment(const json::Value& req) {
  const json::Value* spec_json = req.find("spec");
  ALGE_REQUIRE(spec_json != nullptr,
               "experiment query needs a \"spec\" object");
  const engine::ExperimentSpec spec = spec_from_request(*spec_json);

  // Spec-level coalescing: requests that differ as bytes (ids, field
  // order, defaulted fields) but name the same simulation share one run.
  // The slot is claimed before the result cache is consulted, so only the
  // owner looks up (one miss per simulation, however many callers wait).
  const std::string key = spec.canonical_json();
  std::shared_ptr<InFlight> fl;
  bool owner = false;
  {
    std::lock_guard lock(spec_inflight_mu_);
    if (const auto it = spec_inflight_.find(key);
        it == spec_inflight_.end()) {
      fl = std::make_shared<InFlight>();
      spec_inflight_.emplace(key, fl);
      owner = true;
    } else {
      fl = it->second;
    }
  }
  if (!owner) {
    std::unique_lock l(fl->mu);
    fl->cv.wait(l, [&] { return fl->done; });
    if (fl->failed) {
      const std::string err = fl->error;
      l.unlock();
      throw invalid_argument_error(err);
    }
    const json::Value out = fl->result->to_json();
    l.unlock();
    {
      std::lock_guard lock(ledger_mu_);
      ++spec_coalesced_;
    }
    return out;
  }

  auto publish = [&](bool failed, const std::string& error,
                     std::shared_ptr<engine::ExperimentResult> result) {
    {
      std::lock_guard l(fl->mu);
      fl->failed = failed;
      fl->error = error;
      fl->result = std::move(result);
      fl->done = true;
    }
    fl->cv.notify_all();
    std::lock_guard lock(spec_inflight_mu_);
    spec_inflight_.erase(key);
  };

  try {
    std::shared_ptr<engine::ExperimentResult> result;
    if (auto cached = result_cache_.lookup(spec)) {
      result = std::make_shared<engine::ExperimentResult>(std::move(*cached));
    } else {
      result = std::make_shared<engine::ExperimentResult>(
          engine::execute(spec));
      result_cache_.store(spec, *result);
    }
    const json::Value out = result->to_json();
    publish(false, "", std::move(result));
    return out;
  } catch (const std::exception& e) {
    publish(true, e.what(), nullptr);
    throw;
  }
}

void QueryService::evict_one_locked() {
  // Second-chance sweep: a set referenced bit buys one more lap. The
  // caller holds answer_mu_ exclusively, so no hit can re-mark an entry
  // mid-sweep — after one full clearing lap the next candidate must be
  // cold, bounding the scan at two laps.
  for (std::size_t step = 0; step <= 2 * clock_keys_.size(); ++step) {
    if (clock_hand_ >= clock_keys_.size()) clock_hand_ = 0;
    const std::uint64_t k = clock_keys_[clock_hand_];
    const auto it = answers_.find(k);
    if (it == answers_.end()) {
      // Stale ring slot (defensive; structural changes keep the ring in
      // sync): compact it and retry the same position.
      clock_keys_[clock_hand_] = clock_keys_.back();
      clock_keys_.pop_back();
      continue;
    }
    if (it->second.referenced->exchange(false, std::memory_order_relaxed)) {
      ++clock_hand_;
      continue;
    }
    answers_.erase(it);
    clock_keys_[clock_hand_] = clock_keys_.back();
    clock_keys_.pop_back();
    return;
  }
  ALGE_CHECK(false, "second-chance sweep failed to evict (%zu entries)",
             answers_.size());
}

void QueryService::note(const std::string& kind, double seconds, bool hit,
                        bool ok) {
  std::lock_guard lock(ledger_mu_);
  ClassStats& cs = ledger_[kind];
  ++cs.count;
  if (hit) ++cs.answer_hits;
  if (!ok) ++cs.errors;
  cs.busy_seconds += seconds;
  const double us = seconds * 1e6;
  if (us > cs.max_us) cs.max_us = us;
  const auto ns = static_cast<std::uint64_t>(seconds * 1e9);
  const int bucket = ns == 0 ? 0 : std::bit_width(ns) - 1;
  ++cs.latency_ns_log2[bucket < 64 ? bucket : 63];
}

json::Value QueryService::stats_json() const {
  json::Value classes = json::Value::object();
  std::uint64_t coalesced = 0;
  std::uint64_t spec_coalesced = 0;
  std::uint64_t answer_evictions = 0;
  {
    std::lock_guard lock(ledger_mu_);
    for (const auto& [kind, cs] : ledger_) {
      json::Value c = json::Value::object();
      c.set("count", cs.count)
          .set("answer_hits", cs.answer_hits)
          .set("errors", cs.errors)
          .set("busy_seconds", cs.busy_seconds)
          .set("energy_of_serving_j", cs.busy_seconds * opts_.host_watts)
          .set("p50_us", cs.quantile_us(0.5))
          .set("p99_us", cs.quantile_us(0.99))
          .set("max_us", cs.max_us);
      classes.set(kind, std::move(c));
    }
    coalesced = coalesced_;
    spec_coalesced = spec_coalesced_;
    answer_evictions = answer_evictions_;
  }
  std::size_t answer_entries = 0;
  {
    std::shared_lock lock(answer_mu_);
    answer_entries = answers_.size();
  }
  const engine::ResultCache::Stats rc = result_cache_.stats();
  json::Value cache = json::Value::object();
  cache.set("hits", rc.hits)
      .set("disk_hits", rc.disk_hits)
      .set("misses", rc.misses)
      .set("corrupt", rc.corrupt);
  json::Value o = json::Value::object();
  o.set("classes", std::move(classes))
      .set("coalesced", coalesced)
      .set("spec_coalesced", spec_coalesced)
      .set("answer_store_entries", answer_entries)
      .set("answer_evictions", answer_evictions)
      .set("host_watts", opts_.host_watts)
      .set("result_cache", std::move(cache));
  return o;
}

}  // namespace alge::serve
