#include "engine/job.hpp"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <climits>
#include <cmath>
#include <initializer_list>

#include "support/common.hpp"

namespace alge::engine {

namespace {

constexpr struct {
  Alg alg;
  std::string_view name;
} kAlgNames[] = {
    {Alg::kMm25d, "mm25d"},
    {Alg::kSumma, "summa"},
    {Alg::kCaps, "caps"},
    {Alg::kNBody, "nbody"},
    {Alg::kLu, "lu"},
    {Alg::kFft, "fft"},
    {Alg::kTsqr, "tsqr"},
    {Alg::kCollBcast, "coll_bcast"},
    {Alg::kCollReduce, "coll_reduce"},
    {Alg::kCollAllgather, "coll_allgather"},
    {Alg::kCollA2aDirect, "coll_a2a_direct"},
    {Alg::kCollA2aBruck, "coll_a2a_bruck"},
};

[[noreturn]] void refuse(std::string_view key, const char* want) {
  throw invalid_argument_error(strfmt("\"%.*s\" must be %s",
                                      static_cast<int>(key.size()),
                                      key.data(), want));
}

/// Refuses every key of object `v` outside `known`.
void require_known_keys(const json::Value& v,
                        std::initializer_list<std::string_view> known,
                        const char* where) {
  for (const auto& [key, val] : v.as_object()) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      throw invalid_argument_error(
          strfmt("unknown key \"%s\" in %s", key.c_str(), where));
    }
  }
}

int get_int(const json::Value& v, std::string_view key) {
  const json::Value& x = v.at(key);
  if (x.is_number()) {
    const double d = x.as_double();
    // Range first: converting a double outside int range is undefined.
    if (d >= INT_MIN && d <= INT_MAX && d == std::trunc(d)) {
      return static_cast<int>(d);
    }
  }
  refuse(key, "an integral number in int range");
}

/// A word count from a cached result: an integral number in [0, 2^53],
/// the range a double holds exactly. Anything else is a json_error, so a
/// damaged cache entry reads as corrupt rather than reaching a cast to
/// size_t that is undefined out of range.
std::size_t get_count(const json::Value& v, std::string_view key) {
  const double d = v.at(key).as_double();
  if (d >= 0.0 && d <= 0x1p53 && d == std::trunc(d)) {
    return static_cast<std::size_t>(d);
  }
  throw json::json_error(strfmt("\"%.*s\" must be an integral count in "
                                "[0, 2^53]",
                                static_cast<int>(key.size()), key.data()));
}

std::uint64_t get_seed(const json::Value& v, std::string_view key) {
  const json::Value& x = v.at(key);
  if (x.is_string()) {
    const std::string& s = x.as_string();
    std::uint64_t seed = 0;
    const char* end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, seed);
    if (ec == std::errc{} && ptr == end) return seed;
  }
  refuse(key, "a decimal string of a 64-bit unsigned integer");
}

}  // namespace

json::Value machine_params_to_json(const core::MachineParams& mp) {
  json::Value o = json::Value::object();
  o.set("gamma_t", mp.gamma_t)
      .set("beta_t", mp.beta_t)
      .set("alpha_t", mp.alpha_t)
      .set("gamma_e", mp.gamma_e)
      .set("beta_e", mp.beta_e)
      .set("alpha_e", mp.alpha_e)
      .set("delta_e", mp.delta_e)
      .set("eps_e", mp.eps_e)
      .set("mem_words", mp.mem_words)
      .set("max_msg_words", mp.max_msg_words);
  return o;
}

core::MachineParams machine_params_from_json(const json::Value& v) {
  require_known_keys(v,
                     {"gamma_t", "beta_t", "alpha_t", "gamma_e", "beta_e",
                      "alpha_e", "delta_e", "eps_e", "mem_words",
                      "max_msg_words"},
                     "\"params\"");
  core::MachineParams mp;
  mp.gamma_t = v.at("gamma_t").as_double();
  mp.beta_t = v.at("beta_t").as_double();
  mp.alpha_t = v.at("alpha_t").as_double();
  mp.gamma_e = v.at("gamma_e").as_double();
  mp.beta_e = v.at("beta_e").as_double();
  mp.alpha_e = v.at("alpha_e").as_double();
  mp.delta_e = v.at("delta_e").as_double();
  mp.eps_e = v.at("eps_e").as_double();
  mp.mem_words = v.at("mem_words").as_double();
  mp.max_msg_words = v.at("max_msg_words").as_double();
  return mp;
}

std::string_view to_string(Alg alg) {
  for (const auto& e : kAlgNames) {
    if (e.alg == alg) return e.name;
  }
  ALGE_CHECK(false, "unnamed Alg value %d", static_cast<int>(alg));
  return {};
}

Alg alg_from_string(std::string_view name) {
  for (const auto& e : kAlgNames) {
    if (e.name == name) return e.alg;
  }
  throw invalid_argument_error(
      strfmt("unknown algorithm \"%.*s\"", static_cast<int>(name.size()),
             name.data()));
}

json::Value ExperimentSpec::to_json() const {
  json::Value o = json::Value::object();
  o.set("alg", std::string(to_string(alg)))
      .set("n", n)
      .set("q", q)
      .set("c", c)
      .set("p", p)
      .set("k", k)
      .set("nb", nb)
      .set("r_dim", r_dim)
      .set("c_dim", c_dim)
      .set("payload_words", payload_words)
      .set("ring_replication", ring_replication)
      .set("caps_schedule", caps_schedule)
      .set("caps_cutoff", caps_cutoff)
      .set("fft_bruck", fft_bruck)
      .set("verify", verify)
      // Decimal string: a double could not hold every 64-bit seed exactly.
      .set("seed", strfmt("%" PRIu64, seed))
      .set("params", machine_params_to_json(params));
  // Chaos/data-mode axes only when active: the canonical encoding of every
  // pre-existing spec — and therefore its cache key — is unchanged.
  if (chaos_seed != 0) o.set("chaos_seed", strfmt("%" PRIu64, chaos_seed));
  if (!fault_plan.empty()) o.set("fault_plan", fault_plan);
  if (data_mode == sim::DataMode::kGhost) o.set("data_mode", "ghost");
  if (exec_mode == sim::ExecMode::kFolded) o.set("exec_mode", "folded");
  return o;
}

ExperimentSpec ExperimentSpec::from_json(const json::Value& v) {
  require_known_keys(
      v,
      {"alg", "n", "q", "c", "p", "k", "nb", "r_dim", "c_dim",
       "payload_words", "ring_replication", "caps_schedule", "caps_cutoff",
       "fft_bruck", "verify", "seed", "params", "chaos_seed", "fault_plan",
       "data_mode", "exec_mode"},
      "experiment spec");
  ExperimentSpec s;
  s.alg = alg_from_string(v.at("alg").as_string());
  s.n = get_int(v, "n");
  s.q = get_int(v, "q");
  s.c = get_int(v, "c");
  s.p = get_int(v, "p");
  s.k = get_int(v, "k");
  s.nb = get_int(v, "nb");
  s.r_dim = get_int(v, "r_dim");
  s.c_dim = get_int(v, "c_dim");
  s.payload_words = get_int(v, "payload_words");
  s.ring_replication = v.at("ring_replication").as_bool();
  s.caps_schedule = v.at("caps_schedule").as_string();
  s.caps_cutoff = get_int(v, "caps_cutoff");
  s.fft_bruck = v.at("fft_bruck").as_bool();
  s.verify = v.at("verify").as_bool();
  s.seed = get_seed(v, "seed");
  s.params = machine_params_from_json(v.at("params"));
  if (v.find("chaos_seed") != nullptr) {
    s.chaos_seed = get_seed(v, "chaos_seed");
  }
  if (const json::Value* fp = v.find("fault_plan"); fp != nullptr) {
    s.fault_plan = fp->as_string();
  }
  if (const json::Value* dm = v.find("data_mode"); dm != nullptr) {
    const std::string& mode = dm->as_string();
    if (mode == "ghost") {
      s.data_mode = sim::DataMode::kGhost;
    } else {
      ALGE_REQUIRE(mode == "full", "unknown data_mode \"%s\"", mode.c_str());
    }
  }
  if (const json::Value* em = v.find("exec_mode"); em != nullptr) {
    const std::string& mode = em->as_string();
    if (mode == "folded") {
      s.exec_mode = sim::ExecMode::kFolded;
    } else {
      ALGE_REQUIRE(mode == "fibers", "unknown exec_mode \"%s\"",
                   mode.c_str());
    }
  }
  return s;
}

json::Value ExperimentResult::to_json() const {
  json::Value t = json::Value::object();
  t.set("flops_total", totals.flops_total)
      .set("words_total", totals.words_total)
      .set("msgs_total", totals.msgs_total)
      .set("words_hops_total", totals.words_hops_total)
      .set("msgs_hops_total", totals.msgs_hops_total)
      .set("flops_max", totals.flops_max)
      .set("words_sent_max", totals.words_sent_max)
      .set("msgs_sent_max", totals.msgs_sent_max)
      .set("mem_highwater_max", totals.mem_highwater_max)
      .set("mem_highwater_total", totals.mem_highwater_total);
  json::Value e = json::Value::object();
  e.set("flops", energy.flops)
      .set("words", energy.words)
      .set("messages", energy.messages)
      .set("memory", energy.memory)
      .set("leakage", energy.leakage);
  json::Value o = json::Value::object();
  o.set("p", p)
      .set("makespan", makespan)
      .set("totals", std::move(t))
      .set("energy", std::move(e))
      .set("max_abs_error", max_abs_error)
      .set("verified", verified);
  if (fold_slots != 0) o.set("fold_slots", fold_slots);
  return o;
}

ExperimentResult ExperimentResult::from_json(const json::Value& v) {
  ExperimentResult r;
  r.p = get_int(v, "p");
  r.makespan = v.at("makespan").as_double();
  const json::Value& t = v.at("totals");
  r.totals.flops_total = t.at("flops_total").as_double();
  r.totals.words_total = t.at("words_total").as_double();
  r.totals.msgs_total = t.at("msgs_total").as_double();
  r.totals.words_hops_total = t.at("words_hops_total").as_double();
  r.totals.msgs_hops_total = t.at("msgs_hops_total").as_double();
  r.totals.flops_max = t.at("flops_max").as_double();
  r.totals.words_sent_max = t.at("words_sent_max").as_double();
  r.totals.msgs_sent_max = t.at("msgs_sent_max").as_double();
  r.totals.mem_highwater_max = get_count(t, "mem_highwater_max");
  r.totals.mem_highwater_total = get_count(t, "mem_highwater_total");
  const json::Value& e = v.at("energy");
  r.energy.flops = e.at("flops").as_double();
  r.energy.words = e.at("words").as_double();
  r.energy.messages = e.at("messages").as_double();
  r.energy.memory = e.at("memory").as_double();
  r.energy.leakage = e.at("leakage").as_double();
  r.max_abs_error = v.at("max_abs_error").as_double();
  r.verified = v.at("verified").as_bool();
  if (v.find("fold_slots") != nullptr) {
    r.fold_slots = get_int(v, "fold_slots");
  }
  return r;
}

}  // namespace alge::engine
