// Shared bits for the bench executables: a uniform banner so
// bench_output.txt is self-describing, the engine and observability flags
// (--threads, --trace-out, ...) for the engine-driven benches, and the one
// writer of the tracked bench files (--bench-json).
#pragma once

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "engine/runner.hpp"
#include "obs/bench_metrics.hpp"
#include "obs/chrome_trace.hpp"
#include "support/cli.hpp"
#include "support/common.hpp"
#include "support/json.hpp"

namespace alge::bench {

inline void banner(const std::string& experiment_id,
                   const std::string& what) {
  std::printf("\n==== %s ====\n%s\n\n", experiment_id.c_str(), what.c_str());
}

/// One tracked bench file in the obs/bench_metrics.hpp schema, built row by
/// row. Each record declares its own gate: exact() for deterministic
/// values, wall() for the benching machine's times and rates.
class BenchJson {
 public:
  explicit BenchJson(std::string bench) { file_.bench = std::move(bench); }

  /// A deterministic simulated or model value (cost, count, model output):
  /// gated at obs::kExactTolerance against `better`.
  void exact(const std::string& name, const std::string& metric,
             double value, const char* unit,
             obs::Better better = obs::Better::kLower) {
    file_.records.push_back(
        {name, metric, value, unit, better, obs::Kind::kExact});
  }

  /// A wall-clock time (default) or rate: gated only by bench_diff --wall.
  void wall(const std::string& name, const std::string& metric, double value,
            const char* unit, obs::Better better = obs::Better::kLower) {
    file_.records.push_back(
        {name, metric, value, unit, better, obs::Kind::kWall});
  }

  /// Write the file to `path`, replacing it (empty = off).
  void write(const std::string& path) const {
    if (path.empty()) return;
    existing(path);
    write_file(path, file_);
  }

  /// Write to `path` (empty = off), keeping the records of every other
  /// name already there: the engine benches share one file, each replacing
  /// only its own rows.
  void merge_into(const std::string& path) const {
    if (path.empty()) return;
    obs::BenchFile merged = existing(path);
    std::set<std::string> mine;
    for (const obs::BenchRecord& r : file_.records) mine.insert(r.name);
    std::erase_if(merged.records, [&](const obs::BenchRecord& r) {
      return mine.count(r.name) > 0;
    });
    merged.records.insert(merged.records.end(), file_.records.begin(),
                          file_.records.end());
    write_file(path, merged);
  }

 private:
  /// The file already at `path` (none: no records). Both writers refuse,
  /// leaving it untouched, to overwrite a file that is not this bench's
  /// file in the schema: an unparseable file or another bench's.
  obs::BenchFile existing(const std::string& path) const {
    obs::BenchFile f;
    f.bench = file_.bench;
    if (!std::filesystem::exists(path)) return f;
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    try {
      f = obs::read_bench_file(json::parse(buf.str()));
    } catch (const std::exception& e) {
      ALGE_REQUIRE(false,
                   "--bench-json: refusing to overwrite %s, which is not a "
                   "bench file (%s)",
                   path.c_str(), e.what());
    }
    ALGE_REQUIRE(f.bench == file_.bench,
                 "--bench-json: refusing to overwrite %s, which holds bench "
                 "\"%s\", not \"%s\"",
                 path.c_str(), f.bench.c_str(), file_.bench.c_str());
    return f;
  }

  /// One record per line, so a changed value is a one-line git diff. The
  /// document goes through the reader first: a writer bug (a duplicate
  /// record) fails here, not in a later bench_diff.
  static void write_file(const std::string& path, const obs::BenchFile& f) {
    std::string text = "{\"bench\":" + json::Value(f.bench).dump() +
                       ",\"records\":[";
    for (std::size_t i = 0; i < f.records.size(); ++i) {
      const obs::BenchRecord& r = f.records[i];
      json::Value rec = json::Value::object();
      rec.set("name", r.name)
          .set("metric", r.metric)
          .set("value", r.value)
          .set("unit", r.unit)
          .set("better", obs::to_string(r.better))
          .set("kind", obs::to_string(r.kind));
      text += (i == 0 ? "\n" : ",\n") + rec.dump();
    }
    text += "\n]}\n";
    obs::read_bench_file(json::parse(text));
    std::ofstream out(path, std::ios::trunc);
    ALGE_REQUIRE(out.good(), "cannot write %s", path.c_str());
    out << text;
    std::fprintf(stderr, "[%s] wrote %s\n", f.bench.c_str(), path.c_str());
  }

  obs::BenchFile file_;
};

/// Declare --bench-json, the path a bench writes its tracked file to.
inline void add_bench_json_flag(CliArgs& cli) {
  cli.add_flag("bench-json", "",
               "write this bench's records (BENCH_*.json schema, "
               "obs/bench_metrics.hpp) to this path (empty = off)");
}

/// Declare the standard engine flags (--threads, --cache-dir, --progress,
/// --bench-json) on a bench binary's CLI.
inline void add_engine_flags(CliArgs& cli) {
  cli.add_flag("threads", "1",
               "worker threads for the experiment sweep (1 = serial)");
  cli.add_flag("cache-dir", "",
               "directory for the persistent result cache (empty = off)");
  cli.add_flag("progress", "false", "print sweep progress to stderr");
  add_bench_json_flag(cli);
}

/// SweepOptions from the flags of add_engine_flags(). --progress wires a
/// stderr progress printer.
inline engine::SweepOptions sweep_options_from_cli(const CliArgs& cli) {
  engine::SweepOptions opts;
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

/// Record the last sweep of `runner` as `bench_name`'s rows of the engine
/// bench file at `path` (--bench-json; empty = off): job counts as
/// context, the wall clock and its profile (engine::SweepProfile) as wall
/// metrics. Other benches' rows in the file are kept.
inline void write_engine_record(const std::string& bench_name,
                                const engine::SweepRunner& runner,
                                const std::string& path) {
  using obs::Better;
  const engine::SweepStats& s = runner.stats();
  const engine::SweepProfile& p = s.profile;
  BenchJson f("engine");
  f.exact(bench_name, "jobs", s.jobs, "jobs", Better::kNone);
  f.exact(bench_name, "cache_hits", s.cache_hits, "jobs", Better::kNone);
  f.exact(bench_name, "executed", s.executed, "jobs", Better::kNone);
  f.exact(bench_name, "threads", runner.options().threads, "threads",
          Better::kNone);
  f.wall(bench_name, "wall_seconds", s.wall_seconds, "s");
  f.wall(bench_name, "jobs_per_sec", s.jobs_per_sec, "1/s", Better::kHigher);
  f.wall(bench_name, "cache_lookup_seconds", p.cache_lookup_seconds, "s");
  f.wall(bench_name, "serialize_seconds", p.serialize_seconds, "s");
  f.wall(bench_name, "run_seconds", p.run_seconds, "s");
  f.wall(bench_name, "run_max_seconds", p.run_max_seconds, "s");
  f.wall(bench_name, "queue_wait_seconds", p.queue_wait_seconds, "s");
  f.wall(bench_name, "queue_wait_max_seconds", p.queue_wait_max_seconds,
         "s");
  f.wall(bench_name, "pool_busy_seconds", p.pool_busy_seconds, "s");
  f.wall(bench_name, "pool_occupancy", p.pool_occupancy, "ratio",
         Better::kHigher);
  f.merge_into(path);
}

/// Declare the observability flags on a bench binary's CLI. Callers that use
/// maybe_write_trace() must link alge_obs (and alge_engine).
inline void add_trace_flags(CliArgs& cli) {
  cli.add_flag("trace-out", "",
               "write a Chrome trace_event JSON of one representative run "
               "to this path, for chrome://tracing / Perfetto (empty = off)");
}

/// Declare the chaos axes (src/chaos) on a bench binary's CLI. Both are
/// inert by default; see EXPERIMENTS.md "Chaos flags".
inline void add_chaos_flags(CliArgs& cli) {
  cli.add_flag("chaos-seed", "0",
               "nonzero: permute the simulator's fiber wake order with this "
               "seed (results must be bit-identical; a difference is a "
               "determinism bug)");
  cli.add_flag("fault-plan", "",
               "run every spec under this bundled fault plan "
               "(delay|drop|duplicate|reorder|pause|mixed; empty = "
               "fault-free)");
}

/// Stamp the --chaos-seed / --fault-plan values onto every spec. With both
/// flags at their defaults the specs are untouched, so cache keys and
/// printed tables stay byte-identical with pre-chaos runs.
inline void apply_chaos_flags(const CliArgs& cli,
                              std::vector<engine::ExperimentSpec>& specs) {
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("chaos-seed"));
  const std::string plan = cli.get("fault-plan");
  if (seed == 0 && plan.empty()) return;
  for (engine::ExperimentSpec& spec : specs) {
    spec.chaos_seed = seed;
    spec.fault_plan = plan;
  }
  std::fprintf(stderr, "[chaos] chaos-seed=%llu fault-plan=%s\n",
               static_cast<unsigned long long>(seed),
               plan.empty() ? "(none)" : plan.c_str());
}

/// Declare the --data-mode flag (sim/payload.hpp DataMode). Inert by
/// default; see EXPERIMENTS.md "Data modes".
inline void add_data_mode_flag(CliArgs& cli) {
  cli.add_flag("data-mode", "",
               "ghost: run payloads as storage-free size-only views -- "
               "identical F/W/S, clocks and energy, no data movement or "
               "local kernels (disables verification; empty = full data)");
}

/// Stamp --data-mode=ghost onto every spec. With the flag unset the specs
/// are untouched, so cache keys and printed tables stay byte-identical
/// with pre-ghost runs.
inline void apply_data_mode_flag(const CliArgs& cli,
                                 std::vector<engine::ExperimentSpec>& specs) {
  const std::string mode = cli.get("data-mode");
  if (mode.empty() || mode == "full") return;
  ALGE_REQUIRE(mode == "ghost", "--data-mode must be ghost or full (got %s)",
               mode.c_str());
  bool verify_dropped = false;
  for (engine::ExperimentSpec& spec : specs) {
    spec.data_mode = sim::DataMode::kGhost;
    if (spec.verify) {
      spec.verify = false;
      verify_dropped = true;
    }
  }
  std::fprintf(stderr, "[ghost] data-mode=ghost%s\n",
               verify_dropped
                   ? " (verification disabled: ghost runs have no output)"
                   : "");
}

/// Declare the --exec-mode flag (sim/fold.hpp ExecMode). Inert by
/// default; see EXPERIMENTS.md "Folded execution".
inline void add_exec_mode_flag(CliArgs& cli) {
  cli.add_flag("exec-mode", "",
               "folded: collapse fold-congruent ranks onto class "
               "representatives and replay per-class cost deltas -- "
               "bit-identical makespan/energy/counters, one fiber per "
               "class (requires --data-mode=ghost; empty = fibers)");
}

/// Stamp --exec-mode=folded onto every spec. With the flag unset the
/// specs are untouched, so cache keys and printed tables stay
/// byte-identical with pre-fold runs. Folding requires ghost payloads
/// (class replay moves costs, not data), which the engine enforces.
inline void apply_exec_mode_flag(const CliArgs& cli,
                                 std::vector<engine::ExperimentSpec>& specs) {
  const std::string mode = cli.get("exec-mode");
  if (mode.empty() || mode == "fibers") return;
  ALGE_REQUIRE(mode == "folded",
               "--exec-mode must be folded or fibers (got %s)", mode.c_str());
  for (engine::ExperimentSpec& spec : specs) {
    spec.exec_mode = sim::ExecMode::kFolded;
  }
  std::fprintf(stderr, "[fold] exec-mode=folded\n");
}

/// When --trace-out is set, re-execute `spec` with tracing enabled (outside
/// the sweep: the result cache and the printed tables are untouched) and
/// export its timeline as Chrome trace JSON. Notice goes to stderr so
/// stdout stays byte-identical with the flag unset.
inline void maybe_write_trace(const CliArgs& cli,
                              const engine::ExperimentSpec& spec) {
  const std::string path = cli.get("trace-out");
  if (path.empty()) return;
  sim::Trace trace;
  const engine::ExperimentResult r = engine::execute_traced(spec, &trace);
  obs::write_chrome_trace_file(trace, r.p, path);
  std::fprintf(stderr,
               "[trace] wrote %s (p=%d) -- load in chrome://tracing or "
               "https://ui.perfetto.dev\n",
               path.c_str(), r.p);
}

}  // namespace alge::bench
