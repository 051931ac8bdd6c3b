// perfbench: the repository benchmark driver.
//
//   perfbench --workload <frontier_rotor|fiber_sweep|serve_mix|real_p4>
//             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//
// Prints the host fingerprint, then (last line of stdout) one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Notes (failures,
// pass counts, the self-time table) go to stderr. perfbench/run.py builds
// this binary and is the entry point; see perfbench/README.md.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "support/json.hpp"

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <frontier_rotor|fiber_sweep|"
               "serve_mix|real_p4> --seed <n> --seconds <s> --trace <0|1> "
               "--work-dir <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string val = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = val == "1";
    } else if (flag == "--work-dir") {
      opt.work_dir = val;
    } else {
      return usage();
    }
  }
  if (!have_workload || argc % 2 != 1 || opt.seconds <= 0.0 ||
      opt.work_dir.empty()) {
    return usage();
  }
  ::mkdir(opt.work_dir.c_str(), 0755);

  const double calib = calibrate_dgemm();
  std::cout << host_fingerprint_json(calib) << std::endl;

  Tracer tracer;
  Tracer* tp = opt.trace ? &tracer : nullptr;
  Result r;
  try {
    if (opt.workload == "frontier_rotor") {
      r = run_frontier_rotor(opt, tp);
    } else if (opt.workload == "fiber_sweep") {
      r = run_fiber_sweep(opt, tp);
    } else if (opt.workload == "serve_mix") {
      r = run_serve_mix(opt, tp);
    } else if (opt.workload == "real_p4") {
      r = run_real_p4(opt, tp);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload \"%s\"\n",
                   opt.workload.c_str());
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  for (const std::string& note : r.notes) {
    std::fprintf(stderr, "[%s] %s\n", opt.workload.c_str(), note.c_str());
  }
  if (opt.trace) {
    r.set("bench.calib_s", calib);
    const std::string path =
        opt.work_dir + "/trace-" + opt.workload + ".json";
    tracer.write_chrome(path);
    std::fprintf(stderr, "[%s] chrome trace: %s (%zu spans)\n",
                 opt.workload.c_str(), path.c_str(), tracer.spans().size());
  }
  if (r.attempted < 1) {
    std::fprintf(stderr, "perfbench: no operations attempted\n");
    return 1;
  }
  r.set("ok_frac", 1.0 - static_cast<double>(r.failed) /
                             static_cast<double>(r.attempted));

  // Every catalog metric is printed. End-to-end metrics must all have been
  // measured; a per-layer metric the workload never reaches reads 0.
  alge::json::Value metrics = alge::json::Value::object();
  for (const MetricDef& m :
       opt.trace ? per_layer_metrics() : end_to_end_metrics()) {
    const auto it = r.metrics.find(m.name);
    if (it == r.metrics.end() && !opt.trace) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   m.name.c_str());
      return 1;
    }
    const double v = it == r.metrics.end() ? 0.0 : it->second;
    metrics.set(m.name,
                alge::json::Value::object().set("value", v).set("unit",
                                                                m.unit));
  }
  alge::json::Value out = alge::json::Value::object();
  out.set("correct", r.wrong == 0)
      .set("attempted", static_cast<double>(r.attempted))
      .set("failed", static_cast<double>(r.failed))
      .set("metrics", std::move(metrics));
  std::cout << out.dump() << std::endl;
  return 0;
}
