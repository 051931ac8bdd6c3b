// The bench_diff CLI as a callable function, so its exit codes and
// rendering are unit-testable (tests/test_bench_diff.cpp) while the binary
// (bench_diff.cpp) stays a two-line main. Header-only on purpose: tools/
// is not a library, and the one extra TU a test adds is cheaper than a new
// link target.
#pragma once

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/bench_metrics.hpp"
#include "support/json.hpp"

namespace alge::tools {

inline const char* bench_diff_usage_text() {
  return
      "usage: bench_diff BASELINE.json CURRENT.json [--wall=FACTOR]"
      " [--verbose]\n"
      "  Both files are in the bench schema (obs/bench_metrics.hpp). Exact\n"
      "  metrics gate at a relative 1e-4 in their declared direction.\n"
      "  --wall=FACTOR  also gate wall metrics: a time more than FACTOR x\n"
      "                 higher, or a rate more than FACTOR x lower, is a\n"
      "                 regression (FACTOR >= 1; default: wall not gated)\n"
      "  --verbose      list every compared metric, not just changes\n";
}

/// Run the bench_diff CLI on `args` (argv[1..argc-1]). The report is
/// appended to *out and diagnostics to *err (either may be null).
/// Returns the process exit code: 0 clean, 1 regressions, 2 usage, I/O or
/// schema error.
inline int run_bench_diff(const std::vector<std::string>& args,
                          std::string* out, std::string* err) {
  auto say = [](std::string* sink, const std::string& text) {
    if (sink != nullptr) *sink += text;
  };
  auto usage = [&] {
    say(err, bench_diff_usage_text());
    return 2;
  };

  std::string paths[2];
  int npaths = 0;
  double wall = 0.0;
  bool verbose = false;
  for (const std::string& arg : args) {
    if (arg.rfind("--wall=", 0) == 0) {
      try {
        wall = std::stod(arg.substr(7));
      } catch (...) {
        wall = -1.0;
      }
      if (!(wall >= 1.0) || !std::isfinite(wall)) {
        say(err, "bench_diff: --wall must be a factor >= 1 (got '" +
                     arg.substr(7) + "')\n");
        return usage();
      }
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (!arg.empty() && arg[0] == '-') {
      say(err, "bench_diff: unknown flag '" + arg + "'\n");
      return usage();
    } else if (npaths < 2) {
      paths[npaths++] = arg;
    } else {
      say(err, "bench_diff: too many arguments\n");
      return usage();
    }
  }
  if (npaths != 2) return usage();

  obs::BenchFile files[2];
  for (int i = 0; i < 2; ++i) {
    std::ifstream in(paths[i]);
    if (!in) {
      say(err, "bench_diff: cannot read '" + paths[i] + "'\n");
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    try {
      files[i] = obs::read_bench_file(json::parse(buf.str()));
    } catch (const json::json_error& e) {
      say(err, "bench_diff: '" + paths[i] +
                   "' is not valid JSON: " + e.what() + "\n");
      return 2;
    } catch (const obs::bench_schema_error& e) {
      say(err, "bench_diff: '" + paths[i] + "'" +
                   (e.index >= 0 ? ", record " + std::to_string(e.index)
                                 : std::string()) +
                   ": " + e.what() + "\n");
      return 2;
    }
  }
  if (files[0].bench != files[1].bench) {
    say(err, "bench_diff: '" + paths[0] + "' is bench \"" + files[0].bench +
                 "\" but '" + paths[1] + "' is bench \"" + files[1].bench +
                 "\"\n");
    return 2;
  }

  const obs::BenchDiff diff = obs::diff_bench_files(files[0], files[1], wall);
  say(out, obs::render_diff(diff, verbose));
  return diff.regressions > 0 ? 1 : 0;
}

}  // namespace alge::tools
