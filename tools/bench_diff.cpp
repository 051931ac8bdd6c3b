// bench_diff: compare two bench files and flag regressions.
//
//   bench_diff BASELINE.json CURRENT.json [--wall=FACTOR] [--verbose]
//
// Both files are in the one bench schema (obs/bench_metrics.hpp): every
// record declares its direction ("better") and its kind. Exact metrics
// (simulated costs, model outputs) regress when they move the wrong way by
// more than a relative 1e-4. Wall metrics (times and rates of the benching
// machine) regress only under --wall=FACTOR: a time more than FACTOR x
// higher, or a rate more than FACTOR x lower. Metrics declared
// better "none" are reported, never a regression.
//
// Exit codes: 0 clean, 1 regressions found, 2 usage, I/O or schema error
// (naming the file and the record index). CI blocks on 1; the
// allow-bench-regression PR label skips the gate. The CLI logic lives in
// bench_diff_main.hpp so tests can drive it in-process.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_diff_main.hpp"

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  std::string out;
  std::string err;
  const int rc = alge::tools::run_bench_diff(args, &out, &err);
  std::fputs(out.c_str(), stdout);
  std::fputs(err.c_str(), stderr);
  return rc;
}
