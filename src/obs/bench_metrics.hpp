// The one schema of the repo's tracked bench files (BENCH_*.json), its
// reader, and the diff that tools/bench_diff and the CI gates run. The
// writer is bench/bench_common.hpp (BenchJson).
//
//   {"bench": "frontier",
//    "records": [{"name": "summa n=8192 q=1024", "metric": "makespan",
//                 "value": 1.2e9, "unit": "s", "better": "lower",
//                 "kind": "exact"}, ...]}
//
// Every record declares its own gate; nothing is inferred from names:
//   kind "exact"   a deterministic simulated or model value: regresses when
//                  it moves against `better` by more than kExactTolerance
//                  (relative)
//   kind "wall"    a wall-clock time or rate of the benching machine:
//                  regresses only under a wall factor F (bench_diff
//                  --wall=F), when a lower-better value grows more than F×
//                  or a higher-better value shrinks more than F×
//   better "none"  configuration or context (p, threads, job counts):
//                  reported, never a regression
// A metric is keyed "<bench>.<name>.<metric>"; (name, metric) is unique
// within a file.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace alge::obs {

enum class Better { kLower, kHigher, kNone };
enum class Kind { kExact, kWall };

/// The schema's spelling: "lower"/"higher"/"none", "exact"/"wall".
const char* to_string(Better b);
const char* to_string(Kind k);

struct BenchRecord {
  std::string name;    ///< the row: one run, configuration or phase
  std::string metric;  ///< the quantity measured on that row
  double value = 0.0;
  std::string unit;
  Better better = Better::kNone;
  Kind kind = Kind::kExact;
};

struct BenchFile {
  std::string bench;
  std::vector<BenchRecord> records;
};

/// A document outside the schema. `index` is the offending record's
/// position in "records", or -1 when the top level is at fault.
class bench_schema_error : public std::runtime_error {
 public:
  bench_schema_error(int index, const std::string& what)
      : std::runtime_error(what), index(index) {}
  int index;
};

/// Validate `doc` against the schema (every field present and typed, no
/// unknown field, `better`/`kind` spelled as above, no duplicate
/// (name, metric)). Throws bench_schema_error.
BenchFile read_bench_file(const json::Value& doc);

/// Relative tolerance of every exact gate.
inline constexpr double kExactTolerance = 1e-4;

struct MetricDiff {
  std::string key;  ///< "<bench>.<name>.<metric>"
  double base = 0.0;
  double current = 0.0;
  /// Signed relative change (current - base) / |base|; ±inf when base is 0
  /// and current is not.
  double rel_change = 0.0;
  Better better = Better::kNone;  ///< as the baseline declares it
  Kind kind = Kind::kExact;
  bool regression = false;   ///< worse beyond the metric's gate
  bool improvement = false;  ///< better beyond the same gate
};

struct BenchDiff {
  std::vector<MetricDiff> metrics;        ///< metrics present in both files
  std::vector<std::string> only_base;     ///< disappeared metrics
  std::vector<std::string> only_current;  ///< new metrics
  double wall_factor = 0.0;               ///< 0 = wall metrics ungated
  int regressions = 0;
  int improvements = 0;
};

/// Compare two files of one bench metric by metric, each gated as the
/// baseline declares it. `wall_factor` is 0 (wall metrics never gate) or
/// >= 1.
BenchDiff diff_bench_files(const BenchFile& base, const BenchFile& current,
                           double wall_factor);

/// Human-readable report: regressions, improvements, removed and added
/// metrics, then a summary line; `verbose` lists every common metric.
std::string render_diff(const BenchDiff& diff, bool verbose = false);

}  // namespace alge::obs
