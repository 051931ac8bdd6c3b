// Coverage for the bench schema reader and the bench_diff CLI
// (tools/bench_diff_main.hpp): all three exit codes — 0 clean,
// 1 regression, 2 usage/IO/schema error — the gate of each kind (exact at
// 1e-4, wall only under --wall, better "none" never), and a check that
// every committed BENCH_*.json file is in the schema.
#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>
#include <string>
#include <vector>

#include "../tools/bench_diff_main.hpp"

namespace {

using alge::tools::run_bench_diff;

std::string golden(const std::string& name) {
  return std::string(ALGE_GOLDEN_DIR) + "/bench_diff/" + name;
}

struct CliResult {
  int rc;
  std::string out;
  std::string err;
};

CliResult run(std::vector<std::string> args) {
  CliResult r;
  r.rc = run_bench_diff(args, &r.out, &r.err);
  return r;
}

/// One schema record as JSON text.
std::string record(const std::string& metric, const std::string& value,
                   const std::string& better = "lower",
                   const std::string& kind = "exact") {
  return R"({"name":"row","metric":")" + metric + R"(","value":)" + value +
         R"(,"unit":"u","better":")" + better + R"(","kind":")" + kind +
         R"("})";
}

/// A bench file holding `records` (comma-joined JSON), written to a
/// per-process temp path.
std::string bench_file(const std::string& name,
                       const std::vector<std::string>& records) {
  std::string text = R"({"bench":"t","records":[)";
  for (std::size_t i = 0; i < records.size(); ++i) {
    text += (i == 0 ? "" : ",") + records[i];
  }
  text += "]}";
  const std::string path = testing::TempDir() + "bench_diff_" +
                           std::to_string(::getpid()) + "_" + name + ".json";
  std::ofstream(path) << text;
  return path;
}

/// Exit code of `bench_diff BASE CUR [flags]` for one metric moving from
/// `base` to `cur`.
int gate(const std::string& better, const std::string& kind,
         const std::string& base, const std::string& cur,
         const std::vector<std::string>& flags = {}) {
  std::vector<std::string> args = {
      bench_file("base", {record("m", base, better, kind)}),
      bench_file("cur", {record("m", cur, better, kind)})};
  args.insert(args.end(), flags.begin(), flags.end());
  return run(args).rc;
}

// ---------------------------------------------------------------- exit 0

TEST(BenchDiffCli, CleanPairWithinThresholdExitsZero) {
  const CliResult r = run(
      {golden("sim_base.json"), golden("sim_clean.json"), "--wall=1.1"});
  EXPECT_EQ(r.rc, 0);
  EXPECT_TRUE(r.err.empty()) << r.err;
  EXPECT_EQ(r.out.find("REGRESSION"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("0 regression(s)"), std::string::npos) << r.out;
}

TEST(BenchDiffCli, ImprovementsExitZeroAndAreReported) {
  const CliResult r = run(
      {golden("sim_base.json"), golden("sim_improved.json"), "--wall=1.5"});
  EXPECT_EQ(r.rc, 0);
  // Time halved and throughput doubled: both directions improved.
  EXPECT_NE(r.out.find("improved"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("2 improvement(s)"), std::string::npos) << r.out;
}

TEST(BenchDiffCli, RenamedMetricIsReportedButNotARegression) {
  const CliResult r =
      run({golden("sim_base.json"), golden("sim_renamed.json")});
  EXPECT_EQ(r.rc, 0);
  EXPECT_NE(r.out.find("removed     sim.BM_fft.real_time_ns"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("added       sim.BM_fft2.real_time_ns"),
            std::string::npos)
      << r.out;
}

TEST(BenchDiffCli, VerboseListsUnchangedMetrics) {
  const CliResult r = run(
      {golden("sim_base.json"), golden("sim_clean.json"), "--verbose"});
  EXPECT_EQ(r.rc, 0);
  EXPECT_NE(r.out.find("ok          sim.BM_mm25d.iterations"),
            std::string::npos)
      << r.out;
}

TEST(BenchDiffCli, LooseThresholdSilencesRegressions) {
  // Time x1.5 and rate /1.67 pass a 2x wall factor, and pass ungated.
  for (const char* wall : {"--wall=2", "--verbose"}) {
    const CliResult r =
        run({golden("sim_base.json"), golden("sim_regressed.json"), wall});
    EXPECT_EQ(r.rc, 0) << wall;
    EXPECT_NE(r.out.find("0 regression(s)"), std::string::npos) << r.out;
  }
}

// ---------------------------------------------------------------- exit 1

TEST(BenchDiffCli, RegressionsExitOne) {
  const CliResult r = run(
      {golden("sim_base.json"), golden("sim_regressed.json"), "--wall=1.1"});
  EXPECT_EQ(r.rc, 1);
  // Time +50% and throughput -40% both regress; the better:"none"
  // "iterations" jumping 8 -> 1000 must not.
  EXPECT_NE(r.out.find("REGRESSION  sim.BM_mm25d.real_time_ns"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("2 regression(s)"), std::string::npos) << r.out;
  EXPECT_EQ(r.out.find("REGRESSION  sim.BM_mm25d.iterations"),
            std::string::npos)
      << r.out;
}

TEST(BenchDiffCli, NavigatorFrontierRegressionsExitOne) {
  const CliResult r = run(
      {golden("navigator_base.json"), golden("navigator_regressed.json")});
  EXPECT_EQ(r.rc, 1);
  // frontier_area +50% (lower-better) and robust_fraction -50%
  // (higher-better) both regress; navigate_seconds (wall, x8) does not
  // gate without --wall.
  EXPECT_NE(r.out.find("REGRESSION  navigator.nbody gen=0.frontier_area"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("REGRESSION  navigator.nbody gen=0.robust_fraction"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("2 regression(s)"), std::string::npos) << r.out;
  // An unreachable faulted crossover is left out by the writer: it shows
  // as removed, not as an improvement to -1.
  EXPECT_NE(
      r.out.find("removed     navigator.nbody gen=0.crossover_generations_"
                 "faulted"),
      std::string::npos)
      << r.out;
}

TEST(BenchDiffCli, KindGatesPerMetric) {
  // An exact metric 2e-4 worse regresses with no flag at all; a wall
  // metric 50% worse does not until --wall asks for it.
  const std::string base = bench_file(
      "kind_base", {record("sim", "100"), record("t", "10", "lower", "wall")});
  const std::string cur =
      bench_file("kind_cur", {record("sim", "100.02"),
                              record("t", "15", "lower", "wall")});
  const CliResult exact = run({base, cur});
  EXPECT_EQ(exact.rc, 1);
  EXPECT_NE(exact.out.find("REGRESSION  t.row.sim"), std::string::npos)
      << exact.out;
  EXPECT_NE(exact.out.find("1 regression(s)"), std::string::npos)
      << exact.out;
  const CliResult wall = run({base, cur, "--wall=1.4"});
  EXPECT_NE(wall.out.find("2 regression(s)"), std::string::npos)
      << wall.out;
}

TEST(BenchDiffCli, WallFactorIsSymmetric) {
  // At --wall=5 a time x5.01 and a rate /5.01 fail; x4.99 and /4.99 pass.
  const std::vector<std::string> f = {"--wall=5"};
  EXPECT_EQ(gate("lower", "wall", "100", "501", f), 1);
  EXPECT_EQ(gate("higher", "wall", "501", "100", f), 1);
  EXPECT_EQ(gate("lower", "wall", "100", "499", f), 0);
  EXPECT_EQ(gate("higher", "wall", "499", "100", f), 0);
  // Without --wall, nothing wall-clock gates.
  EXPECT_EQ(gate("lower", "wall", "100", "100000", {}), 0);
}

TEST(BenchDiffCli, ExactToleranceIsOneInTenThousandBothWays) {
  EXPECT_EQ(gate("lower", "exact", "10000", "10001.01"), 1);
  EXPECT_EQ(gate("lower", "exact", "10000", "10000.99"), 0);
  EXPECT_EQ(gate("higher", "exact", "10000", "9998.99"), 1);
  EXPECT_EQ(gate("higher", "exact", "10000", "9999.01"), 0);
  // The better direction is an improvement, never a regression.
  EXPECT_EQ(gate("lower", "exact", "10000", "1"), 0);
  EXPECT_EQ(gate("higher", "exact", "10000", "1e9"), 0);
  // A wall factor does not loosen exact gates.
  EXPECT_EQ(gate("lower", "exact", "10000", "10002", {"--wall=10"}), 1);
}

TEST(BenchDiffCli, BetterNoneNeverGates) {
  for (const char* kind : {"exact", "wall"}) {
    EXPECT_EQ(gate("none", kind, "1", "1000", {"--wall=1"}), 0) << kind;
    EXPECT_EQ(gate("none", kind, "1000", "1", {"--wall=1"}), 0) << kind;
  }
}

// ---------------------------------------------------------------- exit 2

TEST(BenchDiffCli, MissingPathsAreAUsageError) {
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{},
        std::vector<std::string>{golden("sim_base.json")},
        std::vector<std::string>{golden("sim_base.json"),
                                 golden("sim_clean.json"), "extra.json"}}) {
    CliResult r;
    r.rc = run_bench_diff(args, &r.out, &r.err);
    EXPECT_EQ(r.rc, 2);
    EXPECT_NE(r.err.find("usage:"), std::string::npos) << r.err;
  }
}

TEST(BenchDiffCli, UnknownFlagIsAUsageError) {
  const CliResult r = run(
      {golden("sim_base.json"), golden("sim_clean.json"), "--frobnicate"});
  EXPECT_EQ(r.rc, 2);
  EXPECT_NE(r.err.find("unknown flag"), std::string::npos) << r.err;
}

TEST(BenchDiffCli, BadThresholdIsAUsageError) {
  for (const char* flag : {"--wall=abc", "--wall=0.5", "--wall=-5",
                           "--wall=", "--wall=inf"}) {
    const CliResult r =
        run({golden("sim_base.json"), golden("sim_clean.json"), flag});
    EXPECT_EQ(r.rc, 2) << flag;
    EXPECT_NE(r.err.find("usage:"), std::string::npos) << r.err;
  }
}

TEST(BenchDiffCli, BadThresholdOverrideIsAUsageError) {
  // The name-substring threshold flags are gone: gates come from `kind`.
  for (const char* gone : {"--threshold=0.1", "--thresholds=time=0.5"}) {
    const CliResult r =
        run({golden("sim_base.json"), golden("sim_clean.json"), gone});
    EXPECT_EQ(r.rc, 2) << gone;
    EXPECT_NE(r.err.find("unknown flag"), std::string::npos) << r.err;
  }
}

TEST(BenchDiffCli, UnreadableFileExitsTwo) {
  const CliResult r =
      run({golden("no_such_file.json"), golden("sim_clean.json")});
  EXPECT_EQ(r.rc, 2);
  EXPECT_NE(r.err.find("cannot read"), std::string::npos) << r.err;
}

TEST(BenchDiffCli, MalformedJsonExitsTwo) {
  const CliResult r =
      run({golden("sim_base.json"), golden("malformed.json")});
  EXPECT_EQ(r.rc, 2);
  EXPECT_NE(r.err.find("not valid JSON"), std::string::npos) << r.err;
}

TEST(BenchDiffCli, SchemaViolationsNameTheFileAndRecord) {
  const std::string good = record("ok", "1");
  struct Case {
    const char* label;
    std::string bad;
    const char* why;
  };
  const std::vector<Case> cases = {
      {"missing", R"({"name":"row","metric":"m","value":1,"unit":"u",)"
                  R"("better":"lower"})",
       "missing field \"kind\""},
      {"better", record("m", "1", "faster"), "\"better\" must be"},
      {"kind", record("m", "1", "lower", "cpu"), "\"kind\" must be"},
      {"value", record("m", "\"12\""), "field \"value\" must be a number"},
      {"duplicate", record("ok", "2"), "duplicate (name, metric)"},
      {"extra", R"({"name":"row","metric":"m","value":1,"unit":"u",)"
                R"("better":"lower","kind":"exact","layer":"sim"})",
       "unknown field \"layer\""},
  };
  for (const Case& c : cases) {
    const std::string path = bench_file(c.label, {good, c.bad});
    const CliResult r = run({golden("sim_base.json"), path});
    EXPECT_EQ(r.rc, 2) << c.label;
    EXPECT_NE(r.err.find(path + "', record 1: "), std::string::npos)
        << c.label << ": " << r.err;
    EXPECT_NE(r.err.find(c.why), std::string::npos) << c.label << ": "
                                                    << r.err;
  }
}

TEST(BenchDiffCli, OldFormatFileIsASchemaErrorNotAFlatten) {
  // The pre-schema navigator shape ({"bench", "results"}) is refused, on
  // either side of the diff.
  for (const bool old_first : {true, false}) {
    const std::string old_file = golden("old_format.json");
    const CliResult r =
        old_first ? run({old_file, golden("navigator_base.json")})
                  : run({golden("navigator_base.json"), old_file});
    EXPECT_EQ(r.rc, 2);
    EXPECT_NE(r.err.find("old_format.json': not a bench file"),
              std::string::npos)
        << r.err;
  }
}

TEST(BenchDiffCli, DifferentBenchesAreAnError) {
  const CliResult r =
      run({golden("sim_base.json"), golden("navigator_base.json")});
  EXPECT_EQ(r.rc, 2);
  EXPECT_NE(r.err.find("is bench \"sim\""), std::string::npos) << r.err;
}

TEST(BenchDiffCli, NullSinksAreAccepted) {
  EXPECT_EQ(run_bench_diff({golden("sim_base.json"), golden("sim_clean.json")},
                           nullptr, nullptr),
            0);
  EXPECT_EQ(run_bench_diff({}, nullptr, nullptr), 2);
}

// Zero baselines can't form a relative change; any growth from zero is an
// infinite regression for a lower-better metric, exact or wall.
TEST(MetricDirection, ZeroBaseGrowthIsAnInfiniteRegression) {
  EXPECT_EQ(gate("lower", "exact", "0", "1e-300"), 1);
  EXPECT_EQ(gate("lower", "wall", "0", "1e-9", {"--wall=100"}), 1);
  EXPECT_EQ(gate("higher", "exact", "0", "1"), 0);
  EXPECT_EQ(gate("lower", "exact", "0", "0"), 0);
}

// Every tracked bench file is in the schema and diffs clean against
// itself: a file left in an old shape fails here, not in CI.
TEST(CommittedBenchFiles, AreInTheSchemaAndDiffClean) {
  for (const char* bench : {"sim", "engine", "frontier", "ghost", "navigator",
                            "serve", "transport"}) {
    const std::string path = std::string(ALGE_SOURCE_DIR) + "/BENCH_" +
                             bench + ".json";
    const CliResult r = run({path, path, "--wall=1"});
    EXPECT_EQ(r.rc, 0) << path << ": " << r.err;
    EXPECT_NE(r.out.find(": 0 regression(s), 0 improvement(s), 0 removed, "
                         "0 added"),
              std::string::npos)
        << path << ": " << r.out;
    EXPECT_FALSE(r.out.starts_with("0 metric(s)")) << path << " is empty";
  }
}

}  // namespace
