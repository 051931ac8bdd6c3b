// model_vs_real: run the per-rank algorithm programs on a real transport
// backend and put the paper's model next to the measurement.
//
//   model_vs_real [--algs=all|mm25d,caps,...] [--backends=shm,tcp]
//                 [--gamma-t=..] [--beta-t=..] [--alpha-t=..]
//                 [--json=PATH]
//
// For every (algorithm, backend) cell the tool reports
//
//   * the Eq. (1) prediction T = γt·F + βt·W + αt·S evaluated on the
//     critical-path rank's measured counters (with the default unit
//     parameters this is the virtual makespan itself),
//   * the Eq. (2) energy prediction on the same measured ledger,
//   * the wall-clock seconds the backend actually took, and the
//     wall-per-model ratio — the backend's implied "seconds per model
//     unit", which calibrates γt/βt/αt against a real machine,
//   * whether the wire-level traffic matched the W/S ledger exactly
//     (msgs/words sent per rank) — the same oracle the conformance suite
//     asserts.
//
// The model columns are deterministic; only the wall clock and the ratio
// vary with the machine. Exit 1 if any cell's wire traffic diverges from
// the ledger.
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "support/cli.hpp"
#include "support/common.hpp"
#include "support/json.hpp"
#include "support/table.hpp"
#include "transport/programs.hpp"
#include "transport/run.hpp"

namespace {

using namespace alge;

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > start) out.push_back(s.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

bool ledger_matches(const transport::RunReport& report) {
  for (const transport::RankReport& r : report.ranks) {
    if (r.wire.msgs_sent != r.model.msgs_sent) return false;
    if (r.wire.words_sent != r.model.words_sent) return false;
    if (r.wire.msgs_recv != r.model.msgs_recv) return false;
    if (r.wire.words_recv + r.self.words_recv != r.model.words_recv) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace alge;
  CliArgs cli;
  cli.add_flag("algs", "all",
               "comma-separated algorithms (" + algs::names_list(",") +
                   "), or all");
  cli.add_flag("backends", "shm,tcp",
               "comma-separated real backends to measure (sim allowed too)");
  cli.add_flag("gamma-t", "1.0", "seconds per flop for the Eq. (1) column");
  cli.add_flag("beta-t", "1.0", "seconds per word for the Eq. (1) column");
  cli.add_flag("alpha-t", "1.0", "seconds per message for the Eq. (1) column");
  cli.add_flag("json", "", "write the comparison records to this path");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.usage("model_vs_real");
    return 0;
  }

  core::MachineParams mp = core::MachineParams::unit();
  mp.gamma_t = cli.get_double("gamma-t");
  mp.beta_t = cli.get_double("beta-t");
  mp.alpha_t = cli.get_double("alpha-t");
  mp.validate();

  std::vector<std::string> algs = split_csv(cli.get("algs"));
  if (algs.size() == 1 && algs[0] == "all") algs = transport::program_names();
  const std::vector<std::string> backends = split_csv(cli.get("backends"));

  Table t({"alg", "backend", "p", "Eq.(1) T", "Eq.(2) E", "wall s",
           "wall/T", "ledger"});
  json::Value records = json::Value::array();
  bool all_match = true;

  for (const std::string& alg : algs) {
    const transport::AlgProgram ap =
        transport::make_program(transport::conformance_spec(alg));
    transport::RunOptions opts;
    opts.p = ap.p;
    opts.params = mp;
    opts.timeout_s = 30.0;
    for (const std::string& bname : backends) {
      const transport::Backend backend =
          transport::backend_from_string(bname);
      const auto t0 = std::chrono::steady_clock::now();
      const transport::RunReport report =
          transport::run(backend, opts, ap.program);
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      // Eq. (1) on the measured counters: the critical-path rank's clock
      // already accumulates γt·F + βt·W + αt·S plus waiting, which is the
      // model makespan.
      const double model_t = report.makespan();
      const double model_e = report.energy(mp).breakdown.total();
      const bool match =
          backend == transport::Backend::kSim || ledger_matches(report);
      all_match = all_match && match;
      t.row()
          .cell(alg)
          .cell(bname)
          .cell(report.p)
          .cell(model_t, "%.0f")
          .cell(model_e, "%.0f")
          .cell(wall, "%.4f")
          .cell(model_t > 0.0 ? wall / model_t : 0.0, "%.2e")
          .cell(match ? "match" : "DIVERGED");
      json::Value e = json::Value::object();
      e.set("name", alg + "." + bname);
      e.set("p", report.p);
      e.set("model_makespan", model_t);
      e.set("model_energy", model_e);
      e.set("wall_seconds", wall);
      e.set("ledger_match", match);
      records.push_back(std::move(e));
    }
  }

  t.print(std::cout);
  std::cout << "\nEq. (1)/(2) are evaluated on the counters the real run "
               "itself carried (the model travels with the rank); wall/T "
               "is the backend's implied seconds per model unit, the "
               "calibration handle for gamma-t/beta-t/alpha-t.\n";

  const std::string json_path = cli.get("json");
  if (!json_path.empty()) {
    json::Value doc = json::Value::object();
    doc.set("tool", "model_vs_real");
    doc.set("results", std::move(records));
    std::ofstream out(json_path);
    ALGE_REQUIRE(out.good(), "cannot write %s", json_path.c_str());
    out << doc.dump() << "\n";
  }
  if (!all_match) {
    std::fprintf(stderr, "[model_vs_real] wire traffic diverged from the "
                         "W/S ledger\n");
  }
  return all_match ? 0 : 1;
}
