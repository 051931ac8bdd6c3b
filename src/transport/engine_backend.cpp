#include "transport/engine_backend.hpp"

#include "engine/backend.hpp"
#include "engine/runner.hpp"
#include "support/common.hpp"
#include "transport/programs.hpp"

namespace alge::transport {

engine::ExperimentResult execute_on(Backend backend,
                                    const engine::ExperimentSpec& spec) {
  ALGE_REQUIRE(backend != Backend::kSim,
               "execute_on is the real-backend path; leave spec.transport "
               "empty (or \"sim\") for the simulator");
  ALGE_REQUIRE(spec.chaos_seed == 0 && spec.fault_plan.empty(),
               "transport \"%s\" runs fault-free: chaos axes apply to the "
               "simulator only",
               std::string(to_string(backend)).c_str());
  ALGE_REQUIRE(spec.data_mode == sim::DataMode::kFull,
               "transport \"%s\" moves real data: ghost mode applies to "
               "the simulator only",
               std::string(to_string(backend)).c_str());
  ALGE_REQUIRE(spec.exec_mode == sim::ExecMode::kFibers,
               "transport \"%s\" cannot fold ranks: folded execution "
               "applies to the simulator only",
               std::string(to_string(backend)).c_str());
  ALGE_REQUIRE(!spec.verify,
               "real-backend specs must set verify=false; output checking "
               "is the cross-backend conformance suite's job");
  const AlgProgram ap = make_program(engine::problem_of(spec));
  RunOptions opts;
  opts.p = ap.p;
  opts.params = spec.params;
  const RunReport report = run(backend, opts, ap.program);
  return {.p = report.p,
          .makespan = report.makespan(),
          .totals = report.totals(),
          .energy = report.energy(spec.params).breakdown};
}

void register_engine_backends() {
  engine::register_backend_executor(
      "shm", [](const engine::ExperimentSpec& spec) {
        return execute_on(Backend::kShm, spec);
      });
  engine::register_backend_executor(
      "tcp", [](const engine::ExperimentSpec& spec) {
        return execute_on(Backend::kTcp, spec);
      });
}

}  // namespace alge::transport
