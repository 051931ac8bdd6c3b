// Unit tests for the transport layer's building blocks: chunk math, backend
// naming, self-send accounting and the runner report aggregation.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/comm.hpp"
#include "support/common.hpp"
#include "transport/programs.hpp"
#include "transport/run.hpp"
#include "transport/wire.hpp"

namespace alge::transport {
namespace {

TEST(ChunkMath, ChunksCoverTheMessageEvenly) {
  for (std::uint64_t words : {1ull, 7ull, 64ull, 100ull, 1023ull}) {
    for (std::uint32_t chunks : {1u, 2u, 3u, 7u, 15u}) {
      if (chunks > words) continue;
      std::uint64_t sum = 0;
      std::uint64_t prev = chunk_words_at(words, chunks, 0);
      for (std::uint32_t i = 0; i < chunks; ++i) {
        const std::uint64_t cw = chunk_words_at(words, chunks, i);
        sum += cw;
        // Leading chunks absorb the remainder: sizes are non-increasing and
        // differ by at most one word.
        EXPECT_LE(cw, prev);
        EXPECT_LE(prev - cw, 1u);
        prev = cw;
      }
      EXPECT_EQ(sum, words) << words << " words in " << chunks << " chunks";
    }
  }
}

TEST(BackendNames, RoundTrip) {
  for (Backend b : {Backend::kSim, Backend::kShm, Backend::kTcp}) {
    EXPECT_EQ(backend_from_string(to_string(b)), b);
  }
  EXPECT_THROW(backend_from_string("mpi"), invalid_argument_error);
}

TEST(RunOptionsValidation, RejectsEmptyWorldAndZeroTimeout) {
  RunOptions opts;
  opts.p = 0;
  const RankProgram noop = [](sim::Comm&, std::vector<double>&) {};
  EXPECT_THROW(run_sim(opts, noop), invalid_argument_error);
  opts.p = 1;
  opts.timeout_s = 0.0;
  EXPECT_THROW(run_sim(opts, noop), invalid_argument_error);
}

// Self-sends are free local copies: no model send costs, no message count,
// but the received words do land in the recv ledger.
TEST(SelfSend, AccountingMatchesTheModelContract) {
  RunOptions opts;
  opts.p = 1;
  opts.params = core::MachineParams::unit();
  const RankProgram program = [](sim::Comm& comm, std::vector<double>& out) {
    std::vector<double> buf = {1.0, 2.0, 3.0};
    comm.send(0, sim::ConstPayload(buf));
    out.resize(3);
    comm.recv(0, sim::Payload(out));
  };
  const RunReport report = run_sim(opts, program);
  const RankReport& r = report.ranks[0];
  EXPECT_EQ(r.output, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(r.model.msgs_sent, 0.0);
  EXPECT_EQ(r.model.words_sent, 0.0);
  EXPECT_EQ(r.model.msgs_recv, 0.0);   // msg_count 0 for self-deliveries
  EXPECT_EQ(r.model.words_recv, 3.0);  // but the words are real
  EXPECT_EQ(r.model.clock, 0.0);       // and no time passes
}

TEST(RunReportMath, TotalsAndEnergyMatchTheMachine) {
  const AlgProgram ap = make_program(conformance_spec("summa"));
  RunOptions opts;
  opts.p = ap.p;
  opts.params = core::MachineParams::unit();
  const RunReport report = run_sim(opts, ap.program);

  sim::MachineConfig cfg;
  cfg.p = ap.p;
  cfg.params = opts.params;
  sim::Machine machine(cfg);
  machine.run([&](sim::Comm& comm) {
    std::vector<double> out;
    ap.program(comm, out);
  });
  EXPECT_EQ(report.makespan(), machine.makespan());
  EXPECT_TRUE(report.totals() == machine.totals());
  const sim::SimEnergy a = report.energy(opts.params);
  const sim::SimEnergy b = machine.energy();
  EXPECT_EQ(a.breakdown.total(), b.breakdown.total());
}

TEST(Programs, NamesCoverAllSevenAlgorithms) {
  const std::vector<std::string>& names = program_names();
  ASSERT_EQ(names.size(), 7u);
  for (const std::string& name : names) {
    const AlgProgram ap = make_program(conformance_spec(name));
    EXPECT_GE(ap.p, 1) << name;
    EXPECT_LE(ap.p, 8) << name;  // the conformance matrix stays small
    EXPECT_TRUE(ap.program != nullptr) << name;
  }
  ProgramSpec unknown;
  unknown.alg = "qrjob";
  EXPECT_THROW(make_program(unknown), invalid_argument_error);
}

}  // namespace
}  // namespace alge::transport
