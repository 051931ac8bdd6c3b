// frontier_rotor: folded ghost runs at p ≈ 2.6×10⁵ (and one 4.2×10⁶-rank
// Cannon replay) on the frontier_folded machine. The rotor sweep and the
// fold-class channel replay in src/sim do nearly all the work; no fibers,
// kernels or sockets run in the timed passes.
//
// Checks, every pass: the machine really folded (fold_slots > 0; a silent
// fall-back to fibers is a failure), the per-rank flop count equals
// 2 × core::ClassicalMatmulModel's F where that count is exact — SUMMA and
// Cannon; the model counts a multiply-add as one flop and omits 2.5D's
// depth-reduction adds — and every pass reproduces the first pass
// bit for bit. Once per run, at anchor size, each family runs fiber-ghost
// and folded-ghost and the cost signatures must match exactly.
#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "algs/foldmaps.hpp"
#include "bench.hpp"
#include "core/algmodel.hpp"
#include "engine/runner.hpp"
#include "sim/fold.hpp"
#include "sim/fold_rotor.hpp"
#include "specs.hpp"
#include "support/common.hpp"

namespace perfbench {
namespace {

namespace engine = alge::engine;

struct Op {
  std::string family;  ///< engine.execute_s.<family>
  std::string fragment;
  std::string anchor;  ///< same family at a size fibers can also run
  bool matmul = false;
  /// The algs fold-map builder the machine uses for this spec.
  std::function<std::shared_ptr<const alge::sim::FoldMap>()> build;
};

std::vector<Op> ops() {
  const std::string ghost =
      R"(, "data_mode": "ghost", "exec_mode": "folded"})";
  return {
      {"summa_rotor", R"({"alg": "summa", "n": 4096, "q": 512)" + ghost,
       R"({"alg": "summa", "n": 1024, "q": 16)" + ghost, true,
       [] { return alge::algs::foldmap_summa(4096, 512); }},
      {"lu_rotor", R"({"alg": "lu", "n": 4096, "nb": 8, "q": 512, "c": 1)" +
                       ghost,
       R"({"alg": "lu", "n": 512, "nb": 8, "q": 16, "c": 1)" + ghost, false,
       [] { return alge::algs::foldmap_lu(4096, 8, 512, 1); }},
      {"mm25d_rotor", R"({"alg": "mm25d", "n": 4096, "q": 256, "c": 4)" +
                          ghost,
       R"({"alg": "mm25d", "n": 1024, "q": 16, "c": 4)" + ghost, false,
       [] { return alge::algs::foldmap_mm25d(256, 4, 4096 / 256, false); }},
      {"cannon_fold", R"({"alg": "mm25d", "n": 65536, "q": 2048, "c": 1)" +
                          ghost,
       R"({"alg": "mm25d", "n": 1024, "q": 16, "c": 1)" + ghost, true,
       [] { return alge::algs::foldmap_mm25d(2048, 1); }},
  };
}

/// The frontier_folded machine: every Eq. (2) term live, uncapped messages.
alge::core::MachineParams frontier_params() {
  alge::core::MachineParams mp;
  mp.gamma_t = 1.0;
  mp.beta_t = 2.0;
  mp.alpha_t = 10.0;
  mp.gamma_e = 1.0;
  mp.beta_e = 4.0;
  mp.alpha_e = 20.0;
  mp.delta_e = 1e-4;
  mp.eps_e = 1e-2;
  mp.max_msg_words = 1e18;
  return mp;
}

/// Bit-exact equality of the cost signature (everything but fold_slots,
/// which differs between fiber and folded runs by design).
bool same_costs(const alge::engine::ExperimentResult& a,
                const alge::engine::ExperimentResult& b) {
  alge::engine::ExperimentResult x = a;
  alge::engine::ExperimentResult y = b;
  x.fold_slots = 0;
  y.fold_slots = 0;
  return x == y;
}

/// Per-rank F of the classical matmul model, in the simulator's flop unit.
double model_matmul_flops(const engine::ExperimentSpec& s, int p) {
  const alge::core::ClassicalMatmulModel model;
  const double n = s.n;
  const double M = model.max_useful_memory(n, p);
  return 2.0 * model.costs(n, p, M, 1.0).F;
}

}  // namespace

Result run_frontier_rotor(const Options& opt, Tracer* tracer) {
  Result r;
  const std::vector<Op> list = ops();
  const alge::core::MachineParams mp = frontier_params();

  // Set-up: decode the spec list and warm the engine with the smallest
  // anchor, folded and per-fiber (first-call costs such as fiber stacks
  // land here, not in the first timed operation).
  std::vector<engine::ExperimentSpec> specs;
  const double setup = median_setup(5, [&] {
    specs.clear();
    for (const Op& op : list) {
      specs.push_back(spec_from(op.fragment, mp, opt.seed));
    }
    engine::ExperimentSpec warm = spec_from(list.back().anchor, mp, opt.seed);
    (void)engine::execute(warm);
    warm.exec_mode = alge::sim::ExecMode::kFibers;
    (void)engine::execute(warm);
  });
  r.set("setup_s", setup);

  std::vector<engine::ExperimentResult> reference(list.size());
  std::vector<bool> have_ref(list.size(), false);
  std::vector<std::vector<double>> family_s(list.size());
  std::vector<double> msgs, slots, rotor_ns;
  PassTimes passes;
  PassTimes untraced;  // traced runs only: the reference for the overhead
  // Rotor length per op (0 = not a rotor fold), from the same builders the
  // machine calls; measured in traced runs as algs.foldmap_build_s.
  std::vector<double> rotor_len(list.size(), 0.0);
  std::vector<double> build_s;

  // One pass over the fixed operation list, in list order.
  auto pass = [&](Tracer* tr) {
    Scope ps(tr, "bench.pass");
    std::vector<double> op_s;
    double pass_msgs = 0.0, pass_slots = 0.0;
    double rotor_time = 0.0, rotor_rank_ops = 0.0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < list.size(); ++i) {
      const Op& op = list[i];
      ++r.attempted;
      engine::ExperimentResult res;
      const auto o0 = Clock::now();
      try {
        Scope s(tr, "engine.execute." + op.family);
        res = engine::execute(specs[i]);
      } catch (const std::exception& e) {
        op_s.push_back(seconds_since(t0));
        r.fail(op.family + ": " + e.what());
        continue;
      }
      const double dt = seconds_since(o0);
      op_s.push_back(seconds_since(t0));
      family_s[i].push_back(dt);
      pass_msgs += res.totals.msgs_total;
      pass_slots += res.fold_slots;
      if (rotor_len[i] > 0) {
        rotor_time += dt;
        rotor_rank_ops += static_cast<double>(res.p) * rotor_len[i];
      }
      if (res.fold_slots <= 0) {
        r.mismatch(op.family + ": fell back to one fiber per rank");
      } else if (op.matmul &&
                 (res.totals.flops_max != model_matmul_flops(specs[i], res.p) ||
                  res.totals.flops_total !=
                      model_matmul_flops(specs[i], res.p) * res.p)) {
        r.mismatch(alge::strfmt("%s: per-rank F %.17g != model %.17g",
                                op.family.c_str(), res.totals.flops_max,
                                model_matmul_flops(specs[i], res.p)));
      } else if (have_ref[i] && !(res == reference[i])) {
        r.mismatch(op.family + ": result differs from the first pass");
      }
      if (!have_ref[i]) {
        reference[i] = res;
        have_ref[i] = true;
      }
    }
    const double wall = seconds_since(t0);
    if (tr == nullptr && tracer != nullptr) {
      untraced.add_pass(wall, op_s);
      return;
    }
    passes.add_pass(wall, op_s);
    msgs.push_back(pass_msgs);
    slots.push_back(pass_slots);
    if (rotor_rank_ops > 0) {
      rotor_ns.push_back(rotor_time / rotor_rank_ops * 1e9);
    }
  };

  if (tracer != nullptr) {
    Scope s(tracer, "bench.foldmap_probe");
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < list.size(); ++i) {
        Scope b(tracer, "algs.foldmap_build." + list[i].family);
        const auto map = list[i].build();
        if (map != nullptr && map->rotor() != nullptr) {
          rotor_len[i] = static_cast<double>(map->rotor()->ops.size());
        }
      }
      build_s.push_back(seconds_since(t0));
    }
  }
  run_passes(opt, tracer, pass);

  // Parity anchors: fiber-ghost and folded-ghost must agree bit for bit.
  {
    Scope s(tracer, "bench.anchors");
    for (const Op& op : list) {
      ++r.attempted;
      try {
        const engine::ExperimentSpec folded =
            spec_from(op.anchor, mp, opt.seed);
        engine::ExperimentSpec fibers = folded;
        fibers.exec_mode = alge::sim::ExecMode::kFibers;
        engine::ExperimentResult a, b;
        {
          Scope e(tracer, "engine.execute.anchor_fibers");
          a = engine::execute(fibers);
        }
        {
          Scope e(tracer, "engine.execute.anchor_folded");
          b = engine::execute(folded);
        }
        if (!same_costs(a, b)) {
          r.mismatch(op.family + ": anchor fiber/folded costs differ");
        } else if (b.fold_slots <= 0) {
          r.mismatch(op.family + ": anchor did not fold");
        }
      } catch (const std::exception& e) {
        r.fail(op.family + " anchor: " + e.what());
      }
    }
  }

  if (tracer != nullptr) {
    r.set("algs.foldmap_build_s", median(build_s));
    r.set("sim.rotor_ns_per_rank_op", median(rotor_ns));
    r.set("sim.fold_slots", median(slots));
    r.set("sim.msgs_simulated", median(msgs));
    double ghost = 0.0;
    for (std::size_t i = 0; i < list.size(); ++i) {
      r.set("engine.execute_s." + list[i].family, median(family_s[i]));
      ghost += median(family_s[i]);
    }
    r.set("engine.execute_ghost_s", ghost);
    r.set("bench.trace_overhead_s",
          median(passes.wall) - median(untraced.wall));
    r.set("bench.trace_overhead_p50_ms",
          (median(passes.op_p50) - median(untraced.op_p50)) * 1e3);
    report_self_times(*tracer, opt.workload, r);
  } else {
    passes.report(r);
  }
  r.set("peak_rss_mb", peak_rss_mib(false));
  return r;
}

}  // namespace perfbench
