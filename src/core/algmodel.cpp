#include "core/algmodel.hpp"

#include <algorithm>
#include <cmath>

#include "support/common.hpp"

namespace alge::core {

namespace {
void check_npm(double n, double p, double M) {
  ALGE_REQUIRE(n >= 1.0 && std::isfinite(n), "problem size n=%g invalid", n);
  ALGE_REQUIRE(p >= 1.0 && std::isfinite(p), "processor count p=%g invalid",
               p);
  ALGE_REQUIRE(M > 0.0 && std::isfinite(M), "memory M=%g invalid", M);
}

// Allow a hair of slack so optimizer probes on the boundary don't trip.
constexpr double kFitSlack = 1.0 - 1e-9;
}  // namespace

double AlgModel::time(double n, double p, double M,
                      const MachineParams& mp) const {
  return time_of(costs(n, p, M, mp.max_msg_words), mp);
}

double AlgModel::energy(double n, double p, double M,
                        const MachineParams& mp) const {
  const Costs c = costs(n, p, M, mp.max_msg_words);
  return energy_of(c, p, M, time_of(c, mp), mp);
}

EnergyBreakdown AlgModel::breakdown(double n, double p, double M,
                                    const MachineParams& mp) const {
  const Costs c = costs(n, p, M, mp.max_msg_words);
  return energy_breakdown(c, p, M, time_of(c, mp), mp);
}

double AlgModel::avg_power(double n, double p, double M,
                           const MachineParams& mp) const {
  return energy(n, p, M, mp) / time(n, p, M, mp);
}

double AlgModel::proc_power(double n, double p, double M,
                            const MachineParams& mp) const {
  return avg_power(n, p, M, mp) / p;
}

bool AlgModel::in_strong_scaling_range(double n, double p, double M) const {
  return p >= p_min(n, M) * kFitSlack && p <= p_max(n, M) / kFitSlack;
}

// --- Classical matrix multiplication ---

Costs ClassicalMatmulModel::costs(double n, double p, double M,
                                  double m) const {
  check_npm(n, p, M);
  ALGE_REQUIRE(M >= min_memory(n, p) * kFitSlack,
               "M=%g too small: one copy of the matrices needs %g words", M,
               min_memory(n, p));
  const double Meff = std::min(M, max_useful_memory(n, p));
  Costs c;
  c.F = n * n * n / p;
  c.W = n * n * n / (p * std::sqrt(Meff));
  c.S = c.W / m;
  return c;
}

double ClassicalMatmulModel::min_memory(double n, double p) const {
  return n * n / p;
}

double ClassicalMatmulModel::max_useful_memory(double n, double p) const {
  return n * n / std::pow(p, 2.0 / 3.0);
}

double ClassicalMatmulModel::p_min(double n, double M) const {
  return n * n / M;
}

double ClassicalMatmulModel::p_max(double n, double M) const {
  return n * n * n / std::pow(M, 1.5);
}

// --- Strassen / fast matrix multiplication ---

StrassenModel::StrassenModel(double omega0) : omega0_(omega0) {
  ALGE_REQUIRE(omega0 > 2.0 && omega0 <= 3.0, "omega0=%g out of (2,3]",
               omega0);
}

std::string StrassenModel::name() const {
  return strfmt("strassen-mm(w0=%.4f)", omega0_);
}

Costs StrassenModel::costs(double n, double p, double M, double m) const {
  check_npm(n, p, M);
  ALGE_REQUIRE(M >= min_memory(n, p) * kFitSlack,
               "M=%g too small: one copy of the matrices needs %g words", M,
               min_memory(n, p));
  const double Meff = std::min(M, max_useful_memory(n, p));
  Costs c;
  c.F = std::pow(n, omega0_) / p;
  c.W = std::pow(n, omega0_) / (p * std::pow(Meff, omega0_ / 2.0 - 1.0));
  c.S = c.W / m;
  return c;
}

double StrassenModel::min_memory(double n, double p) const {
  return n * n / p;
}

double StrassenModel::max_useful_memory(double n, double p) const {
  return n * n / std::pow(p, 2.0 / omega0_);
}

double StrassenModel::p_min(double n, double M) const { return n * n / M; }

double StrassenModel::p_max(double n, double M) const {
  return std::pow(n, omega0_) / std::pow(M, omega0_ / 2.0);
}

// --- Direct n-body ---

NBodyModel::NBodyModel(double flops_per_interaction)
    : f_(flops_per_interaction) {
  ALGE_REQUIRE(f_ > 0.0, "flops per interaction must be positive");
}

Costs NBodyModel::costs(double n, double p, double M, double m) const {
  check_npm(n, p, M);
  ALGE_REQUIRE(M >= min_memory(n, p) * kFitSlack,
               "M=%g too small: the particles need %g words per processor",
               M, min_memory(n, p));
  const double Meff = std::min(M, max_useful_memory(n, p));
  Costs c;
  c.F = f_ * n * n / p;
  c.W = n * n / (p * Meff);
  c.S = c.W / m;
  return c;
}

double NBodyModel::min_memory(double n, double p) const { return n / p; }

double NBodyModel::max_useful_memory(double n, double p) const {
  return n / std::sqrt(p);
}

double NBodyModel::p_min(double n, double M) const { return n / M; }

double NBodyModel::p_max(double n, double M) const { return n * n / (M * M); }

// --- 2.5D LU ---

Costs LuModel::costs(double n, double p, double M, double m) const {
  check_npm(n, p, M);
  ALGE_REQUIRE(M >= min_memory(n, p) * kFitSlack,
               "M=%g too small: one copy of the matrix needs %g words", M,
               min_memory(n, p));
  (void)m;
  const double Meff = std::min(M, max_useful_memory(n, p));
  Costs c;
  c.F = n * n * n / p;
  c.W = n * n * n / (p * std::sqrt(Meff));
  // Critical-path latency: S = n²/W = p·√M/n, which *grows* with p·√M —
  // this is the term that breaks perfect strong scaling for LU.
  c.S = n * n / c.W;
  return c;
}

double LuModel::min_memory(double n, double p) const { return n * n / p; }

double LuModel::max_useful_memory(double n, double p) const {
  return n * n / std::pow(p, 2.0 / 3.0);
}

double LuModel::p_min(double n, double M) const { return n * n / M; }

double LuModel::p_max(double n, double M) const {
  // Bandwidth term scales like matmul; latency never does. We report the
  // bandwidth range; callers examine S separately.
  return n * n * n / std::pow(M, 1.5);
}

// --- FFT ---

FftModel::FftModel(AllToAll variant) : variant_(variant) {}

std::string FftModel::name() const {
  return variant_ == AllToAll::kNaive ? "fft(naive-a2a)" : "fft(tree-a2a)";
}

Costs FftModel::costs(double n, double p, double M, double m) const {
  check_npm(n, p, M);
  ALGE_REQUIRE(M >= min_memory(n, p) * kFitSlack,
               "M=%g too small: the FFT input needs %g words per processor",
               M, min_memory(n, p));
  Costs c;
  c.F = n * std::log2(n) / p;
  if (p <= 1.0) return c;  // no communication on one processor
  if (variant_ == AllToAll::kNaive) {
    c.W = n / p;
    c.S = p;
  } else {
    c.W = n * std::log2(p) / p;
    c.S = std::log2(p);
  }
  (void)m;  // the paper's FFT message counts are structural, not W/m
  return c;
}

double FftModel::min_memory(double n, double p) const { return n / p; }

double FftModel::max_useful_memory(double n, double p) const {
  return n / p;  // extra memory has no use (Section IV)
}

double FftModel::p_min(double n, double M) const { return n / M; }

double FftModel::p_max(double n, double M) const {
  return n / M;  // empty range: no perfect strong scaling regime
}

// --- factory ---

std::unique_ptr<AlgModel> make_model(const std::string& name, double f,
                                     double omega0) {
  if (name == "nbody") return std::make_unique<NBodyModel>(f);
  if (name == "classical-mm") return std::make_unique<ClassicalMatmulModel>();
  if (name == "strassen") return std::make_unique<StrassenModel>(omega0);
  if (name == "lu-2.5d") return std::make_unique<LuModel>();
  if (name == "fft-naive") {
    return std::make_unique<FftModel>(FftModel::AllToAll::kNaive);
  }
  if (name == "fft-tree") {
    return std::make_unique<FftModel>(FftModel::AllToAll::kTree);
  }
  std::string options;
  for (const std::string& known : model_names()) {
    options += (options.empty() ? "\"" : ", \"") + known + "\"";
  }
  throw invalid_argument_error(strfmt("unknown model \"%s\" (use %s)",
                                      name.c_str(), options.c_str()));
}

const std::vector<std::string>& model_names() {
  static const std::vector<std::string> names = {
      "nbody", "classical-mm", "strassen", "lu-2.5d", "fft-naive", "fft-tree"};
  return names;
}

}  // namespace alge::core
