// Analytic per-algorithm cost models (Section IV of the paper).
//
// Every algorithm is described by its per-processor asymptotic counts
// F(n,p,M), W(n,p,M), S = W/m (constants omitted, exactly as in the paper),
// plus the memory range within which the communication-avoiding algorithm
// can actually use the memory. Time and energy then follow mechanically
// from Eqs. (1) and (2); the explicit closed forms of the paper
// (Eqs. 9–16) live in closed_forms.hpp and are tested to agree with this
// generic evaluation.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/bounds.hpp"
#include "core/costs.hpp"
#include "core/params.hpp"

namespace alge::core {

class AlgModel {
 public:
  virtual ~AlgModel() = default;

  virtual std::string name() const = 0;

  /// Per-processor counts for problem size n on p processors using M words
  /// of memory per processor; m is the message-size cap. Implementations
  /// clamp the *communication-effective* memory at max_useful_memory — extra
  /// memory beyond the 3D/replication limit cannot reduce communication
  /// (Ballard et al. [12]) but is still paid for in the δe·M·T term.
  virtual Costs costs(double n, double p, double M, double m) const = 0;

  /// Smallest M for which the problem fits: one copy of the data spread
  /// over p processors.
  virtual double min_memory(double n, double p) const = 0;

  /// Largest M that can still reduce communication (the 3D / full
  /// replication limit). For FFT this equals min_memory: extra memory has
  /// no use.
  virtual double max_useful_memory(double n, double p) const = 0;

  /// Perfect strong scaling range in p for fixed per-processor memory M:
  /// [p_min, p_max]. Within it, T scales as 1/p and E is independent of p.
  /// Models with no such region (FFT, and LU's latency term) return
  /// p_max <= p_min.
  virtual double p_min(double n, double M) const = 0;
  virtual double p_max(double n, double M) const = 0;

  /// At fixed M inside [p_min, p_max], F and W scale as 1/p. S does too
  /// (S = W/m) unless this is true, in which case S ∝ p — LU's
  /// critical-path latency. core::Optimizer relies on this shape.
  virtual bool latency_grows_with_p() const { return false; }

  /// Per-processor communication lower bound W at (n, p, M): the Section
  /// III bound (Eqs. 3–5) with the memory-independent floor of Ballard et
  /// al. [12], constants omitted like core/bounds. One processor is never
  /// forced to communicate, so p < 2 gives 0.
  double words_lower_bound(double n, double p, double M) const {
    return p < 2.0 ? 0.0 : parallel_words_bound(n, p, M);
  }
  /// The bound for p >= 2; 0 when core/bounds has none (FFT).
  virtual double parallel_words_bound(double, double, double) const {
    return 0.0;
  }

  // --- Derived quantities (Eqs. 1 and 2) ---
  double time(double n, double p, double M, const MachineParams& mp) const;
  double energy(double n, double p, double M, const MachineParams& mp) const;
  EnergyBreakdown breakdown(double n, double p, double M,
                            const MachineParams& mp) const;
  /// Average power P = E / T.
  double avg_power(double n, double p, double M,
                   const MachineParams& mp) const;
  /// Per-processor average power (the bound of Eq. 20 applies to this).
  double proc_power(double n, double p, double M,
                    const MachineParams& mp) const;

  bool in_strong_scaling_range(double n, double p, double M) const;
};

/// Classical O(n³) matrix multiplication run as 2D/2.5D/3D depending on M
/// (Eq. 8): F = n³/p, W = n³/(p·√M), S = W/m; n²/p ≤ M ≤ n²/p^(2/3).
class ClassicalMatmulModel final : public AlgModel {
 public:
  std::string name() const override { return "classical-mm"; }
  Costs costs(double n, double p, double M, double m) const override;
  double min_memory(double n, double p) const override;
  double max_useful_memory(double n, double p) const override;
  double p_min(double n, double M) const override;
  double p_max(double n, double M) const override;
  double parallel_words_bound(double n, double p, double M) const override {
    return bounds::matmul_words(n, p, M);
  }
};

/// Fast (Strassen-like) matrix multiplication via CAPS [15]:
/// F = n^ω0/p, W = n^ω0/(p·M^(ω0/2-1)), S = W/m; n²/p ≤ M ≤ n²/p^(2/ω0).
class StrassenModel final : public AlgModel {
 public:
  /// ω0 defaults to log2(7) ≈ 2.807 (Strassen).
  explicit StrassenModel(double omega0 = kStrassenOmega);
  static constexpr double kStrassenOmega = 2.8073549220576042;  // log2 7

  std::string name() const override;
  double omega() const { return omega0_; }
  Costs costs(double n, double p, double M, double m) const override;
  double min_memory(double n, double p) const override;
  double max_useful_memory(double n, double p) const override;
  double p_min(double n, double M) const override;
  double p_max(double n, double M) const override;
  double parallel_words_bound(double n, double p, double M) const override {
    return bounds::strassen_words(n, p, M, omega0_);
  }

 private:
  double omega0_;
};

/// Direct O(n²) n-body with data replication [16]:
/// F = f·n²/p, W = n²/(p·M), S = W/m; n/p ≤ M ≤ n/√p.
class NBodyModel final : public AlgModel {
 public:
  /// f = flops per pairwise interaction.
  explicit NBodyModel(double flops_per_interaction = 1.0);

  std::string name() const override { return "nbody"; }
  double interaction_flops() const { return f_; }
  Costs costs(double n, double p, double M, double m) const override;
  double min_memory(double n, double p) const override;
  double max_useful_memory(double n, double p) const override;
  double p_min(double n, double M) const override;
  double p_max(double n, double M) const override;
  double parallel_words_bound(double n, double p, double M) const override {
    return bounds::nbody_words(n, p, M);
  }

 private:
  double f_;
};

/// 2.5D LU factorization [11]: F = n³/p, W = n³/(p·√M), but S = n²/W
/// = p·√M/n — the latency term does NOT strong-scale (critical path).
class LuModel final : public AlgModel {
 public:
  std::string name() const override { return "lu-2.5d"; }
  Costs costs(double n, double p, double M, double m) const override;
  double min_memory(double n, double p) const override;
  double max_useful_memory(double n, double p) const override;
  /// Bandwidth-only scaling range (the paper's point is that S breaks it).
  double p_min(double n, double M) const override;
  double p_max(double n, double M) const override;
  bool latency_grows_with_p() const override { return true; }
  /// LU does n³/3 useful flops: the matmul bound at a third.
  double parallel_words_bound(double n, double p, double M) const override {
    return bounds::matmul_words(n, p, M) / 3.0;
  }
};

/// Parallel FFT, cyclic layout. No perfect strong scaling range and no use
/// for extra memory (M = n/p always).
class FftModel final : public AlgModel {
 public:
  enum class AllToAll { kNaive, kTree };
  explicit FftModel(AllToAll variant);

  std::string name() const override;
  /// kNaive: W = n/p, S = p.  kTree: W = n·log2(p)/p, S = log2(p).
  Costs costs(double n, double p, double M, double m) const override;
  double min_memory(double n, double p) const override;
  double max_useful_memory(double n, double p) const override;
  double p_min(double n, double M) const override;
  double p_max(double n, double M) const override;

 private:
  AllToAll variant_;
};

/// Model factory over the request-level names (model_names()) shared by
/// src/serve, src/navigator and the algs table; `f` feeds NBodyModel,
/// `omega0` feeds StrassenModel. Throws invalid_argument_error on an
/// unknown name, listing the options.
std::unique_ptr<AlgModel> make_model(
    const std::string& name, double f = 1.0,
    double omega0 = StrassenModel::kStrassenOmega);

/// Every name make_model accepts, in a fixed order.
const std::vector<std::string>& model_names();

}  // namespace alge::core
