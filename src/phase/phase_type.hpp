// Continuous phase-type distributions PH(alpha, T).
//
// A PH distribution is the absorption time of a CTMC with transient phase
// set {0..m-1}, initial distribution alpha, and sub-generator T (the exit
// rate of phase s is -T(s,s) - sum of off-diagonals). The busy-period
// transformation of paper §5.2 replaces M/M/1 busy periods with a 2-phase
// Coxian, which is a PH distribution; this class provides the general
// machinery (moments, sampling, rescaling) plus the specific constructors.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"
#include "markov/birth_death.hpp"
#include "rng/xoshiro.hpp"

namespace esched {

/// A continuous phase-type distribution.
class PhaseType {
 public:
  /// alpha: initial phase probabilities (must sum to 1). T: sub-generator
  /// (negative diagonal, non-negative off-diagonals, row sums <= 0, with at
  /// least one strictly negative row sum so absorption is reachable).
  PhaseType(Vector alpha, Matrix t);

  std::size_t num_phases() const { return alpha_.size(); }
  const Vector& alpha() const { return alpha_; }
  const Matrix& sub_generator() const { return t_; }

  /// Exit (absorption) rate vector t0 = -T 1.
  const Vector& exit_rates() const { return exit_; }

  /// n-th raw moment E[X^n] = n! alpha (-T)^{-n} 1, n >= 1.
  double raw_moment(int n) const;

  /// First three raw moments.
  Moments3 moments3() const;

  double mean() const { return raw_moment(1); }
  double variance() const;
  /// Squared coefficient of variation.
  double scv() const;

  /// Draws one sample by simulating the phase process.
  double sample(Xoshiro256& rng) const;

  /// The distribution of `time_scale * X` (same alpha, sub-generator
  /// T / time_scale): every moment of order n scales by time_scale^n and
  /// the SCV is preserved. This is how a unit-mean shape is rescaled to a
  /// class's mean job size (see phase/size_dist).
  PhaseType scaled_by(double time_scale) const;

  // ---- Named constructors -------------------------------------------------

  /// Exponential with the given rate.
  static PhaseType exponential(double rate);

  /// Erlang: `stages` sequential exponential stages with rate `rate` each.
  static PhaseType erlang(int stages, double rate);

  /// Hyperexponential: exponential with rates[i] chosen w.p. probs[i].
  static PhaseType hyperexponential(const Vector& probs, const Vector& rates);

  /// Two-phase Coxian: phase 1 at rate nu1; on completion continue to phase
  /// 2 (rate nu2) with probability p, else absorb.
  static PhaseType coxian2(double nu1, double nu2, double p);

  /// General Coxian: sequential phases with given rates; after phase i,
  /// continue with probability continue_probs[i] (size rates.size()-1).
  static PhaseType coxian(const Vector& rates, const Vector& continue_probs);

 private:
  Vector alpha_;
  Matrix t_;
  Vector exit_;
};

}  // namespace esched
