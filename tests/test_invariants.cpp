// Tests for the gated runtime invariant layer (common/invariants).
// The check functions exist in every build type, so the good/bad input
// behavior is tested unconditionally; the solver-boundary wiring through
// ESCHED_DEBUG_CHECK only fires in -DESCHED_DEBUG_INVARIANTS=ON builds
// (the sanitizer CI jobs), so those assertions are gated on enabled().
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/invariants.hpp"
#include "linalg/csr.hpp"
#include "linalg/matrix.hpp"
#include "markov/stationary.hpp"

namespace esched {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// Off-diagonal rates of the 2-state chain 0 <-> 1 (rates 2 and 3).
CsrMatrix two_state_rates() {
  return CsrMatrix::from_triplets(2, 2, {{0, 1, 2.0}, {1, 0, 3.0}});
}

TEST(Require, OnlyFalseThrowsAndNamesTheSite) {
  EXPECT_NO_THROW(invariants::require(true, "here", "fine"));
  try {
    invariants::require(false, "claim_chunk", "chunk index out of range");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("debug invariant violated"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("claim_chunk"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("chunk index"), std::string::npos);
  }
}

TEST(CheckGenerator, ConservativeSplitGeneratorPasses) {
  EXPECT_NO_THROW(invariants::check_generator(two_state_rates(), {2.0, 3.0},
                                              "test"));
}

TEST(CheckGenerator, AccumulationRoundoffIsTolerated) {
  const double drift = 3.0 * (1.0 + 1e-12);
  EXPECT_NO_THROW(invariants::check_generator(two_state_rates(), {2.0, drift},
                                              "test"));
}

TEST(CheckGenerator, RejectsStructuralViolations) {
  const CsrMatrix rates = two_state_rates();
  // Not square.
  const CsrMatrix rect = CsrMatrix::from_triplets(2, 3, {{0, 2, 1.0}});
  EXPECT_THROW(invariants::check_generator(rect, {1.0, 0.0}, "t"), Error);
  // Exit-rate dimension mismatch.
  EXPECT_THROW(invariants::check_generator(rates, {2.0}, "t"), Error);
  // Diagonal entry stored in the off-diagonal matrix.
  const CsrMatrix diag =
      CsrMatrix::from_triplets(2, 2, {{0, 0, -2.0}, {0, 1, 2.0}, {1, 0, 3.0}});
  EXPECT_THROW(invariants::check_generator(diag, {0.0, 3.0}, "t"), Error);
  // Negative and non-finite rates.
  const CsrMatrix neg =
      CsrMatrix::from_triplets(2, 2, {{0, 1, -2.0}, {1, 0, 3.0}});
  EXPECT_THROW(invariants::check_generator(neg, {-2.0, 3.0}, "t"), Error);
  const CsrMatrix nan =
      CsrMatrix::from_triplets(2, 2, {{0, 1, kNan}, {1, 0, 3.0}});
  EXPECT_THROW(invariants::check_generator(nan, {kNan, 3.0}, "t"), Error);
  // Negative exit rate.
  EXPECT_THROW(invariants::check_generator(rates, {2.0, -3.0}, "t"), Error);
  // Non-conservative row: rate mass leaks (exit != row sum).
  EXPECT_THROW(invariants::check_generator(rates, {2.5, 3.0}, "t"), Error);
}

TEST(CheckProbabilityVector, NormalizedVectorPasses) {
  EXPECT_NO_THROW(invariants::check_probability_vector({0.25, 0.75}, "test"));
  // Roundoff-negative entries are tolerated; genuine negative mass is not.
  EXPECT_NO_THROW(
      invariants::check_probability_vector({1.0 + 1e-13, -1e-13}, "test"));
}

TEST(CheckProbabilityVector, RejectsBadMass) {
  EXPECT_THROW(invariants::check_probability_vector({}, "t"), Error);
  EXPECT_THROW(invariants::check_probability_vector({0.5, kNan}, "t"), Error);
  EXPECT_THROW(invariants::check_probability_vector({1.000001, -1e-6}, "t"),
               Error);
  EXPECT_THROW(invariants::check_probability_vector({0.5, 0.4}, "t"), Error);
}

TEST(CheckCsr, FromTripletsSatisfiesTheContract) {
  const CsrMatrix m = CsrMatrix::from_triplets(
      3, 3, {{2, 0, 1.0}, {0, 2, 2.0}, {0, 1, 3.0}, {1, 1, 4.0}});
  EXPECT_NO_THROW(invariants::check_csr(m, "test"));
}

TEST(CheckCsr, EmptyMatrixSatisfiesTheContract) {
  // A default-constructed 0 x 0 matrix carries row_ptr == {0}: one offset
  // covering zero rows. Every public constructor maintains the contract —
  // the check exists to catch internal corruption, not reachable states.
  EXPECT_NO_THROW(invariants::check_csr(CsrMatrix(), "test"));
  EXPECT_NO_THROW(
      invariants::check_csr(CsrMatrix::from_triplets(2, 2, {}), "test"));
}

TEST(DebugCheckMacro, CompilesInBothModesAndFiresOnlyWhenEnabled) {
  // Always compiles; a no-op unless the build defines the option.
  ESCHED_DEBUG_CHECK(require(true, "macro", "no-op"));
  if constexpr (invariants::enabled()) {
    EXPECT_THROW(ESCHED_DEBUG_CHECK(require(false, "macro", "fires")), Error);
  } else {
    EXPECT_NO_THROW(ESCHED_DEBUG_CHECK(require(false, "macro", "inactive")));
  }
}

TEST(SolverWiring, BadGeneratorIsRejectedAtTheSolverBoundaryWhenEnabled) {
  // The gth entry point carries ESCHED_DEBUG_CHECK(check_generator(...)):
  // a non-conservative split generator must be rejected before the solve
  // in invariant builds (the sanitizer CI jobs run this arm).
  if constexpr (invariants::enabled()) {
    const CsrMatrix rates = two_state_rates();
    const Vector leaky_exits = {2.5, 3.0};
    EXPECT_THROW(gth_stationary(rates, leaky_exits), Error);
  }
}

TEST(SolverWiring, SolverOutputsSatisfyTheProbabilityContract) {
  // End-to-end: a real solve's output passes the same check the solvers
  // apply to themselves in invariant builds.
  const Vector pi = gth_stationary(two_state_rates(), {2.0, 3.0});
  EXPECT_NO_THROW(invariants::check_probability_vector(pi, "test"));
  EXPECT_NEAR(pi[0], 0.6, 1e-12);
  EXPECT_NEAR(pi[1], 0.4, 1e-12);
}

}  // namespace
}  // namespace esched
