// Unit tests for the QBD matrix-analytic solver: validated against M/M/1
// (single phase), M/M/k (boundary levels), and brute-force GTH solves of
// deeply truncated versions of the same processes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/ef_analysis.hpp"
#include "core/if_analysis.hpp"
#include "markov/ctmc.hpp"
#include "markov/stationary.hpp"
#include "qbd/qbd.hpp"
#include "queueing/mm1.hpp"
#include "queueing/mmk.hpp"
#include "support/qbd_levels.hpp"

namespace esched {
namespace {

/// M/M/1 as a QBD with a single phase.
QbdProcess mm1_qbd(double lambda, double mu) {
  QbdProcess p;
  p.num_phases = 1;
  p.first_repeating = 1;
  Matrix up(1, 1);
  up(0, 0) = lambda;
  Matrix zero(1, 1);
  Matrix down(1, 1);
  down(0, 0) = mu;
  p.up = {up};
  p.local = {zero};
  p.down = {zero};
  p.rep_up = up;
  p.rep_local = zero;
  p.rep_down = down;
  return p;
}

/// M/M/k as a QBD: single phase, boundary levels 0..k-1 with service i*mu.
QbdProcess mmk_qbd(double lambda, double mu, int k) {
  QbdProcess p;
  p.num_phases = 1;
  p.first_repeating = static_cast<std::size_t>(k);
  Matrix up(1, 1);
  up(0, 0) = lambda;
  Matrix zero(1, 1);
  for (int l = 0; l < k; ++l) {
    Matrix down(1, 1);
    down(0, 0) = static_cast<double>(l) * mu;
    p.up.push_back(up);
    p.local.push_back(zero);
    p.down.push_back(down);
  }
  Matrix rep_down(1, 1);
  rep_down(0, 0) = static_cast<double>(k) * mu;
  p.rep_up = up;
  p.rep_local = zero;
  p.rep_down = rep_down;
  return p;
}

TEST(Qbd, MM1GeometricSolution) {
  const double lambda = 0.6;
  const double mu = 1.0;
  const QbdSolution sol = solve_qbd(mm1_qbd(lambda, mu));
  const double rho = lambda / mu;
  // R is scalar rho; levels are geometric; mean level is rho/(1-rho).
  EXPECT_NEAR(sol.r(0, 0), rho, 1e-12);
  EXPECT_NEAR(qbd_level_probability(sol, 0), 1.0 - rho, 1e-12);
  EXPECT_NEAR(qbd_level_probability(sol, 5), (1.0 - rho) * std::pow(rho, 5),
              1e-12);
  EXPECT_NEAR(sol.mean_level, MM1(lambda, mu).mean_jobs(), 1e-10);
}

TEST(Qbd, MMkMatchesErlangC) {
  for (int k : {2, 4, 7}) {
    const double mu = 1.0;
    const double lambda = 0.75 * k * mu;
    const QbdSolution sol = solve_qbd(mmk_qbd(lambda, mu, k));
    EXPECT_NEAR(sol.mean_level, MMk(lambda, mu, k).mean_jobs(), 1e-9)
        << "k=" << k;
  }
}

/// A two-phase QBD with phase switching, solved both matrix-analytically
/// and by GTH on a deep truncation.
QbdProcess two_phase_qbd() {
  QbdProcess p;
  p.num_phases = 2;
  p.first_repeating = 1;
  Matrix up(2, 2);
  up(0, 0) = 0.5;  // arrivals in phase 0
  up(1, 1) = 0.2;  // slower arrivals in phase 1
  Matrix local(2, 2);
  local(0, 1) = 0.3;  // phase flip rates
  local(1, 0) = 0.7;
  Matrix down0(2, 2);
  Matrix down(2, 2);
  down(0, 0) = 1.0;  // service in phase 0
  down(1, 1) = 0.4;  // slower service in phase 1
  p.up = {up};
  p.local = {local};
  p.down = {down0};
  p.rep_up = up;
  p.rep_local = local;
  p.rep_down = down;
  return p;
}

TEST(Qbd, TwoPhaseAgreesWithTruncatedGth) {
  const QbdProcess p = two_phase_qbd();
  const QbdSolution sol = solve_qbd(p);
  EXPECT_LT(sol.r_residual, 1e-10);

  // Brute force: truncate at 200 levels and solve with GTH.
  const std::size_t levels = 200;
  SparseCtmc chain(levels * 2);
  const auto idx = [](std::size_t level, std::size_t phase) {
    return level * 2 + phase;
  };
  for (std::size_t l = 0; l < levels; ++l) {
    for (std::size_t s = 0; s < 2; ++s) {
      if (l + 1 < levels) {
        chain.add_rate(idx(l, s), idx(l + 1, s), p.rep_up(s, s));
      }
      for (std::size_t s2 = 0; s2 < 2; ++s2) {
        if (s2 != s && p.rep_local(s, s2) > 0) {
          chain.add_rate(idx(l, s), idx(l, s2), p.rep_local(s, s2));
        }
      }
      if (l >= 1 && p.rep_down(s, s) > 0) {
        chain.add_rate(idx(l, s), idx(l - 1, s), p.rep_down(s, s));
      }
    }
  }
  chain.freeze();
  const Vector pi = gth_stationary(chain.rate_matrix(), chain.exit_rates());

  // Compare level distributions and the mean.
  double mean = 0.0;
  for (std::size_t l = 0; l < levels; ++l) {
    const double mass = pi[idx(l, 0)] + pi[idx(l, 1)];
    mean += static_cast<double>(l) * mass;
    if (l <= 10) {
      EXPECT_NEAR(qbd_level_probability(sol, l), mass, 1e-8)
          << "level " << l;
    }
  }
  EXPECT_NEAR(sol.mean_level, mean, 1e-6);

  // Phase marginal must also agree.
  const Vector marginal = qbd_phase_marginal(sol);
  double phase0 = 0.0;
  for (std::size_t l = 0; l < levels; ++l) phase0 += pi[idx(l, 0)];
  EXPECT_NEAR(marginal[0], phase0, 1e-8);
  EXPECT_NEAR(marginal[0] + marginal[1], 1.0, 1e-10);
}

TEST(Qbd, BoundaryLevelsWithDifferentRates) {
  // M/M/3-style: three boundary levels, checked against GTH truncation.
  const QbdProcess p = mmk_qbd(2.0, 1.0, 3);
  const QbdSolution sol = solve_qbd(p);

  const std::size_t levels = 150;
  SparseCtmc chain(levels);
  for (std::size_t l = 0; l + 1 < levels; ++l) {
    chain.add_rate(l, l + 1, 2.0);
  }
  for (std::size_t l = 1; l < levels; ++l) {
    chain.add_rate(l, l - 1, std::min<double>(static_cast<double>(l), 3.0));
  }
  chain.freeze();
  const Vector pi = gth_stationary(chain.rate_matrix(), chain.exit_rates());
  for (std::size_t l = 0; l <= 8; ++l) {
    EXPECT_NEAR(qbd_level_probability(sol, l), pi[l], 1e-9)
        << "level " << l;
  }
}

TEST(Qbd, ProbabilitiesSumToOne) {
  const QbdSolution sol = solve_qbd(two_phase_qbd());
  double total = 0.0;
  for (std::size_t l = 0; l < 2000; ++l) {
    total += qbd_level_probability(sol, l);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

/// The message of the esched::Error that `solve` throws, or "" if none.
template <typename Solve>
std::string error_message(Solve solve) {
  try {
    solve();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Qbd, UnstableProcessThrows) {
  // Up drift above, then equal to, the down drift (null recurrent: no
  // stationary law). The mean-drift check rejects both before the
  // reduction starts, so neither reports a stalled reduction.
  for (const double lambda : {2.0, 1.0}) {
    const std::string what =
        error_message([&] { solve_qbd(mm1_qbd(lambda, 1.0)); });
    EXPECT_NE(what.find("QBD is not positive recurrent (mean drift"),
              std::string::npos)
        << "lambda=" << lambda << ": " << what;
  }
}

TEST(Qbd, NearlyCriticalMM1MeanLevel) {
  // At rho = 1 - 1e-6 a linearly converging R iteration stops far short of
  // the fixed point; the mean level rho/(1-rho) ~ 1e6 exposes it.
  const double rho = 1.0 - 1e-6;
  const QbdSolution sol = solve_qbd(mm1_qbd(rho, 1.0));
  const double expected = rho / (1.0 - rho);
  EXPECT_NEAR(sol.mean_level, expected, 1e-3 * expected);
}

TEST(Qbd, ValidateCatchesShapeErrors) {
  QbdProcess p = mm1_qbd(0.5, 1.0);
  p.rep_down = Matrix(2, 2);
  EXPECT_THROW(p.validate(), Error);
  QbdProcess q = mm1_qbd(0.5, 1.0);
  q.down[0](0, 0) = 1.0;  // down from level 0 is impossible
  EXPECT_THROW(q.validate(), Error);
}

TEST(QbdAnalysis, UnreachablePhasesThrowStabilityError) {
  // With no traffic of the class whose busy period the phases model, those
  // phases are unreachable and absorbing in A0 + A1 + A2 (more than one
  // closed class), so the drift check has no unique phase law to weigh.
  // The analyses must still fail with the stability error, not a bare
  // singular-matrix one.
  SystemParams no_inelastic;
  no_inelastic.k = 4;
  no_inelastic.lambda_e = 2.0;
  SystemParams no_elastic;
  no_elastic.k = 4;
  no_elastic.lambda_i = 2.0;
  const std::string if_what = error_message([&] {
    analyze_inelastic_first(no_inelastic, BusyFitOrder::kThreeMoment);
  });
  const std::string ef_what = error_message([&] {
    analyze_elastic_first(no_elastic, BusyFitOrder::kThreeMoment);
  });
  for (const std::string& what : {if_what, ef_what}) {
    EXPECT_NE(what.find("QBD is not positive recurrent: its phase process "
                        "A0 + A1 + A2 has more than one closed class"),
              std::string::npos)
        << what;
  }
}

std::string hexfloat(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

TEST(QbdAnalysis, BitwisePinned) {
  // The CSV goldens print 12 significant digits, so this is what pins the
  // bits of the QBD analyses (fit, reduction, R, boundary solve, mean
  // level): the same floating-point operations in the same order. The
  // expected values were recorded before the QBD solve stopped allocating
  // per matrix operation. The fourth field, the residual
  // max-abs(A0 + R A1 + R^2 A2), was re-pinned when it replaced sp(R) in
  // the analyses' output. Never regenerate them to make a change pass.
  struct Pin {
    double mean_response_time, mean_jobs_i, mean_jobs_e, residual;
    int iterations;
  };
  // One row per case, in the loop order below: IF then EF; k 1, 2, 4, 8;
  // rho 0.5, 0.9, 0.98; mu_I above then below mu_E; fit orders 1, 2, 3.
  static const Pin expected[] = {
      {0x1.0a72cbd6f85ccp+1, 0x1.3333333333334p-3, 0x1.8bdb389ebaccap-1,
       0x1p-55, 6},
      {0x1.0bebebebebec1p+1, 0x1.3333333333334p-3, 0x1.8e78356d14093p-1,
       0x1.4p-54, 6},
      {0x1.0bebebebebec1p+1, 0x1.3333333333334p-3, 0x1.8e78356d14094p-1,
       0x1p-54, 6},
      {0x1.435481693b2cbp+1, 0x1.2c234f72c235p-1, 0x1.116beab4fd94bp-1,
       0x1p-56, 6},
      {0x1.718c079daf572p+1, 0x1.2c234f72c235p-1, 0x1.6368031209fadp-1,
       0x1p-54, 6},
      {0x1.718c079daf574p+1, 0x1.2c234f72c235p-1, 0x1.6368031209fbp-1,
       0x1p-54, 7},
      {0x1.2d1035a5f6ef3p+3, 0x1.3a2e8ba2e8ba3p-2, 0x1.cd048c88a99a8p+2,
       0x1p-53, 8},
      {0x1.33d7d7d7d7c67p+3, 0x1.3a2e8ba2e8ba3p-2, 0x1.d7d78693bb15cp+2,
       0x1.4p-51, 8},
      {0x1.33d7d7d7d7dc2p+3, 0x1.3a2e8ba2e8ba3p-2, 0x1.d7d78693bb386p+2,
       0x1p-53, 8},
      {0x1.5f29a2306d6ebp+3, 0x1.fcace213f2b3ap+0, 0x1.b1784e341234p+2,
       0x1p-53, 8},
      {0x1.5fd21b3fd21e9p+4, 0x1.fcace213f2b3ap+0, 0x1.f21ae2f1fa873p+3,
       0x1.8p-53, 10},
      {0x1.5fd21b3fd21aep+4, 0x1.fcace213f2b3ap+0, 0x1.f21ae2f1fa815p+3,
       0x1p-53, 10},
      {0x1.6e92360c05b1fp+5, 0x1.5fb37072d753cp-2, 0x1.3be1e14ca2c91p+5,
       0x1p-53, 11},
      {0x1.78e6b6dd26a55p+5, 0x1.5fb37072d753cp-2, 0x1.44dc873ac75ap+5,
       0x1p-51, 11},
      {0x1.78e6b6dd2529ap+5, 0x1.5fb37072d753cp-2, 0x1.44dc873ac60ffp+5,
       0x1.8p-53, 11},
      {0x1.7f4809ff1cb4dp+5, 0x1.505a72acd1f7fp+1, 0x1.3821fdcb13d21p+5,
       0x1p-54, 11},
      {0x1.fce04875b061cp+6, 0x1.505a72acd1f7fp+1, 0x1.afd01b8714639p+6,
       0x1p-52, 12},
      {0x1.fce04875af00ep+6, 0x1.505a72acd1f7fp+1, 0x1.afd01b871330dp+6,
       0x1p-54, 12},
      {0x1.2bc74fbed16dap+0, 0x1.0fc0fc0fc0fc1p-2, 0x1.8be7780e836eep-1,
       0x1.5p-53, 6},
      {0x1.2c1f3794044bbp+0, 0x1.0fc0fc0fc0fc1p-2, 0x1.8c8367e6347c2p-1,
       0x1.8p-53, 6},
      {0x1.2c1f1cf211027p+0, 0x1.0fc0fc0fc0fc1p-2, 0x1.8c8338a7c1054p-1,
       0x1.cp-54, 6},
      {0x1.893719e75ecf2p+0, 0x1.b64bf1fcead7ap-1, 0x1.033ba496d5d4p-1,
       0x1.cp-54, 6},
      {0x1.a380b0ef8f277p+0, 0x1.b64bf1fcead7ap-1, 0x1.31dd59b07df4p-1,
       0x1p-53, 6},
      {0x1.a32e03d184aafp+0, 0x1.b64bf1fcead7ap-1, 0x1.314ab09c97df8p-1,
       0x1.8p-54, 7},
      {0x1.3871e632f48b4p+2, 0x1.fce2d3bfc110bp-2, 0x1.d3050cdb7cff2p+2,
       0x1.2p-52, 8},
      {0x1.3b07dab936ba5p+2, 0x1.fce2d3bfc110bp-2, 0x1.d725e044c1b51p+2,
       0x1p-52, 8},
      {0x1.3b07656ee3fb8p+2, 0x1.fce2d3bfc110bp-2, 0x1.d725250314328p+2,
       0x1p-52, 8},
      {0x1.a88f4682336b9p+2, 0x1.317887c3ca9p+1, 0x1.068aaa99b6a1p+3,
       0x1.4p-53, 9},
      {0x1.632a8b7a24822p+3, 0x1.317887c3ca9p+1, 0x1.eaa9afd36423cp+3,
       0x1.4p-52, 10},
      {0x1.61eb7283952bep+3, 0x1.317887c3ca9p+1, 0x1.e8ac3d9eca189p+3,
       0x1.4p-53, 10},
      {0x1.76737a8a7a256p+4, 0x1.18181fc248ea6p-1, 0x1.411a595b3097ap+5,
       0x1p-51, 11},
      {0x1.7aa8fa7a1cd7ap+4, 0x1.18181fc248ea6p-1, 0x1.44c2ee39d2394p+5,
       0x1p-51, 11},
      {0x1.7aa8ce8733002p+4, 0x1.18181fc248ea6p-1, 0x1.44c2c80654e0ap+5,
       0x1p-52, 11},
      {0x1.e4ea68f1a0457p+4, 0x1.861f52458ad6p+1, 0x1.8d1d4ea89a8c1p+5,
       0x1p-52, 11},
      {0x1.fdb01c4157e98p+5, 0x1.861f52458ad6p+1, 0x1.aed69a3461b38p+6,
       0x1.8p-52, 12},
      {0x1.fd3631649ad4fp+5, 0x1.861f52458ad6p+1, 0x1.ae6ca12e2adf7p+6,
       0x1p-52, 12},
      {0x1.74620e8f816p-1, 0x1.0b4ad1828873p-1, 0x1.894869b5e94b6p-1,
       0x1.fp-52, 6},
      {0x1.746859753b8fap-1, 0x1.0b4ad1828873p-1, 0x1.8953934d6d736p-1,
       0x1.4p-52, 6},
      {0x1.74685453a8105p-1, 0x1.0b4ad1828873p-1, 0x1.89538a3341f5cp-1,
       0x1.cp-53, 6},
      {0x1.1b511623dcd9cp+0, 0x1.85237e8e0b497p+0, 0x1.c5c3315936f11p-2,
       0x1.4p-53, 6},
      {0x1.204c787360364p+0, 0x1.85237e8e0b497p+0, 0x1.e91cdfcbbe18ep-2,
       0x1.8p-53, 6},
      {0x1.20305b9e4636p+0, 0x1.85237e8e0b497p+0, 0x1.e855659382432p-2,
       0x1.cp-53, 7},
      {0x1.4b95dbb28b4f9p+1, 0x1.e36eeef140ec5p-1, 0x1.d4f44053d174ap+2,
       0x1.4p-50, 8},
      {0x1.4c11339586ef9p+1, 0x1.e36eeef140ec5p-1, 0x1.d5b92beab91b7p+2,
       0x1p-51, 8},
      {0x1.4c10f9cb9e95cp+1, 0x1.e36eeef140ec5p-1, 0x1.d5b8cfa7ed8e5p+2,
       0x1p-51, 8},
      {0x1.06a788f3462c7p+2, 0x1.b44c89d793765p+1, 0x1.36423ea3a56fbp+3,
       0x1.4p-52, 9},
      {0x1.6d85b11d2f2efp+2, 0x1.b44c89d793765p+1, 0x1.da7d4c73b0d0ap+3,
       0x1p-51, 10},
      {0x1.6bbfbb5a2f441p+2, 0x1.b44c89d793765p+1, 0x1.d7a88aa7aab6dp+3,
       0x1.cp-52, 10},
      {0x1.7df8edc4a3794p+3, 0x1.07b870d8b6f9ap+0, 0x1.43c698d05c02ap+5,
       0x1.8p-51, 11},
      {0x1.7edcb23ee0e63p+3, 0x1.07b870d8b6f9ap+0, 0x1.448c938e7dd01p+5,
       0x1.a8p-51, 11},
      {0x1.7edc99fc4dff6p+3, 0x1.07b870d8b6f9ap+0, 0x1.448c7e7827155p+5,
       0x1.cp-51, 11},
      {0x1.322fbc194fcccp+4, 0x1.080103c0a13a4p+2, 0x1.f348e2523e4c3p+5,
       0x1.cp-52, 11},
      {0x1.fff56965fdb3ap+4, 0x1.080103c0a13a4p+2, 0x1.ac80cb835e82cp+6,
       0x1.2p-51, 12},
      {0x1.ff35992112073p+4, 0x1.080103c0a13a4p+2, 0x1.abda113a763bdp+6,
       0x1.8p-52, 12},
      {0x1.046497f214b66p-1, 0x1.0b2187b5f3a4p+0, 0x1.859121ea815e6p-1,
       0x1.bp-51, 6},
      {0x1.04649d8e01f53p-1, 0x1.0b2187b5f3a4p+0, 0x1.859135d0ec772p-1,
       0x1.7p-51, 6},
      {0x1.04649d85e42cfp-1, 0x1.0b2187b5f3a4p+0, 0x1.859135b420daep-1,
       0x1.78p-51, 6},
      {0x1.df97fe0536d46p-1, 0x1.7b547bcbe768ep+1, 0x1.7063de27b6da9p-2,
       0x1.fp-51, 6},
      {0x1.e07bc8506107dp-1, 0x1.7b547bcbe768ep+1, 0x1.76b4301970c48p-2,
       0x1.5p-51, 6},
      {0x1.e07508208435ap-1, 0x1.7b547bcbe768ep+1, 0x1.7684497c5d06fp-2,
       0x1.8p-51, 7},
      {0x1.700f094944bdcp+0, 0x1.e0e52271dcef5p+0, 0x1.d363d793f20f8p+2,
       0x1.dp-50, 8},
      {0x1.7014cd41ec5ccp+0, 0x1.e0e52271dcef5p+0, 0x1.d36d0bff89784p+2,
       0x1.42p-50, 8},
      {0x1.7014c8cb4c18p+0, 0x1.e0e52271dcef5p+0, 0x1.d36d04df4f462p+2,
       0x1.6p-50, 8},
      {0x1.4cf8333b05fdap+1, 0x1.706b9985bcf7cp+2, 0x1.5b62085e5e47ep+3,
       0x1.8p-51, 9},
      {0x1.89af36c998e85p+1, 0x1.706b9985bcf7cp+2, 0x1.bc50cad1cbbbp+3,
       0x1p-50, 10},
      {0x1.884ccdeaa6881p+1, 0x1.706b9985bcf7cp+2, 0x1.ba1af8346c63bp+3,
       0x1.5p-50, 10},
      {0x1.87bdc1e3ef6ccp+2, 0x1.05d888426ce8dp+1, 0x1.44249755bdc91p+5,
       0x1.18p-49, 11},
      {0x1.87cb72a0f3f46p+2, 0x1.05d888426ce8dp+1, 0x1.44307db6e668ap+5,
       0x1.8p-50, 11},
      {0x1.87cb704d672d8p+2, 0x1.05d888426ce8dp+1, 0x1.44307bb13cd99p+5,
       0x1.4p-49, 11},
      {0x1.7ca487c4914b2p+3, 0x1.a726763092553p+2, 0x1.306a139c812abp+6,
       0x1.cp-51, 12},
      {0x1.02f2351792ap+4, 0x1.a726763092553p+2, 0x1.a7b6cc653e25p+6,
       0x1.6p-50, 12},
      {0x1.029de12bf07e3p+4, 0x1.a726763092553p+2, 0x1.a72433342589p+6,
       0x1.6p-50, 12},
      {0x1.435481693b2cbp+1, 0x1.116beab4fd94bp-1, 0x1.2c234f72c2351p-1,
       0x1p-56, 6},
      {0x1.718c079daf573p+1, 0x1.6368031209fadp-1, 0x1.2c234f72c2351p-1,
       0x1p-54, 6},
      {0x1.718c079daf574p+1, 0x1.6368031209fbp-1, 0x1.2c234f72c2351p-1,
       0x1p-54, 7},
      {0x1.0a72cbd6f85ccp+1, 0x1.8bdb389ebaccap-1, 0x1.3333333333334p-3,
       0x1p-55, 6},
      {0x1.0bebebebebec1p+1, 0x1.8e78356d14093p-1, 0x1.3333333333334p-3,
       0x1.4p-54, 6},
      {0x1.0bebebebebec1p+1, 0x1.8e78356d14094p-1, 0x1.3333333333334p-3,
       0x1p-54, 6},
      {0x1.5f29a2306d6d4p+3, 0x1.b1784e3412319p+2, 0x1.fcace213f2b3ap+0,
       0x1p-54, 8},
      {0x1.5fd21b3fd21cdp+4, 0x1.f21ae2f1fa844p+3, 0x1.fcace213f2b3ap+0,
       0x1.4p-54, 10},
      {0x1.5fd21b3fd2199p+4, 0x1.f21ae2f1fa7f1p+3, 0x1.fcace213f2b3ap+0,
       0x1p-53, 10},
      {0x1.2d1035a5f6e6p+3, 0x1.cd048c88a98bep+2, 0x1.3a2e8ba2e8ba4p-2,
       0x1.8p-53, 8},
      {0x1.33d7d7d7d7bf4p+3, 0x1.d7d78693bb0a6p+2, 0x1.3a2e8ba2e8ba4p-2,
       0x1.6p-51, 8},
      {0x1.33d7d7d7d7d96p+3, 0x1.d7d78693bb342p+2, 0x1.3a2e8ba2e8ba4p-2,
       0x1p-54, 8},
      {0x1.7f4809ff1cb4dp+5, 0x1.3821fdcb13d21p+5, 0x1.505a72acd1f81p+1,
       0x1p-54, 11},
      {0x1.fce04875b061cp+6, 0x1.afd01b8714639p+6, 0x1.505a72acd1f81p+1,
       0x1p-52, 12},
      {0x1.fce04875af00ep+6, 0x1.afd01b871330dp+6, 0x1.505a72acd1f81p+1,
       0x1p-54, 12},
      {0x1.6e92360c05b1fp+5, 0x1.3be1e14ca2c91p+5, 0x1.5fb37072d753dp-2,
       0x1p-53, 11},
      {0x1.78e6b6dd26a55p+5, 0x1.44dc873ac75ap+5, 0x1.5fb37072d753dp-2,
       0x1p-51, 11},
      {0x1.78e6b6dd2529ap+5, 0x1.44dc873ac60ffp+5, 0x1.5fb37072d753dp-2,
       0x1.8p-53, 11},
      {0x1.6f1357db7ea1ap+0, 0x1.5f05ae59d730ep-1, 0x1.2c234f72c2351p-1,
       0x1p-55, 6},
      {0x1.9b7efa28c2224p+0, 0x1.add1f88e4eef5p-1, 0x1.2c234f72c2351p-1,
       0x1p-53, 6},
      {0x1.9c47064f979bcp+0, 0x1.af34d675b35cp-1, 0x1.2c234f72c2351p-1,
       0x1p-53, 7},
      {0x1.5f7f4fd26b472p+0, 0x1.115ce29feb64fp+0, 0x1.3333333333334p-3,
       0x1p-54, 6},
      {0x1.60d66962a5749p+0, 0x1.128d332d3307bp+0, 0x1.3333333333334p-3,
       0x1.4p-53, 6},
      {0x1.60db568f8f3b1p+0, 0x1.129191c8cab9fp+0, 0x1.3333333333334p-3,
       0x1p-53, 6},
      {0x1.6a6e1a8bfa5fap+2, 0x1.c3756cbe383a2p+2, 0x1.fcace213f2b3ap+0,
       0x1p-53, 8},
      {0x1.64786f1371dbcp+3, 0x1.f9874528aec2p+3, 0x1.fcace213f2b3ap+0,
       0x1.4p-53, 10},
      {0x1.6530d262ff00ap+3, 0x1.faada6454b88ap+3, 0x1.fcace213f2b3ap+0,
       0x1p-52, 10},
      {0x1.3f2437cd5b97ap+2, 0x1.e9e143d723209p+2, 0x1.3a2e8ba2e8ba4p-2,
       0x1.8p-52, 8},
      {0x1.45cb330b621bfp+2, 0x1.f4801ca257d3cp+2, 0x1.3a2e8ba2e8ba4p-2,
       0x1.6p-50, 8},
      {0x1.45d41ff999a85p+2, 0x1.f48e5c934f024p+2, 0x1.3a2e8ba2e8ba4p-2,
       0x1p-53, 8},
      {0x1.8218eaf039168p+4, 0x1.3a94977758912p+5, 0x1.505a72acd1f81p+1,
       0x1p-53, 11},
      {0x1.fdfd7e0912713p+5, 0x1.b0c804328d3dfp+6, 0x1.505a72acd1f81p+1,
       0x1p-51, 12},
      {0x1.fe3850eadd176p+5, 0x1.b0fb25a3bc74p+6, 0x1.505a72acd1f81p+1,
       0x1p-53, 12},
      {0x1.72f477815274dp+4, 0x1.3fb15d3f1b05dp+5, 0x1.5fb37072d753dp-2,
       0x1p-52, 11},
      {0x1.7d3f3c31afecfp+4, 0x1.48a38cf9cbe68p+5, 0x1.5fb37072d753dp-2,
       0x1p-50, 11},
      {0x1.7d42268d0b5b7p+4, 0x1.48a615b8ddc1ap+5, 0x1.5fb37072d753dp-2,
       0x1.8p-52, 11},
      {0x1.db5ad33c60a93p-1, 0x1.0f8cd0d9ab2b8p+0, 0x1.2c234f72c2351p-1,
       0x1p-54, 6},
      {0x1.02226cb2cf8fep+0, 0x1.33d6d1dcdbe4bp+0, 0x1.2c234f72c2351p-1,
       0x1p-52, 6},
      {0x1.02ddf8e315eaep+0, 0x1.3523834f6ef57p+0, 0x1.2c234f72c2351p-1,
       0x1p-52, 7},
      {0x1.1a4e77d05b391p+0, 0x1.ce632039f42fep+0, 0x1.3333333333334p-3,
       0x1p-53, 6},
      {0x1.1ae11ac5afcffp+0, 0x1.cf673f12fdff6p+0, 0x1.3333333333334p-3,
       0x1.4p-52, 6},
      {0x1.1ae4381b96444p+0, 0x1.cf6cc57a65d45p+0, 0x1.3333333333334p-3,
       0x1p-52, 6},
      {0x1.8a55c54bc83b9p+1, 0x1.f665485df66c4p+2, 0x1.fcace213f2b3ap+0,
       0x1p-52, 8},
      {0x1.712efdf39ca69p+2, 0x1.06e99f1817972p+4, 0x1.fcace213f2b3ap+0,
       0x1.4p-52, 10},
      {0x1.73fa51999d518p+2, 0x1.0924a38976107p+4, 0x1.fcace213f2b3ap+0,
       0x1p-51, 10},
      {0x1.6e19468fcb3bp+1, 0x1.1a6c928b3b43bp+3, 0x1.3a2e8ba2e8ba4p-2,
       0x1.8p-51, 8},
      {0x1.7482ba7b23c45p+1, 0x1.1f8ae146a7568p+3, 0x1.3a2e8ba2e8ba4p-2,
       0x1.6p-49, 8},
      {0x1.7495abac60ad6p+1, 0x1.1f9a00324c9b7p+3, 0x1.3a2e8ba2e8ba4p-2,
       0x1p-52, 8},
      {0x1.8a30e29cfe82dp+3, 0x1.419d94f2fc9a1p+5, 0x1.505a72acd1f81p+1,
       0x1p-52, 11},
      {0x1.0083622f41897p+5, 0x1.b36ba31a3f1abp+6, 0x1.505a72acd1f81p+1,
       0x1p-50, 12},
      {0x1.00fd0da18f311p+5, 0x1.b43f26e82afd1p+6, 0x1.505a72acd1f81p+1,
       0x1p-52, 12},
      {0x1.7e5710a21891ep+3, 0x1.4996c89d4ea96p+5, 0x1.5fb37072d753dp-2,
       0x1p-51, 11},
      {0x1.888f52f09e921p+3, 0x1.5278e1a8d72c1p+5, 0x1.5fb37072d753dp-2,
       0x1p-49, 11},
      {0x1.8895cacf88ccfp+3, 0x1.527e80f8a05d6p+5, 0x1.5fb37072d753dp-2,
       0x1.8p-51, 11},
      {0x1.62fe1fea4968cp-1, 0x1.dfa83c4ca0016p+0, 0x1.2c234f72c2351p-1,
       0x1p-53, 6},
      {0x1.75d521cb73177p-1, 0x1.0089ea6401377p+1, 0x1.2c234f72c2351p-1,
       0x1p-51, 6},
      {0x1.7646f6ae00e24p-1, 0x1.00eee116aff44p+1, 0x1.2c234f72c2351p-1,
       0x1p-51, 7},
      {0x1.03187f3d2832fp+0, 0x1.b869c93949893p+1, 0x1.3333333333334p-3,
       0x1p-52, 6},
      {0x1.0355b341da7c3p+0, 0x1.b8d65aed06e9cp+1, 0x1.3333333333334p-3,
       0x1.4p-51, 6},
      {0x1.035688d97a141p+0, 0x1.b8d7d5d1ec976p+1, 0x1.3333333333334p-3,
       0x1p-51, 6},
      {0x1.dad2ebd4ef4f5p+0, 0x1.3b72ed3da2325p+3, 0x1.fcace213f2b3ap+0,
       0x1p-51, 8},
      {0x1.9196431d423d6p+1, 0x1.20c76939c84bap+4, 0x1.fcace213f2b3ap+0,
       0x1.4p-51, 10},
      {0x1.98629ef9605ecp+1, 0x1.2634abe024e93p+4, 0x1.fcace213f2b3ap+0,
       0x1p-50, 10},
      {0x1.dbdc814ea1558p+0, 0x1.720b16797ee27p+3, 0x1.3a2e8ba2e8ba4p-2,
       0x1.8p-50, 8},
      {0x1.e1e1cc6baf0c7p+0, 0x1.76d971279ddep+3, 0x1.3a2e8ba2e8ba4p-2,
       0x1.6p-48, 8},
      {0x1.e1fcba4d2beb2p+0, 0x1.76eef045219ap+3, 0x1.3a2e8ba2e8ba4p-2,
       0x1p-51, 8},
      {0x1.9ef31f8bcde5ep+2, 0x1.53a8cf583f286p+5, 0x1.505a72acd1f81p+1,
       0x1p-51, 11},
      {0x1.04662491e6b52p+4, 0x1.ba2cf618e6bf2p+6, 0x1.505a72acd1f81p+1,
       0x1p-49, 12},
      {0x1.05af0ec78818p+4, 0x1.bc68c225a3974p+6, 0x1.505a72acd1f81p+1,
       0x1p-51, 12},
      {0x1.98fa42654ce41p+2, 0x1.60be256089acbp+5, 0x1.5fb37072d753dp-2,
       0x1p-50, 11},
      {0x1.a313f9a5fd801p+2, 0x1.6985b1f6e2e5ap+5, 0x1.5fb37072d753dp-2,
       0x1p-48, 11},
      {0x1.a31dd16fa6e07p+2, 0x1.698e40352d8d3p+5, 0x1.5fb37072d753dp-2,
       0x1.8p-50, 11},
  };
  const struct {
    double mu_i, mu_e;
  } rates[] = {{1.7, 0.6}, {0.6, 1.7}};
  std::vector<Pin> actual;
  std::vector<std::string> names;
  std::string listing;
  for (const bool inelastic_first : {true, false}) {
    for (const int k : {1, 2, 4, 8}) {
      for (const double rho : {0.5, 0.9, 0.98}) {
        for (const auto& mu : rates) {
          for (const BusyFitOrder order :
               {BusyFitOrder::kOneMoment, BusyFitOrder::kTwoMoment,
                BusyFitOrder::kThreeMoment}) {
            const SystemParams p =
                SystemParams::from_load(k, mu.mu_i, mu.mu_e, rho);
            const ResponseTimeAnalysis a =
                inelastic_first ? analyze_inelastic_first(p, order)
                                : analyze_elastic_first(p, order);
            actual.push_back({a.mean_response_time, a.mean_jobs_i,
                              a.mean_jobs_e, a.qbd_residual,
                              a.qbd_iterations});
            names.push_back(std::string(inelastic_first ? "IF" : "EF") +
                            " k=" + std::to_string(k) +
                            " rho=" + std::to_string(rho) +
                            " mu_i=" + std::to_string(mu.mu_i) +
                            " order=" +
                            std::to_string(static_cast<int>(order)));
            listing += "      {" + hexfloat(a.mean_response_time) + ", " +
                       hexfloat(a.mean_jobs_i) + ", " +
                       hexfloat(a.mean_jobs_e) + ",\n       " +
                       hexfloat(a.qbd_residual) + ", " +
                       std::to_string(a.qbd_iterations) + "},\n";
          }
        }
      }
    }
  }
  ASSERT_EQ(actual.size(), std::size(expected)) << "actual:\n" << listing;
  for (std::size_t n = 0; n < actual.size(); ++n) {
    SCOPED_TRACE(names[n]);
    const Pin& a = actual[n];
    const Pin& e = expected[n];
    EXPECT_EQ(hexfloat(a.mean_response_time), hexfloat(e.mean_response_time));
    EXPECT_EQ(hexfloat(a.mean_jobs_i), hexfloat(e.mean_jobs_i));
    EXPECT_EQ(hexfloat(a.mean_jobs_e), hexfloat(e.mean_jobs_e));
    EXPECT_EQ(hexfloat(a.residual), hexfloat(e.residual));
    EXPECT_EQ(a.iterations, e.iterations);
  }
}

}  // namespace
}  // namespace esched
