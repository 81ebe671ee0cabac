// Tests for the bounded-elasticity extension (paper §6): elastic jobs can
// use at most `elastic_cap` servers each. cap = k recovers the base model;
// smaller caps reduce the benefit of elastic priority.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/numeric.hpp"
#include "core/ef_analysis.hpp"
#include "core/exact_ctmc.hpp"
#include "core/if_analysis.hpp"
#include "core/policies.hpp"
#include "sim/cluster_sim.hpp"
#include "support/ctmc_sim.hpp"

namespace esched {
namespace {

ExactCtmcOptions truncation(const SystemParams& p) {
  ExactCtmcOptions opt;
  opt.imax = opt.jmax = suggested_truncation(p.rho(), 1e-9);
  return opt;
}

TEST(BoundedElastic, CapKEqualsUnbounded) {
  SystemParams base = SystemParams::from_load(4, 1.0, 1.0, 0.7);
  SystemParams capped = base;
  capped.elastic_cap = 4;
  const double et_base =
      solve_exact_ctmc(base, ElasticFirst{}, truncation(base))
          .mean_response_time;
  const double et_capped =
      solve_exact_ctmc(capped, ElasticFirst{}, truncation(capped))
          .mean_response_time;
  EXPECT_NEAR(et_base, et_capped, 1e-12);
}

TEST(BoundedElastic, TighterCapHurtsPureElasticTraffic) {
  // With only elastic traffic there is no other class to absorb freed
  // servers, so shrinking the cap strictly reduces service capacity and
  // E[T] grows monotonically.
  SystemParams p;
  p.k = 4;
  p.lambda_i = 0.0;
  p.lambda_e = 2.8;  // rho = 0.7
  p.mu_i = 1.0;
  p.mu_e = 1.0;
  double prev = 0.0;
  for (int cap : {4, 3, 2, 1}) {
    p.elastic_cap = cap;
    const double et =
        solve_exact_ctmc(p, ElasticFirst{}, truncation(p))
            .mean_response_time;
    EXPECT_GE(et, prev - 1e-9) << "cap=" << cap;
    prev = et;
  }
}

TEST(BoundedElastic, CapTradesCapacityAgainstScheduling) {
  // The cap changes the SYSTEM (less usable capacity), not just the
  // policy, and the two effects pull E[T] under cap-aware EF in opposite
  // directions when mu_I = mu_E:
  //  - servers the elastic job cannot use flow to inelastic jobs, moving
  //    EF toward (optimal) IF — intermediate caps BEAT uncapped EF;
  //  - at cap = 1 the capacity loss dominates and everything gets worse.
  // Meanwhile capped IF degrades monotonically (pure capacity loss), and
  // nothing in any capped system beats uncapped IF, since every capped
  // allocation is feasible in the base model where IF is optimal (Thm 1).
  SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.7);
  const auto opt = truncation(p);
  const double et_if_full =
      solve_exact_ctmc(p, InelasticFirst{}, opt).mean_response_time;
  const double et_ef_full =
      solve_exact_ctmc(p, ElasticFirst{}, opt).mean_response_time;

  double prev_if = et_if_full;
  for (int cap : {3, 2, 1}) {
    SystemParams capped = p;
    capped.elastic_cap = cap;
    const double ef =
        solve_exact_ctmc(capped, ElasticFirst{}, opt).mean_response_time;
    const double ifp =
        solve_exact_ctmc(capped, InelasticFirst{}, opt).mean_response_time;
    // Theorem 1 floor: no capped policy beats uncapped IF.
    EXPECT_GE(ef, et_if_full - 1e-9) << "cap=" << cap;
    EXPECT_GE(ifp, et_if_full - 1e-9) << "cap=" << cap;
    // Capped IF degrades monotonically as the cap tightens.
    EXPECT_GE(ifp, prev_if - 1e-9) << "cap=" << cap;
    prev_if = ifp;
    // Scheduling gain: moderate caps improve EF relative to uncapped EF.
    if (cap >= 2) {
      EXPECT_LT(ef, et_ef_full) << "cap=" << cap;
    }
  }
  // Capacity loss dominates at cap = 1: worse than uncapped EF.
  SystemParams all_rigid = p;
  all_rigid.elastic_cap = 1;
  EXPECT_GT(solve_exact_ctmc(all_rigid, ElasticFirst{}, opt)
                .mean_response_time,
            et_ef_full);
}

TEST(BoundedElastic, CapOneMakesClassesSymmetric) {
  // With elastic_cap = 1 and mu_I = mu_E both classes are statistically
  // identical single-server jobs; IF and EF should give (nearly) the same
  // mean response time — they only differ in which identical class they
  // prioritize. (Not exactly: EF's head-of-line elastic job still gets
  // only 1 server, so both policies are M/M/k-like with priorities; the
  // OVERALL mean is the same by symmetry of the two priority orders.)
  SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.6);
  p.elastic_cap = 1;
  const auto opt = truncation(p);
  const double et_if =
      solve_exact_ctmc(p, InelasticFirst{}, opt).mean_response_time;
  // Compare against a cap-respecting EF mirror: prioritize elastic. With
  // lambda_I = lambda_E and mu_I = mu_E, swapping class roles is an exact
  // symmetry, so the two priority orders have equal overall E[T].
  const double et_ef =
      solve_exact_ctmc(p, ElasticFirst{}, opt).mean_response_time;
  EXPECT_LT(relative_error(et_if, et_ef), 1e-9);
}

TEST(BoundedElastic, SimulatorMatchesExactChain) {
  SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.7);
  p.elastic_cap = 2;
  const double exact =
      solve_exact_ctmc(p, InelasticFirst{}, truncation(p))
          .mean_response_time;
  SimOptions opt;
  opt.num_jobs = 150000;
  opt.warmup_jobs = 15000;
  opt.seed = 321;
  const SimResult sim = simulate(p, InelasticFirst{}, opt);
  EXPECT_LT(relative_error(sim.mean_response_time.mean, exact), 0.05);
}

TEST(BoundedElastic, CtmcSimulatorHonorsCap) {
  SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.7);
  p.elastic_cap = 2;
  const double exact =
      solve_exact_ctmc(p, ElasticFirst{}, truncation(p)).mean_response_time;
  CtmcSimOptions opt;
  opt.horizon = 400000.0;
  opt.warmup = 40000.0;
  opt.seed = 654;
  const CtmcSimResult sim = simulate_ctmc(p, ElasticFirst{}, opt);
  EXPECT_LT(relative_error(sim.mean_response_time, exact), 0.05);
}

TEST(BoundedElastic, AnalysesRejectBoundedCaps) {
  SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.5);
  p.elastic_cap = 2;
  EXPECT_THROW(analyze_elastic_first(p), Error);
  EXPECT_THROW(analyze_inelastic_first(p), Error);
  p.elastic_cap = 4;  // cap == k is the base model
  EXPECT_NO_THROW(analyze_elastic_first(p));
}

TEST(BoundedElastic, ValidateRejectsBadCap) {
  SystemParams p = SystemParams::from_load(4, 1.0, 1.0, 0.5);
  p.elastic_cap = 5;  // > k
  EXPECT_THROW(p.validate(), Error);
  p.elastic_cap = -1;
  EXPECT_THROW(p.validate(), Error);
}

// The paper's §2 renormalization remark, applied to bounded elasticity: a
// system where elastic jobs parallelize up to c behaves like the base
// model when there is never more than one elastic job wanting more than c
// servers... at low elastic load the cap rarely binds, so capped EF
// approaches unbounded EF.
TEST(BoundedElastic, CapRarelyBindsAtLowElasticLoad) {
  SystemParams base;
  base.k = 4;
  base.mu_i = 1.0;
  base.mu_e = 1.0;
  base.lambda_i = 1.6;   // most of the load is inelastic
  base.lambda_e = 0.05;  // elastic jobs are rare
  SystemParams capped = base;
  capped.elastic_cap = 3;
  const auto opt = truncation(base);
  const double et_base =
      solve_exact_ctmc(base, InelasticFirst{}, opt).mean_response_time;
  const double et_capped =
      solve_exact_ctmc(capped, InelasticFirst{}, opt).mean_response_time;
  EXPECT_LT(relative_error(et_base, et_capped), 0.02);
}

}  // namespace
}  // namespace esched
