// The paper's §6 open problems, explored experimentally:
//  (1) bounded elasticity — elastic jobs parallelize only up to a cap c:
//      sweep c and show the capacity-vs-scheduling trade under cap-aware
//      IF and EF (exact truncated chain);
//  (2) more than two classes — three classes with distinct caps and
//      sizes: compare the natural priority-order generalizations by
//      simulation, probing whether "least parallelizable first" keeps
//      winning when caps and sizes are aligned, and what happens when
//      they are opposed.
#include <cstdio>
#include <iostream>

#include "common/table.hpp"
#include "core/exact_ctmc.hpp"
#include "core/policies.hpp"
#include "studies/multiclass.hpp"

namespace {

using namespace esched;

void bounded_elasticity_sweep() {
  std::printf("--- (1) Bounded elasticity: k = 4, mu_I = mu_E = 1, "
              "rho = 0.7 ---\n");
  const SystemParams base = SystemParams::from_load(4, 1.0, 1.0, 0.7);
  ExactCtmcOptions opt;
  opt.imax = opt.jmax = suggested_truncation(base.rho(), 1e-9);
  Table table({"elastic cap c", "E[T] IF", "E[T] EF", "winner"});
  for (int cap : {4, 3, 2, 1}) {
    SystemParams p = base;
    p.elastic_cap = cap;
    const double et_if =
        solve_exact_ctmc(p, InelasticFirst{}, opt).mean_response_time;
    const double et_ef =
        solve_exact_ctmc(p, ElasticFirst{}, opt).mean_response_time;
    table.add_row({std::to_string(cap), format_double(et_if),
                   format_double(et_ef),
                   et_if <= et_ef ? "IF" : "EF"});
  }
  table.print(std::cout);
  std::printf("IF stays optimal at every cap (consistent with the §2 "
              "renormalization remark); capping HELPS EF (it forces "
              "IF-like sharing) until c = 1 removes all parallelism.\n\n");
}

void multiclass_orders() {
  std::printf("--- (2) Three classes: priority-order shoot-out "
              "(simulation, 200k jobs) ---\n");
  // Aligned: smaller jobs are also less parallelizable (the common case
  // of §1.3). Opposed: the big jobs are the rigid ones.
  const struct {
    const char* label;
    MultiClassParams params;
  } scenarios[] = {
      {"aligned (small=rigid, big=elastic)",
       {8,
        {{"small-rigid", 4.0, 8.0, 1.0},
         {"mid", 1.0, 1.0, 4.0},
         {"big-elastic", 0.2, 0.125, 8.0}}}},
      {"opposed (big=rigid, small=elastic)",
       {8,
        {{"big-rigid", 0.4, 0.25, 1.0},
         {"mid", 1.0, 1.0, 4.0},
         {"small-elastic", 4.0, 4.0, 8.0}}}},
  };
  for (const auto& scenario : scenarios) {
    const MultiClassParams& p = scenario.params;
    std::printf("\n%s (rho = %.2f):\n", scenario.label, p.rho());
    Table table({"priority order", "E[T]", "95% CI", "class means"});
    const struct {
      const char* name;
      std::vector<int> order;
    } orders[] = {
        {"least-parallelizable-first", least_parallelizable_first(p)},
        {"most-parallelizable-first", most_parallelizable_first(p)},
        {"smallest-size-first", smallest_size_first(p)},
    };
    MultiClassSimOptions opt;
    opt.num_jobs = 200000;
    opt.warmup_jobs = 20000;
    opt.seed = 4242;
    for (const auto& o : orders) {
      const MultiClassSimResult r = simulate_multiclass(p, o.order, opt);
      std::string class_means;
      for (std::size_t n = 0; n < p.classes.size(); ++n) {
        if (n) class_means += " / ";
        class_means += format_double(r.class_response_time[n], 3);
      }
      table.add_row({o.name, format_double(r.mean_response_time.mean),
                     "+-" + format_double(r.mean_response_time.half_width, 2),
                     class_means});
    }
    table.print(std::cout);
  }
  std::printf("\nAligned caps/sizes: the IF generalization (least "
              "parallelizable first) wins, extending Theorem 5's intuition."
              "\nOpposed: size priority and parallelizability priority "
              "conflict — the optimal multi-class policy is genuinely "
              "open, as §6 states.\n");
}

}  // namespace

int main() {
  std::printf("=== §6 future-work extensions ===\n\n");
  bounded_elasticity_sweep();
  multiclass_orders();
  return 0;
}
