// Appendix A / Theorem 9: the generalized SRPT-k algorithm is a
// 4-approximation for total response time when all jobs arrive at time 0.
// This harness sweeps random instance families (sizes spanning orders of
// magnitude, mixed parallelizability caps) and reports the empirical
// ratio ALG / LP-lower-bound, which must stay below 4 (and in practice
// sits far below it — the reason the paper argues worst-case analysis is
// too pessimistic and moves to the stochastic model).
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "stats/accumulator.hpp"
#include "studies/lp_bound.hpp"
#include "studies/srpt.hpp"

namespace {

using namespace esched;

std::vector<BatchJob> random_instance(int n, int k, double elastic_fraction,
                                      Xoshiro256& rng) {
  std::vector<BatchJob> jobs;
  jobs.reserve(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    BatchJob job;
    job.size = std::exp(uniform(rng, -2.0, 3.0));  // ~e^5 size spread
    job.cap = bernoulli(rng, elastic_fraction)
                  ? 1.0 + std::floor(uniform(rng, 0.0, 2.0 * k))
                  : 1.0;
    jobs.push_back(job);
  }
  return jobs;
}

}  // namespace

int main() {
  using namespace esched;
  std::printf("=== Appendix A reproduction: SRPT-k vs LP lower bound "
              "(Theorem 9: ratio <= 4) ===\n");
  std::string csv = csv_encode_row({"n", "k", "elastic_fraction",
                                    "mean_ratio", "max_ratio"}) +
                    '\n';
  std::size_t csv_rows = 0;
  Table table({"n", "k", "elastic frac", "mean ALG/LP", "max ALG/LP",
               "<= 4?"});
  Xoshiro256 rng(515151);
  double global_max = 0.0;
  for (int n : {10, 100, 1000, 10000}) {
    for (int k : {4, 16}) {
      for (double frac : {0.0, 0.5, 1.0}) {
        Accumulator ratios;
        const int reps = n <= 1000 ? 20 : 5;
        for (int r = 0; r < reps; ++r) {
          const std::vector<BatchJob> jobs =
              random_instance(n, k, frac, rng);
          const double alg = srpt_k_schedule(jobs, k).total_response_time;
          const double lp = lp_lower_bound(jobs, k);
          ratios.add(alg / lp);
        }
        global_max = std::max(global_max, ratios.max());
        table.add_row({std::to_string(n), std::to_string(k),
                       format_double(frac, 2), format_double(ratios.mean(), 4),
                       format_double(ratios.max(), 4),
                       ratios.max() <= 4.0 ? "yes" : "NO"});
        csv += csv_encode_row({std::to_string(n), std::to_string(k),
                               format_double(frac, 2),
                               format_double(ratios.mean()),
                               format_double(ratios.max())}) +
               '\n';
        ++csv_rows;
      }
    }
  }
  table.print(std::cout);
  atomic_write_file("srpt_approx.csv", csv);
  std::printf("\nworst observed ratio: %.4f (Theorem 9 bound: 4; typical "
              "values near 1 show the worst case is loose)\n",
              global_max);
  std::printf("wrote srpt_approx.csv (%zu rows)\n", csv_rows);
  return 0;
}
