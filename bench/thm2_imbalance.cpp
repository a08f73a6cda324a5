// Theorem 2 / §6.2: the traffic imbalance of randomized per-flow placement
// decays as 1/sqrt(lambda_e t), where the effective rate lambda_e shrinks
// with (1 + CV^2) of the flow-size distribution — the analytic reason the
// data-mining workload needs flowlets while the enterprise workload is fine
// with per-flow ECMP.
#include <cmath>
#include <cstdio>
#include <vector>

#include "analysis/imbalance_model.hpp"
#include "bench_util.hpp"
#include "workload/flow_size_dist.hpp"

using namespace conga;
using namespace conga::analysis;
using namespace conga::workload;

int main(int argc, char** argv) {
  const bool full = bench::read_flags(argc, argv).full;
  bench::print_header("Theorem 2 — E[chi(t)] vs time and flow-size variance",
                      full);

  const std::vector<double> times = {0.05, 0.1, 0.25, 0.5, 1.0, 2.0};
  const int n_links = 4;
  const double lambda = 20000;

  struct Row {
    const char* name;
    FlowSizeDist dist;
  };
  const std::vector<Row> rows = {
      {"fixed-size", fixed_size(enterprise().mean_bytes())},
      {"web-search", web_search()},
      {"enterprise", enterprise()},
      {"data-mining", data_mining()},
  };

  std::printf("%-14s%8s%10s |", "workload", "CV", "lambda_e");
  for (double t : times) std::printf("%9.2fs", t);
  std::printf("\n");
  for (const Row& row : rows) {
    std::printf("%-14s%8.2f%10.1f |", row.name,
                row.dist.coeff_of_variation(),
                effective_rate(row.dist, n_links, lambda));
    for (double t : times) {
      ImbalanceParams p;
      p.n_links = n_links;
      p.lambda = lambda;
      p.t_seconds = t;
      p.trials = full ? 400 : 120;
      std::printf("%10.4f", expected_imbalance(row.dist, p));
    }
    std::printf("\n");
  }

  std::printf("\nanalytic bound 1/sqrt(lambda_e t):\n%-14s%18s |", "", "");
  for (double t : times) std::printf("%9.2fs", t);
  std::printf("\n");
  for (const Row& row : rows) {
    std::printf("%-14s%18s |", row.name, "");
    for (double t : times) {
      std::printf("%10.4f", theorem2_bound(row.dist, n_links, lambda, t));
    }
    std::printf("\n");
  }

  // 1/sqrt(t) decay check on the fixed-size workload.
  ImbalanceParams p;
  p.n_links = n_links;
  p.lambda = lambda;
  p.trials = full ? 600 : 200;
  p.t_seconds = 0.1;
  const double chi1 = expected_imbalance(rows[0].dist, p);
  p.t_seconds = 1.6;
  const double chi2 = expected_imbalance(rows[0].dist, p);
  std::printf("\n1/sqrt(t) check: chi(0.1s)/chi(1.6s) = %.2f (expected ~%.2f)\n",
              chi1 / chi2, std::sqrt(16.0));
  return 0;
}
