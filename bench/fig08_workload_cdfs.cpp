// Figure 8: the empirical traffic distributions — flow-size CDF and the
// bytes CDF — for the enterprise and data-mining workloads (plus the
// web-search distribution used by the Fig 15 simulations).
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "workload/flow_size_dist.hpp"

using namespace conga::workload;

int main(int argc, char** argv) {
  const bool full = conga::bench::read_flags(argc, argv).full;
  conga::bench::print_header("Fig 8 — empirical flow-size distributions", full);

  std::vector<double> sizes;
  for (double s = 1e2; s <= 1e9 + 1; s *= 10) sizes.push_back(s);

  for (const FlowSizeDist* d : {&enterprise(), &data_mining(), &web_search()}) {
    std::printf("\n%s (mean %.2e B, coeff-of-variation %.2f)\n",
                d->name().c_str(), d->mean_bytes(), d->coeff_of_variation());
    std::printf("  %-12s", "size");
    for (double s : sizes) std::printf("%8.0e", s);
    std::printf("\n  %-12s", "flows CDF");
    for (double s : sizes) std::printf("%8.3f", d->cdf(s));
    std::printf("\n  %-12s", "bytes CDF");
    for (double s : sizes) std::printf("%8.3f", d->byte_cdf(s));
    std::printf("\n");
  }

  std::printf(
      "\npaper checkpoints: enterprise ~50%% of bytes from flows < 35MB "
      "(here: %.2f);\ndata-mining ~95%% of bytes from flows > 35MB "
      "(here: %.2f)\n",
      enterprise().byte_cdf(35e6), 1.0 - data_mining().byte_cdf(35e6));
  return 0;
}
