// Figure 5: distribution of data bytes across transfer sizes for different
// flowlet inactivity gaps (250 ms ~ whole flows, 500 us, 100 us).
//
// The paper measured a production cluster; we run the same splitter over a
// synthetic bursty trace (NIC-offload-style bursts; see
// workload/flowlet_study.hpp for the substitution rationale). The headline
// number reproduced: with a 500 us gap the transfer size covering half the
// bytes drops by roughly two orders of magnitude.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "workload/flowlet_study.hpp"

using namespace conga;
using namespace conga::workload;

int main(int argc, char** argv) {
  const bool full = bench::read_flags(argc, argv).full;
  bench::print_header("Fig 5 — bytes vs transfer size per flowlet gap", full);

  BurstyTraceConfig cfg;
  cfg.duration = full ? sim::seconds(10.0) : sim::seconds(2.0);
  cfg.flow_arrival_per_sec = full ? 3000 : 1500;
  const auto trace = generate_bursty_trace(enterprise(), cfg);

  const std::vector<std::pair<const char*, sim::TimeNs>> gaps = {
      {"Flow (250ms)", sim::milliseconds(250)},
      {"Flowlet (500us)", sim::microseconds(500)},
      {"Flowlet (100us)", sim::microseconds(100)},
  };
  std::vector<double> queries;
  for (double s = 1e2; s <= 1e9 + 1; s *= 10) queries.push_back(s);

  std::printf("%-18s", "size (bytes)");
  for (double q : queries) std::printf("%9.0e", q);
  std::printf("%12s\n", "50%-bytes@");
  for (const auto& [name, gap] : gaps) {
    const auto sizes = split_flowlets(trace, gap);
    const auto cdf = bytes_cdf_at(sizes, queries);
    std::printf("%-18s", name);
    for (double v : cdf) std::printf("%9.3f", v);
    std::printf("%12.2e\n", bytes_median_size(sizes));
  }

  const auto whole = split_flowlets(trace, sim::milliseconds(250));
  const auto f500 = split_flowlets(trace, sim::microseconds(500));
  std::printf(
      "\nmedian-byte transfer size reduction at 500us gap: %.0fx"
      " (paper: ~30MB -> ~500KB, ~60x)\n",
      bytes_median_size(whole) / bytes_median_size(f500));

  // §2.6.1 companion measurement: concurrent distinct flows per 1 ms.
  const auto counts = concurrent_flows(trace, sim::milliseconds(1));
  std::size_t mx = 0;
  double sum = 0;
  for (std::size_t c : counts) {
    mx = std::max(mx, c);
    sum += static_cast<double>(c);
  }
  std::printf("concurrent flows per 1ms: mean %.0f, max %zu"
              " (paper: median 130, max < 300)\n",
              sum / static_cast<double>(counts.size()), mx);
  return 0;
}
