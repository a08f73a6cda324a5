// Ablations of CONGA's design parameters and choices (§3.6 "Parameter
// Choices" and §7 "Other path metrics"):
//   * Q, the congestion-metric quantization bits (paper: robust for 3-6),
//   * tau, the DRE time constant (paper: robust for 100-500 us),
//   * Tfl, the flowlet inactivity gap (reordering vs congestion trade-off;
//     13 ms == CONGA-Flow),
//   * CE path aggregation: max (paper) vs clamped sum (§7),
//   * flowlet expiry: exact timestamps vs the hardware age-bit,
//   * feedback selection: changed-first vs plain round-robin.
//
// Each variant runs the link-failure scenario (where congestion-awareness
// matters most) at 60% load and reports the overall normalised FCT.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "lb/factories.hpp"
#include "workload/experiment.hpp"

using namespace conga;

namespace {

double run_variant(const core::CongaConfig& conga_cfg,
                   const core::DreConfig& dre, bool ce_sum, bool full,
                   int dupack_segments = 3) {
  workload::ExperimentConfig cfg;
  cfg.topo = net::testbed_link_failure();
  if (!full) cfg.topo.hosts_per_leaf = 16;
  cfg.topo.dre = dre;
  cfg.topo.ce_sum = ce_sum;
  cfg.dist = workload::enterprise();
  cfg.load = 0.6;
  tcp::TcpConfig t;
  t.min_rto = sim::milliseconds(10);
  t.dupack_segments = dupack_segments;
  cfg.transport = tcp::make_tcp_flow_factory(t);
  cfg.lb = core::conga(conga_cfg);
  cfg.warmup = sim::milliseconds(10);
  cfg.measure = full ? sim::milliseconds(150) : sim::milliseconds(50);
  cfg.max_drain = sim::seconds(2.0);
  return workload::run_fct_experiment(cfg).avg_norm_fct;
}

void row(const std::string& label, double v, double baseline) {
  std::printf("%-34s%12.2f%+11.1f%%\n", label.c_str(), v,
              (v / baseline - 1) * 100);
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = bench::read_flags(argc, argv).full;
  bench::print_header(
      "Ablations — CONGA parameters on the link-failure scenario @60% load",
      full);

  const core::CongaConfig def_conga;
  const core::DreConfig def_dre;
  const double baseline = run_variant(def_conga, def_dre, false, full);
  std::printf("%-34s%12s%12s\n", "variant", "normFCT", "vs default");
  row("default (Q=3, tau=160us, Tfl=500us)", baseline, baseline);

  std::printf("\n-- quantization bits Q --\n");
  for (int q : {1, 2, 4, 6}) {
    core::DreConfig d = def_dre;
    d.q_bits = q;
    row("Q=" + std::to_string(q), run_variant(def_conga, d, false, full),
        baseline);
  }

  std::printf("\n-- DRE time constant tau --\n");
  for (int tau_us : {40, 100, 500, 1000}) {
    core::DreConfig d = def_dre;
    d.t_dre = sim::microseconds(tau_us) / 8;
    d.alpha = 0.125;
    row("tau=" + std::to_string(tau_us) + "us",
        run_variant(def_conga, d, false, full), baseline);
  }

  std::printf("\n-- flowlet gap Tfl --\n");
  for (int tfl_us : {100, 300, 1000, 13000}) {
    core::CongaConfig c = def_conga;
    c.flowlet.gap = sim::microseconds(tfl_us);
    row("Tfl=" + std::to_string(tfl_us) + "us" +
            (tfl_us == 13000 ? " (CONGA-Flow)" : ""),
        run_variant(c, def_dre, false, full), baseline);
  }

  std::printf("\n-- design choices --\n");
  row("CE aggregation = sum (§7)", run_variant(def_conga, def_dre, true, full),
      baseline);
  {
    core::CongaConfig c = def_conga;
    c.flowlet.expiry = core::FlowletExpiry::kAgeBit;
    row("age-bit flowlet expiry (ASIC)", run_variant(c, def_dre, false, full),
        baseline);
  }
  {
    core::CongaConfig c = def_conga;
    c.feedback_favor_changed = false;
    row("plain round-robin feedback", run_variant(c, def_dre, false, full),
        baseline);
  }
  {
    core::CongaConfig c = def_conga;
    c.metric_age_after = sim::milliseconds(1);
    row("metric aging = 1ms", run_variant(c, def_dre, false, full), baseline);
  }
  {
    // Fig 1's lowest branch: per-packet CONGA is optimal *given* a
    // reordering-resilient transport. Tfl ~ 0 splits every packet; the
    // transport tolerates 64 segments of reordering before inferring loss.
    core::CongaConfig c = def_conga;
    c.flowlet.gap = 1;  // 1 ns: every packet is its own flowlet
    row("per-packet CONGA + std TCP", run_variant(c, def_dre, false, full),
        baseline);
    row("per-packet CONGA + reorder-resilient TCP",
        run_variant(c, def_dre, false, full, /*dupack_segments=*/64),
        baseline);
  }

  std::printf("\npaper: performance is 'fairly robust' for Q=3-6, "
              "tau=100-500us, Tfl=300us-1ms.\n");
  return 0;
}
