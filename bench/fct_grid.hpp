// Shared driver for the FCT figures (9, 10, 11a/b; fig15 reuses only the
// runner): runs the scheme x load grid as campaigns (src/campaign/) and
// prints the paper's three panels —
//   (a) overall average FCT normalised to the idle-network optimal,
//   (b) small flows (<100 KB) normalised to ECMP,
//   (c) large flows (>10 MB) normalised to ECMP.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"

namespace conga::bench {

/// Runs `spec` in process without a store, with per-cell progress on
/// stderr. Cells are committed in canonical order (case -> policy -> load),
/// so results are identical for any jobs value. Exits 2 on a request that
/// does not resolve.
inline campaign::CampaignRun run_campaign_or_exit(
    const campaign::CampaignSpec& spec, int jobs) {
  campaign::RunOptions opts;
  opts.jobs = jobs;
  opts.verbose = true;
  campaign::CampaignRun run;
  std::string err;
  if (!campaign::run_campaign(spec, opts, run, err)) {
    std::fprintf(stderr, "%s: %s\n", spec.name.c_str(), err.c_str());
    std::exit(2);
  }
  return run;
}

using ResultRow = std::vector<workload::ExperimentResult>;

/// Prints the FCT panels. rows[s][i] is row `labels[s]` at loads_pct[i];
/// row 0 (ECMP) is the baseline of the relative panels.
inline void print_fct_panels(const std::vector<int>& loads_pct,
                             const std::vector<std::string>& labels,
                             const std::vector<ResultRow>& rows) {
  auto header = [&] {
    std::printf("%-12s", "load(%)");
    for (int load : loads_pct) std::printf("%10d", load);
    std::printf("\n");
  };
  auto absolute_panel = [&](const char* title, auto getter) {
    std::printf("\n%s\n", title);
    header();
    for (std::size_t s = 0; s < rows.size(); ++s) {
      std::printf("%-12s", labels[s].c_str());
      for (const workload::ExperimentResult& r : rows[s]) {
        std::printf("%10.2f", getter(r));
      }
      std::printf("\n");
    }
  };
  auto relative_panel = [&](const char* title, auto getter) {
    std::printf("\n%s\n", title);
    header();
    for (std::size_t s = 0; s < rows.size(); ++s) {
      std::printf("%-12s", labels[s].c_str());
      for (std::size_t i = 0; i < rows[s].size(); ++i) {
        const double ecmp = getter(rows[0][i]);
        const double mine = getter(rows[s][i]);
        std::printf("%10.2f", ecmp > 0 ? mine / ecmp : 0.0);
      }
      std::printf("\n");
    }
  };

  // Average normalized FCT is tail-sensitive (a one-packet flow that loses
  // its packet costs ~1000x optimal); the median panel below gives the
  // tail-robust view.
  absolute_panel("(a) overall average FCT, normalised to optimal",
                 [](const workload::ExperimentResult& r) {
                   return r.avg_norm_fct;
                 });
  relative_panel("(b) small flows (<100KB) avg FCT, normalised to ECMP",
                 [](const workload::ExperimentResult& r) {
                   return r.avg_fct_small;
                 });
  relative_panel("(c) large flows (>10MB) avg FCT, normalised to ECMP",
                 [](const workload::ExperimentResult& r) {
                   return r.avg_fct_large;
                 });
  absolute_panel("(a') median normalised FCT (tail-robust view)",
                 [](const workload::ExperimentResult& r) {
                   return r.median_norm_fct;
                 });
  absolute_panel("completed fraction of measured flows (censoring check)",
                 [](const workload::ExperimentResult& r) {
                   return r.completed_fraction;
                 });
}

/// The paper's four rows over `spec`'s one case, dist, loads and windows:
/// ECMP, CONGA-Flow and CONGA over TCP, then MPTCP (8 subflows) over ECMP.
inline void run_and_print_grid(campaign::CampaignSpec spec, int jobs) {
  spec.policies = {"ecmp", "conga-flow", "conga"};
  const campaign::CampaignRun tcp = run_campaign_or_exit(spec, jobs);
  spec.policies = {"ecmp"};
  spec.mptcp_subflows = 8;
  const campaign::CampaignRun mptcp = run_campaign_or_exit(spec, jobs);

  const auto n_loads = static_cast<std::ptrdiff_t>(spec.loads_pct.size());
  std::vector<ResultRow> rows;
  for (auto it = tcp.results.begin(); it != tcp.results.end(); it += n_loads) {
    rows.emplace_back(it, it + n_loads);
  }
  rows.push_back(mptcp.results);
  print_fct_panels(spec.loads_pct, {"ECMP", "CONGA-Flow", "CONGA", "MPTCP"},
                   rows);
}

}  // namespace conga::bench
