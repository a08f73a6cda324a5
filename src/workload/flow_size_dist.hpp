// Empirical flow-size distributions (paper Fig 8 and §5.5).
//
// Piecewise log-linear CDFs digitised from the paper and its sources:
//  * enterprise()  — Fig 8(a), the authors' production-cluster trace. Less
//    heavy-tailed: ~50% of bytes come from flows smaller than ~35 MB.
//  * data_mining() — Fig 8(b), the VL2/Greenberg et al. cluster. Very heavy:
//    ~95% of bytes in the ~3.6% of flows larger than 35 MB.
//  * web_search()  — the DCTCP cluster distribution used by the large-scale
//    simulations (Fig 15 "web search workload").
//
// The tables are approximations read off the published CDFs; EXPERIMENTS.md
// records this substitution. Sampling interpolates log-linearly in size
// between adjacent CDF points.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/random.hpp"

namespace conga::workload {

struct CdfPoint {
  double size_bytes;
  double cdf;  ///< fraction of *flows* no larger than size_bytes
};

class FlowSizeDist {
 public:
  /// `points` must be sorted by size and cdf, ending at cdf == 1.
  FlowSizeDist(std::string name, std::vector<CdfPoint> points);

  /// Draws one flow size (bytes, >= 1).
  std::uint64_t sample(sim::Rng& rng) const;

  /// Inverse CDF at quantile u in [0,1].
  double quantile(double u) const;

  /// Mean flow size implied by the table (log-linear segments).
  double mean_bytes() const { return mean_; }

  /// Coefficient of variation sigma/mean — the quantity Theorem 2 shows
  /// governs load-balancing difficulty.
  double coeff_of_variation() const { return stddev_ / mean_; }

  /// P(flow size <= s).
  double cdf(double size_bytes) const;

  /// Fraction of *bytes* carried by flows of size <= s (the "Bytes" curves
  /// of Fig 8 / Fig 5).
  double byte_cdf(double size_bytes) const;

  const std::string& name() const { return name_; }
  const std::vector<CdfPoint>& points() const { return points_; }

 private:
  std::string name_;
  std::vector<CdfPoint> points_;
  double mean_ = 0;
  double stddev_ = 0;
};

/// The paper's three workloads.
const FlowSizeDist& enterprise();
const FlowSizeDist& data_mining();
const FlowSizeDist& web_search();

/// Degenerate distribution (every flow the same size) — the easy case of
/// Theorem 2 (coefficient of variation 0).
FlowSizeDist fixed_size(double bytes);

}  // namespace conga::workload
