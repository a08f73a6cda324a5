// The policy registry: every load balancer the simulator can run, keyed by
// the command-line name the tools and benches accept. One table drives
// conga_sim/conga_trace/chaos_audit --lb validation, make_policy, the
// ext_lb_comparison sweep, and the README policy matrix, so a policy added
// as one row here (name, summary, spine half, factory) shows up everywhere
// at once.
#pragma once

#include <string>
#include <vector>

#include "net/fabric.hpp"

namespace conga::lb_ext {

struct PolicyInfo {
  const char* name;     ///< command-line name ("letflow", "drill", ...)
  const char* summary;  ///< one-line description for help text / docs
  /// The policy's spine balancers, or nullptr for policies that leave the
  /// spines on ECMP hashing; installed by install_policy() and by the
  /// fabric hook of campaign::to_experiment_config().
  net::Fabric::SpineLbFactory (*spine_factory)();
  /// The policy's leaf balancers with their default configuration.
  net::Fabric::LbFactory (*factory)();
};

/// All registered policies, in canonical (documentation) order.
const std::vector<PolicyInfo>& policy_catalog();

/// Catalog entry for `name`, or nullptr if unknown.
const PolicyInfo* find_policy(const std::string& name);

/// The registered names joined with ", " — for usage/error messages.
std::string policy_names();

/// Factory for `name`; an empty std::function if unknown.
net::Fabric::LbFactory make_policy(const std::string& name);

/// Installs `name` on `fabric`: its leaf balancers, then its spine balancers
/// (or ECMP spines when it has none). Returns false — leaving the fabric
/// untouched — if unknown.
bool install_policy(net::Fabric& fabric, const std::string& name);

}  // namespace conga::lb_ext
