#include "lb_ext/policies.hpp"

#include "lb/factories.hpp"
#include "lb_ext/drill_lb.hpp"
#include "lb_ext/hula_lb.hpp"
#include "lb_ext/letflow_lb.hpp"
#include "lb_ext/presto_lb.hpp"

namespace conga::lb_ext {

const std::vector<PolicyInfo>& policy_catalog() {
  static const std::vector<PolicyInfo> kCatalog = {
      {"ecmp", "hash each flow onto one uplink (baseline)", nullptr,
       [] { return lb::ecmp(); }},
      {"conga", "CONGA: congestion-aware flowlets (paper §3)", nullptr,
       [] { return core::conga(); }},
      {"conga-flow", "CONGA with one decision per flow (paper §5)", nullptr,
       [] { return core::conga_flow(); }},
      {"spray", "per-packet uniform random spraying", nullptr,
       [] { return lb::spray(); }},
      {"local", "flowlets on least-loaded local uplink (DRE only)", nullptr,
       [] { return lb::local_aware(); }},
      {"local-eq", "flowlets on the uplink that sent the fewest bytes", nullptr,
       [] { return lb::local_equal(); }},
      {"letflow", "LetFlow: flowlets re-rolled uniformly at random", nullptr,
       [] { return lb::per_leaf<LetFlowLb>(); }},
      {"drill", "DRILL: per-packet two-choices over local queues",
       drill_spines, [] { return lb::per_leaf_with_count<DrillLb>(); }},
      {"presto", "Presto: 64KB flowcells round-robined per flow", nullptr,
       [] { return lb::per_leaf<PrestoLb>(); }},
      {"hula", "HULA-style: flowlets on probe-learned best paths", nullptr,
       [] { return lb::per_leaf_with_count<HulaLb>(); }},
  };
  return kCatalog;
}

const PolicyInfo* find_policy(const std::string& name) {
  for (const PolicyInfo& p : policy_catalog()) {
    if (name == p.name) return &p;
  }
  return nullptr;
}

std::string policy_names() {
  std::string out;
  for (const PolicyInfo& p : policy_catalog()) {
    if (!out.empty()) out += ", ";
    out += p.name;
  }
  return out;
}

net::Fabric::LbFactory make_policy(const std::string& name) {
  const PolicyInfo* p = find_policy(name);
  return p == nullptr ? net::Fabric::LbFactory{} : p->factory();
}

bool install_policy(net::Fabric& fabric, const std::string& name) {
  const PolicyInfo* p = find_policy(name);
  if (p == nullptr) return false;
  fabric.install_lb(p->factory());
  fabric.install_spine_lb(p->spine_factory == nullptr
                              ? net::Fabric::SpineLbFactory{}
                              : p->spine_factory());
  return true;
}

}  // namespace conga::lb_ext
