#include "lb_ext/policies.hpp"

#include <memory>

#include "lb/factories.hpp"

namespace conga::lb_ext {

const std::vector<PolicyInfo>& policy_catalog() {
  static const std::vector<PolicyInfo> kCatalog = {
      {"ecmp", "hash each flow onto one uplink (baseline)", false},
      {"conga", "CONGA: congestion-aware flowlets (paper §3)", false},
      {"conga-flow", "CONGA with one decision per flow (paper §5)", false},
      {"spray", "per-packet round-robin spraying", false},
      {"local", "flowlets on least-loaded local uplink (DRE only)", false},
      {"local-eq", "flowlets, random among locally-equal uplinks", false},
      {"weighted", "flowlets, static equal WCMP weights", false},
      {"letflow", "LetFlow: flowlets re-rolled uniformly at random", false},
      {"drill", "DRILL: per-packet two-choices over local queues", true},
      {"presto", "Presto: 64KB flowcells round-robined per flow", false},
      {"hula", "HULA-style: flowlets on probe-learned best paths", false},
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
  if (name == "ecmp") return lb::ecmp();
  if (name == "conga") return core::conga();
  if (name == "conga-flow") return core::conga_flow();
  if (name == "spray") return lb::spray();
  if (name == "local") return lb::local_aware();
  if (name == "local-eq") return lb::local_equal();
  if (name == "weighted") {
    // Equal static weights, one per uplink: WCMP degenerates to ECMP-over-
    // flowlets, the useful "weighted" baseline on any symmetric topology.
    return [](net::LeafSwitch& leaf, const net::TopologyConfig& topo,
              std::uint64_t) -> std::unique_ptr<lb::LoadBalancer> {
      const auto uplinks = static_cast<std::size_t>(topo.uplinks_per_leaf());
      return std::make_unique<lb::WeightedLb>(
          leaf, std::vector<double>(uplinks, 1.0), core::FlowletTableConfig{});
    };
  }
  if (name == "letflow") return letflow();
  if (name == "drill") return drill();
  if (name == "presto") return presto();
  if (name == "hula") return hula();
  return {};
}

bool install_policy(net::Fabric& fabric, const std::string& name) {
  const PolicyInfo* p = find_policy(name);
  if (p == nullptr) return false;
  net::Fabric::LbFactory factory = make_policy(name);
  if (!factory) return false;
  fabric.set_spine_drill(p->spine_drill);
  fabric.install_lb(std::move(factory));
  return true;
}

}  // namespace conga::lb_ext
