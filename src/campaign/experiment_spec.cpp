#include "campaign/experiment_spec.hpp"

#include <charconv>
#include <functional>
#include <utility>

#include "campaign/codec.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "lb_ext/policies.hpp"
#include "stats/digest.hpp"
#include "tcp/flow.hpp"
#include "tcp/mptcp_connection.hpp"
#include "tcp/tcp_config.hpp"
#include "telemetry/probes.hpp"
#include "workload/flow_size_dist.hpp"

namespace conga::campaign {

Json json_of_topo(const net::TopologyConfig& topo) {
  return detail::encode(topo);
}

Json json_of_spec(const ExperimentSpec& spec) { return detail::encode(spec); }

std::string canonical_json(const ExperimentSpec& spec) {
  return json_of_spec(spec).dump();
}

bool parse_spec(const std::string& text, ExperimentSpec& out,
                std::string& err) {
  return detail::parse_as(text, out, err);
}

std::string cell_key(const ExperimentSpec& spec,
                     const std::string& fingerprint) {
  const std::string keyed = canonical_json(spec) + "\n" + fingerprint;
  stats::TraceDigest stream;
  for (const char c : keyed) stream.add(static_cast<unsigned char>(c));
  return hex64(fnv1a64(keyed)) + hex64(stream.value());
}

namespace {

const workload::FlowSizeDist* find_builtin_dist(const std::string& name) {
  if (name == "enterprise") return &workload::enterprise();
  if (name == "datamining") return &workload::data_mining();
  if (name == "websearch") return &workload::web_search();
  return nullptr;
}

}  // namespace

bool to_experiment_config(const ExperimentSpec& spec,
                          workload::ExperimentConfig& out, std::string& err) {
  const lb_ext::PolicyInfo* info = lb_ext::find_policy(spec.policy);
  if (info == nullptr) {
    err = "unknown policy '" + spec.policy +
          "' (registered: " + lb_ext::policy_names() + ")";
    return false;
  }
  workload::ExperimentConfig cfg;
  if (spec.dist.rfind("fixed:", 0) == 0) {
    // All of the suffix must be one finite decimal (no hex, blanks or
    // trailing junk) from 1 to 2^53, where a double holds every byte count.
    double bytes = 0;
    const char* end = spec.dist.data() + spec.dist.size();
    const auto [stop, ec] = std::from_chars(spec.dist.data() + 6, end, bytes);
    if (ec != std::errc() || stop != end || !(bytes >= 1) || bytes > 0x1p53) {
      err = "bad fixed distribution '" + spec.dist + "'";
      return false;
    }
    cfg.dist = workload::fixed_size(bytes);
  } else if (const workload::FlowSizeDist* d = find_builtin_dist(spec.dist)) {
    cfg.dist = *d;
  } else {
    err = "unknown distribution '" + spec.dist +
          "' (enterprise|datamining|websearch|fixed:<bytes>)";
    return false;
  }
  if (!(spec.load > 0.0) || spec.load > 1.0) {
    err = "load must be in (0, 1]";
    return false;
  }
  const std::string topo_err = spec.topo.validate();
  if (!topo_err.empty()) {
    err = "topo: " + topo_err;
    return false;
  }
  if (spec.warmup_ns < 0 || spec.measure_ns <= 0 || spec.max_drain_ns < 0) {
    err = "windows must be non-negative (measure > 0)";
    return false;
  }
  if (spec.min_rto_ns <= 0 || spec.min_rto_ns > tcp::kMaxRto) {
    err = "min_rto must be in (0, 60 s]";
    return false;
  }
  if (spec.mptcp_subflows < 0) {
    err = "mptcp_subflows must be >= 0 (0 = plain TCP)";
    return false;
  }

  const sim::TimeNs horizon = spec.warmup_ns + spec.measure_ns;
  fault::FaultPlan plan;
  if (spec.fault.profile == "random") {
    fault::RandomPlanConfig rc;
    rc.horizon = horizon;
    plan = fault::make_random_plan(spec.topo, spec.fault.seed, rc);
  } else if (spec.fault.profile == "gray") {
    plan = fault::make_gray_plan(spec.topo, spec.fault.seed, horizon);
  } else if (spec.fault.profile != "none") {
    err = "unknown fault profile '" + spec.fault.profile +
          "' (none|random|gray)";
    return false;
  }

  cfg.topo = spec.topo;
  cfg.load = spec.load;
  tcp::TcpConfig tcp_cfg;
  tcp_cfg.min_rto = spec.min_rto_ns;
  tcp_cfg.dctcp = spec.dctcp;
  cfg.transport =
      spec.mptcp_subflows > 0
          ? tcp::make_mptcp_flow_factory({tcp_cfg, spec.mptcp_subflows})
          : tcp::make_tcp_flow_factory(tcp_cfg);
  cfg.lb = lb_ext::make_policy(spec.policy);
  cfg.warmup = spec.warmup_ns;
  cfg.measure = spec.measure_ns;
  cfg.max_drain = spec.max_drain_ns;
  cfg.fabric_seed = spec.fabric_seed;
  cfg.traffic_seed = spec.traffic_seed;

  net::Fabric::SpineLbFactory spine_lb;
  if (info->spine_factory != nullptr) spine_lb = info->spine_factory();
  if (spine_lb || !plan.empty()) {
    std::function<void(net::Fabric&)> arm;
    if (!plan.empty()) {
      arm = fault::arming_hook(std::move(plan), spec.fault.seed);
    }
    cfg.fabric_hook = [spine_lb, arm](net::Fabric& f) {
      if (spine_lb) f.install_spine_lb(spine_lb);
      if (arm) arm(f);
    };
  }
  out = std::move(cfg);
  return true;
}

bool run_spec(const ExperimentSpec& spec, workload::ExperimentResult& out,
              std::string& err) {
  workload::ExperimentConfig cfg;
  if (!to_experiment_config(spec, cfg, err)) return false;
  out = workload::run_fct_experiment(cfg);
  return true;
}

ExperimentSpec hotspot_spec(const std::string& policy, int hosts_per_leaf,
                            sim::TimeNs stop) {
  ExperimentSpec spec;
  spec.dist = "datamining";
  spec.policy = policy;
  spec.load = 0.6;
  spec.topo = net::testbed_link_failure();
  spec.topo.hosts_per_leaf = hosts_per_leaf;
  spec.topo.fabric_queue_bytes = 10 * 1024 * 1024;  // room for the contrast
  spec.min_rto_ns = sim::milliseconds(10);
  spec.warmup_ns = sim::milliseconds(10);
  spec.measure_ns = stop - spec.warmup_ns;
  spec.max_drain_ns = 0;
  spec.fabric_seed = 31;
  spec.traffic_seed = 7;
  return spec;
}

bool run_hotspot(const ExperimentSpec& spec, telemetry::TraceSink& sink,
                 stats::Summary& queue_bytes, std::string& err) {
  workload::ExperimentConfig cfg;
  if (!to_experiment_config(spec, cfg, err)) return false;
  cfg.fabric_hook = [&sink, hook = std::move(cfg.fabric_hook)](
                        net::Fabric& fabric) {
    fabric.attach_telemetry(&sink);
    if (hook) hook(fabric);
  };
  workload::Experiment exp(cfg);
  telemetry::PeriodicSampler sampler(
      exp.scheduler(), sink, sim::microseconds(100), spec.warmup_ns,
      spec.warmup_ns + spec.measure_ns,
      {sink.probes().find("down:l1s1p0/queue_bytes")});
  exp.run();
  queue_bytes = sampler.summary(0);
  return true;
}

Json json_of_result(const workload::ExperimentResult& r) {
  return detail::encode(r);
}

bool result_from_json(const Json& doc, workload::ExperimentResult& out,
                      std::string& err) {
  return detail::decode(doc, out, err);
}

}  // namespace conga::campaign
