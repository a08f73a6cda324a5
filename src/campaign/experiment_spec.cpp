#include "campaign/experiment_spec.hpp"

#include <cstdlib>
#include <functional>
#include <utility>

#include "campaign/field_reader.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "lb_ext/policies.hpp"
#include "stats/digest.hpp"
#include "tcp/flow.hpp"
#include "tcp/mptcp_connection.hpp"
#include "telemetry/probes.hpp"
#include "workload/flow_size_dist.hpp"

namespace conga::campaign {

namespace {

constexpr const char* kSpecSchema = "conga-cell-spec-v1";

Json json_of_override(const net::LinkOverride& o) {
  Json j = Json::object();
  j.set("leaf", Json::integer(o.leaf));
  j.set("spine", Json::integer(o.spine));
  j.set("parallel", Json::integer(o.parallel));
  j.set("rate_factor", Json::number(o.rate_factor));
  return j;
}

}  // namespace

Json json_of_topo(const net::TopologyConfig& t) {
  Json j = Json::object();
  j.set("num_leaves", Json::integer(t.num_leaves));
  j.set("num_spines", Json::integer(t.num_spines));
  j.set("hosts_per_leaf", Json::integer(t.hosts_per_leaf));
  j.set("links_per_spine", Json::integer(t.links_per_spine));
  j.set("host_link_bps", Json::number(t.host_link_bps));
  j.set("fabric_link_bps", Json::number(t.fabric_link_bps));
  j.set("host_link_delay_ns", Json::integer(t.host_link_delay));
  j.set("fabric_link_delay_ns", Json::integer(t.fabric_link_delay));
  j.set("edge_queue_bytes", Json::uinteger(t.edge_queue_bytes));
  j.set("fabric_queue_bytes", Json::uinteger(t.fabric_queue_bytes));
  j.set("nic_queue_bytes", Json::uinteger(t.nic_queue_bytes));
  Json dre = Json::object();
  dre.set("t_dre_ns", Json::integer(t.dre.t_dre));
  dre.set("alpha", Json::number(t.dre.alpha));
  dre.set("q_bits", Json::integer(t.dre.q_bits));
  j.set("dre", std::move(dre));
  j.set("ce_sum", Json::boolean(t.ce_sum));
  j.set("ecn_threshold_bytes", Json::uinteger(t.ecn_threshold_bytes));
  j.set("shared_buffer_bytes", Json::uinteger(t.shared_buffer_bytes));
  j.set("shared_buffer_alpha", Json::number(t.shared_buffer_alpha));
  Json ovr = Json::array();
  for (const net::LinkOverride& o : t.overrides) {
    ovr.push_back(json_of_override(o));
  }
  j.set("overrides", std::move(ovr));
  // Pod fields only on pod fabrics, so every 2-tier spec keeps its
  // canonical bytes (and cell key).
  if (t.num_pods > 1) {
    j.set("num_pods", Json::integer(t.num_pods));
    j.set("num_cores", Json::integer(t.num_cores));
    Json core_ovr = Json::array();
    for (const net::CoreLinkOverride& o : t.core_overrides) {
      Json c = Json::object();
      c.set("spine", Json::integer(o.spine));
      c.set("core", Json::integer(o.core));
      c.set("rate_factor", Json::number(o.rate_factor));
      core_ovr.push_back(std::move(c));
    }
    j.set("core_overrides", std::move(core_ovr));
  }
  return j;
}

using detail::FieldReader;
using detail::read_field;

bool topo_from_json(const Json& doc, net::TopologyConfig& out,
                    std::string& err) {
  if (!doc.is_object()) {
    err = "topo must be an object";
    return false;
  }
  FieldReader r{err};
  net::TopologyConfig t;
  for (const auto& [key, v] : doc.members()) {
    if (key == "num_leaves") read_field(r, v, key, t.num_leaves);
    else if (key == "num_spines") read_field(r, v, key, t.num_spines);
    else if (key == "hosts_per_leaf") read_field(r, v, key, t.hosts_per_leaf);
    else if (key == "links_per_spine") read_field(r, v, key, t.links_per_spine);
    else if (key == "host_link_bps") read_field(r, v, key, t.host_link_bps);
    else if (key == "fabric_link_bps") read_field(r, v, key, t.fabric_link_bps);
    else if (key == "host_link_delay_ns")
      read_field(r, v, key, t.host_link_delay);
    else if (key == "fabric_link_delay_ns")
      read_field(r, v, key, t.fabric_link_delay);
    else if (key == "edge_queue_bytes")
      read_field(r, v, key, t.edge_queue_bytes);
    else if (key == "fabric_queue_bytes")
      read_field(r, v, key, t.fabric_queue_bytes);
    else if (key == "nic_queue_bytes") read_field(r, v, key, t.nic_queue_bytes);
    else if (key == "dre") {
      if (!v.is_object()) return r.fail("dre must be an object");
      for (const auto& [dk, dv] : v.members()) {
        if (dk == "t_dre_ns") read_field(r, dv, dk, t.dre.t_dre);
        else if (dk == "alpha") read_field(r, dv, dk, t.dre.alpha);
        else if (dk == "q_bits") read_field(r, dv, dk, t.dre.q_bits);
        else return r.fail("unknown dre field '" + dk + "'");
      }
    } else if (key == "ce_sum") read_field(r, v, key, t.ce_sum);
    else if (key == "ecn_threshold_bytes")
      read_field(r, v, key, t.ecn_threshold_bytes);
    else if (key == "shared_buffer_bytes")
      read_field(r, v, key, t.shared_buffer_bytes);
    else if (key == "shared_buffer_alpha")
      read_field(r, v, key, t.shared_buffer_alpha);
    else if (key == "overrides") {
      if (!v.is_array()) return r.fail("overrides must be an array");
      for (const Json& item : v.items()) {
        if (!item.is_object()) return r.fail("override must be an object");
        net::LinkOverride o;
        for (const auto& [ok_, ov] : item.members()) {
          if (ok_ == "leaf") read_field(r, ov, ok_, o.leaf);
          else if (ok_ == "spine") read_field(r, ov, ok_, o.spine);
          else if (ok_ == "parallel") read_field(r, ov, ok_, o.parallel);
          else if (ok_ == "rate_factor") read_field(r, ov, ok_, o.rate_factor);
          else return r.fail("unknown override field '" + ok_ + "'");
        }
        t.overrides.push_back(o);
      }
    } else if (key == "num_pods") read_field(r, v, key, t.num_pods);
    else if (key == "num_cores") read_field(r, v, key, t.num_cores);
    else if (key == "core_overrides") {
      if (!v.is_array()) return r.fail("core_overrides must be an array");
      for (const Json& item : v.items()) {
        if (!item.is_object()) return r.fail("core override must be an object");
        net::CoreLinkOverride o;
        for (const auto& [ok_, ov] : item.members()) {
          if (ok_ == "spine") read_field(r, ov, ok_, o.spine);
          else if (ok_ == "core") read_field(r, ov, ok_, o.core);
          else if (ok_ == "rate_factor") read_field(r, ov, ok_, o.rate_factor);
          else return r.fail("unknown core override field '" + ok_ + "'");
        }
        t.core_overrides.push_back(o);
      }
    } else {
      return r.fail("unknown topo field '" + key + "'");
    }
    if (!r.ok) return false;
  }
  out = t;
  return true;
}

Json json_of_spec(const ExperimentSpec& spec) {
  Json j = Json::object();
  j.set("schema", Json::string(kSpecSchema));
  j.set("dist", Json::string(spec.dist));
  j.set("policy", Json::string(spec.policy));
  j.set("load", Json::number(spec.load));
  j.set("min_rto_ns", Json::integer(spec.min_rto_ns));
  j.set("dctcp", Json::boolean(spec.dctcp));
  if (spec.mptcp_subflows > 0) {
    j.set("mptcp_subflows", Json::integer(spec.mptcp_subflows));
  }
  j.set("warmup_ns", Json::integer(spec.warmup_ns));
  j.set("measure_ns", Json::integer(spec.measure_ns));
  j.set("max_drain_ns", Json::integer(spec.max_drain_ns));
  j.set("fabric_seed", Json::uinteger(spec.fabric_seed));
  j.set("traffic_seed", Json::uinteger(spec.traffic_seed));
  Json fault = Json::object();
  fault.set("profile", Json::string(spec.fault.profile));
  fault.set("seed", Json::uinteger(spec.fault.seed));
  j.set("fault", std::move(fault));
  j.set("topo", json_of_topo(spec.topo));
  return j;
}

std::string canonical_json(const ExperimentSpec& spec) {
  return json_of_spec(spec).dump();
}

bool spec_from_json(const Json& doc, ExperimentSpec& out, std::string& err) {
  if (!doc.is_object()) {
    err = "spec must be an object";
    return false;
  }
  FieldReader r{err};
  ExperimentSpec s;
  for (const auto& [key, v] : doc.members()) {
    if (key == "schema") {
      std::string schema;
      if (read_field(r, v, key, schema) && schema != kSpecSchema) {
        return r.fail("unsupported spec schema '" + schema + "'");
      }
    } else if (key == "dist") read_field(r, v, key, s.dist);
    else if (key == "policy") read_field(r, v, key, s.policy);
    else if (key == "load") read_field(r, v, key, s.load);
    else if (key == "min_rto_ns") read_field(r, v, key, s.min_rto_ns);
    else if (key == "dctcp") read_field(r, v, key, s.dctcp);
    else if (key == "mptcp_subflows") read_field(r, v, key, s.mptcp_subflows);
    else if (key == "warmup_ns") read_field(r, v, key, s.warmup_ns);
    else if (key == "measure_ns") read_field(r, v, key, s.measure_ns);
    else if (key == "max_drain_ns") read_field(r, v, key, s.max_drain_ns);
    else if (key == "fabric_seed") read_field(r, v, key, s.fabric_seed);
    else if (key == "traffic_seed") read_field(r, v, key, s.traffic_seed);
    else if (key == "fault") {
      if (!v.is_object()) return r.fail("fault must be an object");
      for (const auto& [fk, fv] : v.members()) {
        if (fk == "profile") read_field(r, fv, fk, s.fault.profile);
        else if (fk == "seed") read_field(r, fv, fk, s.fault.seed);
        else return r.fail("unknown fault field '" + fk + "'");
      }
    } else if (key == "topo") {
      if (!topo_from_json(v, s.topo, err)) return false;
    } else {
      return r.fail("unknown spec field '" + key + "'");
    }
    if (!r.ok) return false;
  }
  out = s;
  return true;
}

bool parse_spec(const std::string& text, ExperimentSpec& out,
                std::string& err) {
  Json doc;
  if (!Json::parse(text, doc, err)) return false;
  return spec_from_json(doc, out, err);
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
    const double bytes = std::strtod(spec.dist.c_str() + 6, nullptr);
    if (!(bytes >= 1)) {
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

  const bool spine_drill = info->spine_drill;
  if (spine_drill || !plan.empty()) {
    std::function<void(net::Fabric&)> arm;
    if (!plan.empty()) {
      arm = fault::arming_hook(std::move(plan), spec.fault.seed);
    }
    cfg.fabric_hook = [spine_drill, arm](net::Fabric& f) {
      if (spine_drill) f.set_spine_drill(true);
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
  Json j = Json::object();
  j.set("avg_norm_fct", Json::number(r.avg_norm_fct));
  j.set("median_norm_fct", Json::number(r.median_norm_fct));
  j.set("p99_norm_fct", Json::number(r.p99_norm_fct));
  j.set("avg_fct_small", Json::number(r.avg_fct_small));
  j.set("avg_fct_large", Json::number(r.avg_fct_large));
  j.set("avg_fct_overall", Json::number(r.avg_fct_overall));
  j.set("flows", Json::uinteger(r.flows));
  j.set("small_flows", Json::uinteger(r.small_flows));
  j.set("large_flows", Json::uinteger(r.large_flows));
  j.set("completed_fraction", Json::number(r.completed_fraction));
  j.set("drained", Json::boolean(r.drained));
  j.set("unfinished_flows", Json::uinteger(r.unfinished_flows));
  j.set("bytes_outstanding", Json::uinteger(r.bytes_outstanding));
  j.set("fct_digest", Json::string(hex64(r.fct_digest)));
  j.set("reorder_segments", Json::uinteger(r.reorder_segments));
  j.set("reorder_max_distance", Json::uinteger(r.reorder_max_distance));
  j.set("reordered_flows", Json::uinteger(r.reordered_flows));
  j.set("probes_sent", Json::uinteger(r.probes_sent));
  j.set("probes_received", Json::uinteger(r.probes_received));
  return j;
}

bool result_from_json(const Json& doc, workload::ExperimentResult& out,
                      std::string& err) {
  if (!doc.is_object()) {
    err = "result must be an object";
    return false;
  }
  FieldReader r{err};
  workload::ExperimentResult res;
  for (const auto& [key, v] : doc.members()) {
    if (key == "avg_norm_fct") read_field(r, v, key, res.avg_norm_fct);
    else if (key == "median_norm_fct")
      read_field(r, v, key, res.median_norm_fct);
    else if (key == "p99_norm_fct") read_field(r, v, key, res.p99_norm_fct);
    else if (key == "avg_fct_small") read_field(r, v, key, res.avg_fct_small);
    else if (key == "avg_fct_large") read_field(r, v, key, res.avg_fct_large);
    else if (key == "avg_fct_overall")
      read_field(r, v, key, res.avg_fct_overall);
    else if (key == "flows") read_field(r, v, key, res.flows);
    else if (key == "small_flows") read_field(r, v, key, res.small_flows);
    else if (key == "large_flows") read_field(r, v, key, res.large_flows);
    else if (key == "completed_fraction")
      read_field(r, v, key, res.completed_fraction);
    else if (key == "drained") read_field(r, v, key, res.drained);
    else if (key == "unfinished_flows")
      read_field(r, v, key, res.unfinished_flows);
    else if (key == "bytes_outstanding")
      read_field(r, v, key, res.bytes_outstanding);
    else if (key == "fct_digest") {
      std::string hex;
      if (read_field(r, v, key, hex)) {
        res.fct_digest = std::strtoull(hex.c_str(), nullptr, 16);
      }
    } else if (key == "reorder_segments")
      read_field(r, v, key, res.reorder_segments);
    else if (key == "reorder_max_distance")
      read_field(r, v, key, res.reorder_max_distance);
    else if (key == "reordered_flows")
      read_field(r, v, key, res.reordered_flows);
    else if (key == "probes_sent") read_field(r, v, key, res.probes_sent);
    else if (key == "probes_received")
      read_field(r, v, key, res.probes_received);
    else
      return r.fail("unknown result field '" + key + "'");
    if (!r.ok) return false;
  }
  out = res;
  return true;
}

}  // namespace conga::campaign
