#include "cells.hpp"

#include <bit>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "campaign/json.hpp"
#include "clock.hpp"
#include "lb/factories.hpp"
#include "net/packet.hpp"
#include "stats/digest.hpp"
#include "workload/experiment.hpp"

namespace perfbench {

namespace {

// An incast cell stops when its last round lands, long before this.
constexpr sim::TimeNs kIncastHorizon = sim::seconds(60.0);

std::uint64_t pool_chunks() { return net::packet_pool_stats().chunk_allocs; }

/// Fills the result's phases and traced counters from a finished probe.
void finish(CellProbe& probe, std::uint64_t pool_before, CellResult& r,
            std::vector<Span>* spans) {
  // A cell that never launched a flow ends its set-up where tracing did.
  if (probe.t_first_flow == 0) probe.t_first_flow = probe.t_attached;
  r.build_s = seconds_between(probe.t_start, probe.t_fabric);
  r.install_s = seconds_between(probe.t_fabric, probe.t_installed);
  r.gen_setup_s = seconds_between(probe.t_attached, probe.t_first_flow);
  r.run_s = seconds_between(probe.t_first_flow, probe.t_end);
  r.hop_window_s = seconds_between(probe.t_first_flow, probe.t_net_read);
  r.total_s = seconds_between(probe.t_start, probe.t_end);
  r.flows_started = probe.flows_started;
  r.net = probe.net;
  r.net_read = probe.net_read;
  r.pool_chunk_allocs = pool_chunks() - pool_before;
  r.traced = probe.traced;
  if (!probe.traced) return;
  r.summary_s = seconds_between(probe.t_run_end, probe.t_end);
  r.flow_build_ns = probe.flow_build_ns;
  r.events = probe.events;
  r.hop_window_events = probe.events_at_net_read;
  r.pending_peak = probe.pending_peak;
  r.lb = probe.lb;
  r.counts = count_traces(*probe.sinks);
  if (spans == nullptr) return;
  spans->insert(spans->end(), probe.spans.begin(), probe.spans.end());
  const std::int64_t stamps[] = {probe.t_start,    probe.t_fabric,
                                 probe.t_installed, probe.t_attached,
                                 probe.t_first_flow, probe.t_run_end,
                                 probe.t_end};
  const char* const phases[] = {"cell.setup.fabric", "cell.setup.lb",
                                "cell.setup.trace_attach",
                                "cell.setup.generators", "cell.run",
                                "cell.summary"};
  for (std::size_t i = 0; i < std::size(phases); ++i) {
    spans->push_back(Span{phases[i], stamps[i], stamps[i + 1] - stamps[i]});
  }
}

CellResult run_fct(const CellSpec& cell, bool traced,
                   std::vector<Span>* spans) {
  CellProbe probe;
  probe.traced = traced;
  probe.measure_start = cell.fct.warmup_ns;
  probe.measure_stop = cell.fct.warmup_ns + cell.fct.measure_ns;

  workload::ExperimentConfig cfg;
  std::string err;
  if (!campaign::to_experiment_config(cell.fct, cfg, err)) {
    throw std::runtime_error(cell.name + ": " + err);
  }
  cfg.lb = wrap_lb(std::move(cfg.lb), &probe);
  cfg.fabric_hook = wrap_fabric_hook(std::move(cfg.fabric_hook), &probe);
  cfg.transport = wrap_transport(std::move(cfg.transport), &probe);

  const std::uint64_t pool_before = pool_chunks();
  probe.t_start = host_ns();
  const workload::ExperimentResult out = workload::run_fct_experiment(cfg);
  probe.t_end = host_ns();

  CellResult r;
  r.finished = out.drained;
  r.digest = out.fct_digest;
  r.flows_measured = out.flows;
  finish(probe, pool_before, r, spans);
  return r;
}

CellResult run_incast(const CellSpec& cell, bool traced,
                      std::vector<Span>* spans) {
  const IncastSpec& s = cell.incast;
  CellProbe probe;
  probe.traced = traced;
  const tcp::FlowFactory transport =
      wrap_transport(tcp::make_mptcp_flow_factory(s.mptcp), &probe);

  CellResult r;
  const std::uint64_t pool_before = pool_chunks();
  probe.t_start = host_ns();
  {
    sim::Scheduler sched;
    net::Fabric fabric(sched, s.topo, s.fabric_seed);
    fabric.install_lb(wrap_lb(core::conga(), &probe));
    wrap_fabric_hook({}, &probe)(fabric);
    workload::IncastGenerator gen(fabric, transport, s.incast);
    gen.start();
    probe.t_first_flow = host_ns();
    sched.run_until(kIncastHorizon);
    probe.t_run_end = host_ns();

    probe.read_fabric();
    r.finished = gen.finished();
    r.goodput = gen.goodput_fraction();
    r.flows_measured = static_cast<std::uint64_t>(gen.rounds_done()) *
                       s.incast.servers.size();
    stats::TraceDigest d;
    d.add(static_cast<std::uint64_t>(gen.rounds_done()));
    d.add(static_cast<std::uint64_t>(gen.elapsed()));
    d.add(std::bit_cast<std::uint64_t>(r.goodput));
    d.add(probe.net.hops);
    d.add(probe.net.drops_queue);
    r.digest = d.value();
  }
  probe.t_end = host_ns();
  finish(probe, pool_before, r, spans);
  return r;
}

}  // namespace

std::string describe(const CellSpec& cell) {
  if (!cell.is_incast) return campaign::canonical_json(cell.fct);
  const IncastSpec& s = cell.incast;
  campaign::Json j = campaign::Json::object();
  j.set("kind", campaign::Json::string("incast"));
  j.set("policy", campaign::Json::string("conga"));
  j.set("topo", campaign::json_of_topo(s.topo));
  j.set("fabric_seed", campaign::Json::uinteger(s.fabric_seed));
  j.set("client", campaign::Json::integer(s.incast.client));
  j.set("fanin", campaign::Json::uinteger(s.incast.servers.size()));
  j.set("total_bytes", campaign::Json::uinteger(s.incast.total_bytes));
  j.set("rounds", campaign::Json::integer(s.incast.rounds));
  j.set("jitter_seed", campaign::Json::uinteger(s.incast.seed));
  j.set("subflows", campaign::Json::integer(s.mptcp.num_subflows));
  j.set("mtu", campaign::Json::uinteger(s.mptcp.tcp.mtu));
  j.set("min_rto_ns", campaign::Json::integer(s.mptcp.tcp.min_rto));
  j.set("horizon_ns", campaign::Json::integer(kIncastHorizon));
  return j.dump();
}

CellResult run_cell(const CellSpec& cell, bool traced,
                    std::vector<Span>* spans) {
  return cell.is_incast ? run_incast(cell, traced, spans)
                        : run_fct(cell, traced, spans);
}

}  // namespace perfbench
