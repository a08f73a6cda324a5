#include "instrument.hpp"

#include <algorithm>
#include <string_view>
#include <utility>

#include "clock.hpp"

namespace perfbench {

namespace {

using telemetry::Category;
using telemetry::EventType;
using telemetry::category_bit;

// Ring sizes: the flowlet and TCP components are counted by event type, so
// their rings must hold every event of a cell; the congestion tables record
// per packet and fill their rings, which bounds the lb sink's memory at
// 32 B x kLbRing per table.
constexpr std::size_t kMainRing = std::size_t{1} << 20;
constexpr std::size_t kLbRing = std::size_t{1} << 18;

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

void record_sample(HookStats& h, CellProbe* probe, const char* name,
                   std::int64_t t0) {
  const std::int64_t dur = host_ns() - t0;
  ++h.sampled;
  h.sampled_ns += dur;
  probe->spans.push_back(Span{name, t0, dur});
}

}  // namespace

double HookStats::mean_ns(double clock_overhead_ns) const {
  if (sampled == 0) return 0.0;
  const double raw =
      static_cast<double>(sampled_ns) / static_cast<double>(sampled);
  return std::max(0.0, raw - clock_overhead_ns);
}

NetCounts read_net(net::Fabric& fabric) {
  NetCounts n;
  const auto add = [&n](const net::Link* l, bool host_uplink) {
    if (l == nullptr) return;
    const net::QueueStats& q = l->queue().stats();
    const net::LinkDropStats& d = l->drop_stats();
    n.hops += l->packets_delivered();
    n.offered += l->packets_offered();
    n.drops_queue += q.dropped_pkts;
    n.drops_fault += d.admin_down_pkts + d.gray_pkts + d.corrupt_pkts;
    if (host_uplink) n.host_offered += l->packets_offered();
    n.queue_peak_bytes = std::max(n.queue_peak_bytes, q.max_bytes_seen);
    n.conserved = n.conserved && l->conserves_packets();
  };
  for (net::HostId h = 0; h < fabric.num_hosts(); ++h) {
    add(fabric.host_to_leaf(h), true);
    add(fabric.leaf_to_host(h), false);
  }
  for (const net::Link* l : fabric.fabric_links()) add(l, false);
  for (int l = 0; l < fabric.num_leaves(); ++l) {
    n.to_fabric += fabric.leaf(l).packets_to_fabric();
  }
  return n;
}

Sinks::Sinks()
    : main(telemetry::TraceSinkConfig{kMainRing, telemetry::kAllCategories}),
      lb(telemetry::TraceSinkConfig{
          kLbRing, category_bit(Category::kFlowlet) |
                       category_bit(Category::kCongaTable)}),
      net(telemetry::TraceSinkConfig{1, category_bit(Category::kDre)}) {}

void Sinks::attach(net::Fabric& fabric) {
  fabric.attach_telemetry(&main);
  for (int l = 0; l < fabric.num_leaves(); ++l) {
    if (lb::LoadBalancer* b = fabric.leaf(l).load_balancer()) {
      b->attach_telemetry(&lb);
    }
  }
  for (net::HostId h = 0; h < fabric.num_hosts(); ++h) {
    fabric.host_to_leaf(h)->attach_telemetry(&net);
    fabric.leaf_to_host(h)->attach_telemetry(&net);
  }
  for (net::Link* l : fabric.fabric_links()) l->attach_telemetry(&net);
}

std::uint64_t Sinks::recorded() const {
  return main.total_recorded() + lb.total_recorded() + net.total_recorded();
}

TraceCounts count_traces(const Sinks& sinks) {
  TraceCounts c;
  const telemetry::TraceSink& lb = sinks.lb;
  for (telemetry::ComponentId id = 0; id < lb.component_count(); ++id) {
    const std::string& name = lb.component_name(id);
    if (ends_with(name, "/to_leaf") || ends_with(name, "/from_leaf")) {
      c.table_updates += lb.recorded(id);
    } else if (ends_with(name, "/flowlets")) {
      c.complete = c.complete && lb.recorded(id) <= lb.config().ring_capacity;
      for (const telemetry::Event& e : lb.events(id)) {
        if (e.type == EventType::kFlowletCreate) ++c.flowlets;
        if (e.type == EventType::kFlowletPathChange) {
          ++c.flowlets;
          ++c.path_changes;
        }
      }
    }
  }
  c.dre_updates = sinks.net.total_recorded();
  const telemetry::TraceSink& main = sinks.main;
  const telemetry::ComponentId tcp = main.find_component("tcp");
  if (tcp != telemetry::kInvalidComponent) {
    c.complete = c.complete && main.recorded(tcp) <= main.config().ring_capacity;
    for (const telemetry::Event& e : main.events(tcp)) {
      if (e.type == EventType::kFlowStart) ++c.tcp_flows;
      if (e.type == EventType::kTcpRto) ++c.rto;
      if (e.type == EventType::kTcpRetransmit) ++c.retransmits;
    }
  }
  c.events_recorded = sinks.recorded();
  return c;
}

void CellProbe::attach_tracing(net::Fabric& f) {
  sinks = std::make_unique<Sinks>();
  sinks->attach(f);
  sim::Scheduler* sched = &f.scheduler();
  sched->set_trace_hook([this, sched](sim::TimeNs, sim::EventId) {
    ++events;
    pending_peak = std::max(pending_peak, sched->pending());
    if ((events & 15) == 0) t_run_end = host_ns();
  });
}

void CellProbe::read_fabric() {
  net = read_net(*fabric);
  net_read = true;
  events_at_net_read = events;
  t_net_read = host_ns();
}

int TimedLb::select_uplink(const net::Packet& pkt, net::LeafId dst_leaf,
                           sim::TimeNs now) {
  HookStats& h = probe_->lb.select;
  if ((++h.calls & (kLbSample - 1)) != 0) {
    return inner_->select_uplink(pkt, dst_leaf, now);
  }
  const std::int64_t t0 = host_ns();
  const int port = inner_->select_uplink(pkt, dst_leaf, now);
  record_sample(h, probe_, "lb.select", t0);
  return port;
}

void TimedLb::on_fabric_receive(const net::Packet& pkt, sim::TimeNs now) {
  HookStats& h = probe_->lb.receive;
  if ((++h.calls & (kLbSample - 1)) != 0) {
    inner_->on_fabric_receive(pkt, now);
    return;
  }
  const std::int64_t t0 = host_ns();
  inner_->on_fabric_receive(pkt, now);
  record_sample(h, probe_, "lb.receive", t0);
}

void TimedLb::annotate(net::Packet& pkt, int uplink, sim::TimeNs now) {
  HookStats& h = probe_->lb.annotate;
  if ((++h.calls & (kLbSample - 1)) != 0) {
    inner_->annotate(pkt, uplink, now);
    return;
  }
  const std::int64_t t0 = host_ns();
  inner_->annotate(pkt, uplink, now);
  record_sample(h, probe_, "lb.annotate", t0);
}

void TimedLb::on_probe_packet(net::PacketPtr pkt, sim::TimeNs now) {
  ++probe_->lb.probe_packets;
  inner_->on_probe_packet(std::move(pkt), now);
}

void TimedLb::attach_telemetry(telemetry::TraceSink* sink) {
  inner_->attach_telemetry(sink);
}

net::Fabric::LbFactory wrap_lb(net::Fabric::LbFactory inner,
                               CellProbe* probe) {
  return [inner = std::move(inner), probe](
             net::LeafSwitch& leaf, const net::TopologyConfig& cfg,
             std::uint64_t seed) -> std::unique_ptr<lb::LoadBalancer> {
    if (probe->t_fabric == 0) probe->t_fabric = host_ns();
    std::unique_ptr<lb::LoadBalancer> balancer = inner(leaf, cfg, seed);
    if (!probe->traced) return balancer;
    return std::make_unique<TimedLb>(std::move(balancer), probe);
  };
}

std::function<void(net::Fabric&)> wrap_fabric_hook(
    std::function<void(net::Fabric&)> inner, CellProbe* probe) {
  return [inner = std::move(inner), probe](net::Fabric& fabric) {
    if (inner) inner(fabric);
    probe->t_installed = host_ns();
    probe->fabric = &fabric;
    if (probe->traced) probe->attach_tracing(fabric);
    probe->t_attached = host_ns();
  };
}

tcp::FlowFactory wrap_transport(tcp::FlowFactory inner, CellProbe* probe) {
  return [inner = std::move(inner), probe](
             sim::Scheduler& sched, net::Host& src, net::Host& dst,
             const net::FlowKey& key, std::uint64_t size,
             tcp::FlowCompleteFn on_complete)
             -> std::unique_ptr<tcp::FlowHandle> {
    const std::int64_t t0 = probe->traced || probe->t_first_flow == 0
                                ? host_ns()
                                : 0;
    if (probe->t_first_flow == 0) probe->t_first_flow = t0;
    ++probe->flows_started;
    const sim::TimeNs now = sched.now();
    if (now >= probe->measure_start && now < probe->measure_stop) {
      ++probe->measured_started;
      on_complete = [probe, done = std::move(on_complete)](
                        tcp::FlowHandle& flow) {
        done(flow);
        if (++probe->measured_completed == probe->measured_started) {
          probe->read_fabric();
        }
      };
    }
    std::unique_ptr<tcp::FlowHandle> flow =
        inner(sched, src, dst, key, size, std::move(on_complete));
    if (probe->traced) probe->flow_build_ns += host_ns() - t0;
    return flow;
  };
}

double clock_overhead_ns() {
  constexpr int kReads = 20000;
  const std::int64_t t0 = host_ns();
  std::int64_t last = t0;
  for (int i = 0; i < kReads; ++i) last = host_ns();
  return static_cast<double>(last - t0) / kReads;
}

}  // namespace perfbench
