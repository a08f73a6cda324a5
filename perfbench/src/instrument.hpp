// Instrumentation the benchmark wraps around the simulator's public entry
// points. No simulator code is edited: every number is taken at a boundary
// the public API already offers.
//
//  * Fabric::LbFactory wrapper   — stamps the end of the fabric build, and in
//    traced cells wraps every leaf's balancer in a forwarding TimedLb.
//  * ExperimentConfig::fabric_hook wrapper — stamps the end of policy
//    install, and in traced cells attaches the trace sinks and the
//    scheduler's trace hook.
//  * tcp::FlowFactory wrapper    — stamps the first flow (the end of set-up),
//    counts flows, and reads the fabric's link counters when the last
//    measured flow completes (the instant the cell's FCT result is final).
//
// A CellProbe holds what one cell execution records. It lives on the cell's
// thread and outlives the simulation it observes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "lb/load_balancer.hpp"
#include "net/fabric.hpp"
#include "sim/scheduler.hpp"
#include "tcp/flow.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {

using namespace conga;

/// One LoadBalancer hook: exact call count, host time of a 1-in-kLbSample
/// subset of the calls.
struct HookStats {
  std::uint64_t calls = 0;
  std::uint64_t sampled = 0;
  std::int64_t sampled_ns = 0;

  /// Mean host ns per call over the sampled calls, net of clock overhead.
  double mean_ns(double clock_overhead_ns) const;
};

struct LbStats {
  HookStats select;
  HookStats receive;
  HookStats annotate;
  std::uint64_t probe_packets = 0;
};

/// Every kLbSample-th call of each LB hook is timed (and kept as a span).
constexpr std::uint64_t kLbSample = 1024;

/// One traced interval on the host clock.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
};

/// Link, queue and leaf counters summed over every link of a fabric.
struct NetCounts {
  std::uint64_t hops = 0;          ///< packets delivered, summed over links
  std::uint64_t offered = 0;       ///< packets handed to links
  std::uint64_t drops_queue = 0;   ///< queue-overflow drops
  std::uint64_t drops_fault = 0;   ///< admin-down + gray + corrupt drops
  std::uint64_t host_offered = 0;  ///< packets offered to host uplinks
  std::uint64_t queue_peak_bytes = 0;
  std::uint64_t to_fabric = 0;     ///< packets leaves sent into the fabric
  bool conserved = true;           ///< Link::conserves_packets() everywhere
};

NetCounts read_net(net::Fabric& fabric);

/// Trace sinks of a traced cell, split by the layer that records into them
/// so per-component counts separate cleanly:
///  * main — the sink Fabric::attach_telemetry installs (TCP and flow events
///    via the scheduler, fabric control-plane events);
///  * lb   — every leaf balancer's flowlet and congestion tables, re-attached
///    through LoadBalancer::attach_telemetry;
///  * net  — every link, re-attached through Link::attach_telemetry; records
///    DRE updates only (queue events are per-packet detail left off).
struct Sinks {
  Sinks();
  telemetry::TraceSink main;
  telemetry::TraceSink lb;
  telemetry::TraceSink net;

  void attach(net::Fabric& fabric);
  std::uint64_t recorded() const;
};

/// Counts read from the sinks after a traced cell.
struct TraceCounts {
  std::uint64_t flowlets = 0;      ///< flowlet installs (create + path change)
  std::uint64_t path_changes = 0;  ///< flowlets that moved to another uplink
  std::uint64_t dre_updates = 0;
  std::uint64_t table_updates = 0;
  std::uint64_t tcp_flows = 0;     ///< TCP senders started (MPTCP subflows)
  std::uint64_t rto = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t events_recorded = 0;
  bool complete = true;  ///< no type-counted component wrapped its ring
};

TraceCounts count_traces(const Sinks& sinks);

struct CellProbe {
  bool traced = false;

  // Measured-flow window (simulated time) of an FCT cell.
  sim::TimeNs measure_start = 0;
  sim::TimeNs measure_stop = 0;

  // Host-clock phase stamps.
  std::int64_t t_start = 0;
  std::int64_t t_fabric = 0;     ///< first LbFactory call: fabric built
  std::int64_t t_installed = 0;  ///< fabric_hook: policy installed
  std::int64_t t_attached = 0;   ///< traced sinks/hooks attached
  std::int64_t t_first_flow = 0; ///< first FlowFactory call: set-up done
  std::int64_t t_run_end = 0;    ///< last dispatched event (traced, sampled)
  std::int64_t t_net_read = 0;   ///< link counters read
  std::int64_t t_end = 0;

  net::Fabric* fabric = nullptr;

  // Transport layer.
  std::uint64_t flows_started = 0;
  std::uint64_t measured_started = 0;
  std::uint64_t measured_completed = 0;
  std::int64_t flow_build_ns = 0;
  NetCounts net;
  bool net_read = false;

  // Traced only.
  LbStats lb;
  std::uint64_t events = 0;
  std::uint64_t events_at_net_read = 0;
  std::size_t pending_peak = 0;
  std::vector<Span> spans;
  std::unique_ptr<Sinks> sinks;

  /// Attaches the traced instrumentation to a freshly built fabric.
  void attach_tracing(net::Fabric& fabric);
  /// Reads the link counters and closes the hop window: host time and
  /// events per hop are taken over t_first_flow .. t_net_read.
  void read_fabric();
};

/// Forwards every LoadBalancer hook to `inner`, timing a sample of them.
class TimedLb final : public lb::LoadBalancer {
 public:
  TimedLb(std::unique_ptr<lb::LoadBalancer> inner, CellProbe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  int select_uplink(const net::Packet& pkt, net::LeafId dst_leaf,
                    sim::TimeNs now) override;
  void on_fabric_receive(const net::Packet& pkt, sim::TimeNs now) override;
  void annotate(net::Packet& pkt, int uplink, sim::TimeNs now) override;
  void on_probe_packet(net::PacketPtr pkt, sim::TimeNs now) override;
  void attach_telemetry(telemetry::TraceSink* sink) override;
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<lb::LoadBalancer> inner_;
  CellProbe* probe_;
};

/// Wraps an LB factory: stamps t_fabric on the first call and, in traced
/// cells, decorates each balancer with a TimedLb.
net::Fabric::LbFactory wrap_lb(net::Fabric::LbFactory inner,
                               CellProbe* probe);

/// Wraps a fabric hook (which may be empty): stamps t_installed after the
/// inner hook and attaches tracing in traced cells.
std::function<void(net::Fabric&)> wrap_fabric_hook(
    std::function<void(net::Fabric&)> inner, CellProbe* probe);

/// Wraps a transport factory; see the file comment.
tcp::FlowFactory wrap_transport(tcp::FlowFactory inner, CellProbe* probe);

/// Mean host cost of one clock read, in ns: what a sampled interval
/// overstates the call it times by.
double clock_overhead_ns();

}  // namespace perfbench
