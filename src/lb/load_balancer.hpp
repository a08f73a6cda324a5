// Strategy interfaces for the source-leaf uplink choice and the spine's
// downlink choice.
//
// A LeafSwitch owns one LoadBalancer and consults it for every packet it
// encapsulates toward the fabric. Congestion-aware schemes additionally get
// (a) a hook on every fabric packet received at the destination leaf — where
// CONGA harvests CE values and piggybacked feedback — and (b) an annotation
// hook to stamp overlay fields on outgoing packets.
//
// Implementations in src/lb/ (ECMP, packet spray, local-aware, weighted),
// src/core/ (CONGA itself) and src/lb_ext/ (LetFlow, DRILL, Presto, HULA),
// all registered by name in lb_ext/policies.hpp. The flowlet-switched ones
// derive from lb::FlowletLb (lb/flowlet_lb.hpp), which owns the flowlet
// table and calls the policy's choose() once per new flowlet. Downstream
// users can plug their own scheme; see examples/custom_lb.cpp.
//
// A SpineSwitch forwards by salted ECMP hash unless a policy installs a
// SpineBalancer on it (Fabric::install_spine_lb); DRILL's spine half
// (lb_ext/drill_lb.hpp) is the one user today.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace conga::net {
class LeafSwitch;
class Link;
}  // namespace conga::net

namespace conga::telemetry {
class TraceSink;
}  // namespace conga::telemetry

namespace conga::lb {

class LoadBalancer {
 public:
  virtual ~LoadBalancer() = default;

  /// Chooses an index into the leaf's live uplink list for a packet headed to
  /// `dst_leaf`. Called for every fabric-bound packet.
  virtual int select_uplink(const net::Packet& pkt, net::LeafId dst_leaf,
                            sim::TimeNs now) = 0;

  /// Destination-leaf hook: invoked for every encapsulated packet received
  /// from the fabric, before decapsulation.
  virtual void on_fabric_receive(const net::Packet& /*pkt*/,
                                 sim::TimeNs /*now*/) {}

  /// Source-leaf hook: stamps overlay fields (LBTag, CE, feedback) on a
  /// packet after `uplink` was selected.
  virtual void annotate(net::Packet& /*pkt*/, int /*uplink*/,
                        sim::TimeNs /*now*/) {}

  /// Probe-plane hook: a probe packet (pkt->probe.kind != 0) addressed to
  /// this leaf. The balancer takes ownership; schemes without a probe plane
  /// let it drop here. Never invoked for data packets, so policies that run
  /// no probe plane pay nothing.
  virtual void on_probe_packet(net::PacketPtr /*pkt*/, sim::TimeNs /*now*/) {}

  /// Telemetry hook: route the balancer's internal events (flowlet table,
  /// congestion tables, ...) to `sink`. Stateless schemes ignore it.
  virtual void attach_telemetry(telemetry::TraceSink* /*sink*/) {}

  virtual std::string name() const = 0;
};

class SpineBalancer {
 public:
  virtual ~SpineBalancer() = default;

  /// Chooses an index into `links`, the spine's parallel live downlinks
  /// toward `dst_leaf`. Called only when there are at least two.
  virtual std::size_t select_downlink(net::LeafId dst_leaf,
                                      const std::vector<net::Link*>& links) = 0;
};

}  // namespace conga::lb
