// Fabric: builds and owns a complete Leaf-Spine network instance.
//
// Construction wires hosts, leaves, spines, cores (3-tier pod fabrics only)
// and every (unidirectional) link per the TopologyConfig, applying
// failure/degradation overrides. Load balancers are installed afterwards via
// a factory, so one topology can be re-created identically for each scheme
// under comparison.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "lb/load_balancer.hpp"
#include "net/host.hpp"
#include "net/leaf_switch.hpp"
#include "net/link.hpp"
#include "net/spine_switch.hpp"
#include "net/topology.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace conga::net {

class Fabric {
 public:
  /// A factory producing one LoadBalancer per leaf. The leaf is fully wired
  /// (all uplinks present) when invoked.
  using LbFactory = std::function<std::unique_ptr<lb::LoadBalancer>(
      LeafSwitch& leaf, const TopologyConfig& cfg, std::uint64_t seed)>;
  /// A factory producing one SpineBalancer per spine.
  using SpineLbFactory = std::function<std::unique_ptr<lb::SpineBalancer>(
      const TopologyConfig& cfg, std::uint64_t seed)>;

  Fabric(sim::Scheduler& sched, const TopologyConfig& cfg,
         std::uint64_t seed = 1);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Installs a load balancer on every leaf.
  void install_lb(const LbFactory& factory);

  /// Installs a downlink chooser on every spine (not on cores); an empty
  /// factory restores ECMP hashing. The policy registry
  /// (src/lb_ext/policies.hpp) installs a policy's spine half with it.
  void install_spine_lb(const SpineLbFactory& factory);

  /// Routes the whole fabric's telemetry to `sink` (nullptr detaches):
  /// every link (queue + DRE included), every installed load balancer, and
  /// the scheduler's ambient pointer (which TCP senders read). Also
  /// registers the standard probe set: per-fabric-link queue_bytes gauges
  /// and tx_bytes counters, per-leaf packet counters, and per-leaf
  /// rx_host_bytes (sum of attached hosts' received bytes). Call after
  /// install_lb(); calling install_lb() later re-attaches the new balancers.
  void attach_telemetry(telemetry::TraceSink* sink);
  telemetry::TraceSink* telemetry() const { return tele_; }

  // --- accessors ---
  sim::Scheduler& scheduler() { return sched_; }
  const TopologyConfig& config() const { return cfg_; }

  int num_hosts() const { return static_cast<int>(hosts_.size()); }
  Host& host(HostId h) { return *hosts_[static_cast<std::size_t>(h)]; }
  LeafSwitch& leaf(int l) { return *leaves_[static_cast<std::size_t>(l)]; }
  SpineSwitch& spine(int s) { return *spines_[static_cast<std::size_t>(s)]; }
  SpineSwitch& core(int c) { return *cores_[static_cast<std::size_t>(c)]; }
  int num_leaves() const { return static_cast<int>(leaves_.size()); }
  int num_spines() const { return static_cast<int>(spines_.size()); }
  int num_cores() const { return static_cast<int>(cores_.size()); }

  /// The leaf a host attaches to.
  LeafId leaf_of(HostId h) const { return directory_[static_cast<std::size_t>(h)]; }
  const std::vector<LeafId>& directory() const { return directory_; }

  /// The spine -> leaf link for (spine, leaf, parallel); nullptr if failed
  /// or if the two are in different pods.
  Link* down_link(int spine, int leaf, int parallel);
  /// The leaf -> spine link for (leaf, spine, parallel); nullptr if it was
  /// removed at build time or the two are in different pods. The fault
  /// injector drives per-link hooks (rate scale, gray failure, CE
  /// suppression) through this.
  Link* up_link(int leaf, int spine, int parallel);
  /// The spine -> core and core -> spine links; nullptr if failed at build.
  Link* spine_to_core(int spine, int core) {
    return spine_to_core_[static_cast<std::size_t>(spine) * cores_.size() +
                          static_cast<std::size_t>(core)];
  }
  Link* core_to_spine(int core, int spine) {
    return core_to_spine_[static_cast<std::size_t>(core) * spines_.size() +
                          static_cast<std::size_t>(spine)];
  }
  /// The host's access links.
  Link* host_to_leaf(HostId h) { return host_up_[static_cast<std::size_t>(h)]; }
  Link* leaf_to_host(HostId h) { return host_down_[static_cast<std::size_t>(h)]; }

  /// All fabric (leaf<->spine, then spine<->core) links that exist, for
  /// fleet-wide stats (Fig 16 reports queue lengths at every fabric port).
  const std::vector<Link*>& fabric_links() const { return fabric_links_; }

  /// Fails a live leaf<->spine link pair at runtime (packets blackhole
  /// immediately); after `detection_delay` the routing layer notices and
  /// withdraws the link from the leaf's and spine's forwarding state (and,
  /// once the spine has no live link left to the leaf, the cores stop
  /// sending that leaf's traffic to the spine). Models the failure-detection
  /// window real fabrics have.
  ///
  /// Re-entrancy: fail/restore calls may overlap an earlier call's detection
  /// window (a flapping link). Each call bumps the triple's epoch and only
  /// the most recent call's detection handler applies — superseded handlers
  /// no-op, and a handler whose target state is already in place (e.g.
  /// fail→fail) does nothing, so forwarding state is never double-flipped.
  void fail_fabric_link(int leaf, int spine, int parallel,
                        sim::TimeNs detection_delay = 0);

  /// Restores a previously failed link pair (forwarding state is reinstated
  /// after `detection_delay`). Same last-call-wins epoch semantics as
  /// fail_fabric_link().
  void restore_fabric_link(int leaf, int spine, int parallel,
                           sim::TimeNs detection_delay = 0);

  /// One-way host-to-host latency across the spine for a single packet of
  /// `bytes` on an idle fabric (store-and-forward serialization at each of
  /// the 4 hops plus propagation). On a pod fabric this is the intra-pod
  /// path; inter-pod flows cross two more (core) hops.
  sim::TimeNs one_way_latency(std::uint32_t bytes) const;

  /// Base round-trip time host-to-host across the spine with empty queues
  /// (serialization of a `bytes` packet at each hop + propagation, plus the
  /// return of a `kAckBytes` ACK). Used for optimal-FCT normalization.
  sim::TimeNs base_rtt(std::uint32_t bytes) const;

 private:
  void build();
  /// Recomputes every leaf's per-destination reachability from the spines'
  /// current downlink state (runtime failures change it). On a pod fabric it
  /// first rebuilds the cores' per-leaf tables from the same state.
  void recompute_reachability();
  /// Points every core's table for each leaf at the leaf's pod spines that
  /// still have a live downlink to it, in the pod's spine order.
  void route_cores();
  int uplink_index(int leaf, Link* link) const;
  /// Flat index into down_live_ for (spine, leaf, parallel).
  std::size_t live_index(int spine, int leaf, int parallel) const {
    return (static_cast<std::size_t>(spine) *
                static_cast<std::size_t>(cfg_.num_leaves) +
            static_cast<std::size_t>(leaf)) *
               static_cast<std::size_t>(cfg_.links_per_spine) +
           static_cast<std::size_t>(parallel);
  }
  /// Registers the standard probe set with the attached sink.
  void register_probes();

  sim::Scheduler& sched_;
  TopologyConfig cfg_;
  sim::Rng rng_;
  std::vector<LeafId> directory_;
  // Per-switch shared buffer pools (empty when static buffering is used).
  std::vector<std::unique_ptr<SharedBufferPool>> leaf_pools_;
  std::vector<std::unique_ptr<SharedBufferPool>> spine_pools_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<LeafSwitch>> leaves_;
  std::vector<std::unique_ptr<SpineSwitch>> spines_;
  std::vector<std::unique_ptr<SpineSwitch>> cores_;  // empty on 2 tiers
  std::vector<std::unique_ptr<Link>> links_;  // owns every link
  std::vector<Link*> host_up_;
  std::vector<Link*> host_down_;
  std::vector<Link*> fabric_links_;
  // [spine][leaf][parallel] -> link or nullptr
  std::vector<std::vector<std::vector<Link*>>> down_links_;
  // [leaf][spine][parallel] -> link or nullptr
  std::vector<std::vector<std::vector<Link*>>> up_links_;
  // Flat [spine * cores + core] and [core * spines + spine] -> link or
  // nullptr (empty on 2 tiers).
  std::vector<Link*> spine_to_core_;
  std::vector<Link*> core_to_spine_;
  // Control-plane liveness of spine->leaf downlinks, flat-indexed by
  // live_index(): 1 iff the link exists and is not runtime-failed
  // (post-detection). Flipped by the fail/restore detection handlers, so
  // recompute_reachability() reads a flag instead of scanning a list of
  // failed triples for every (spine, leaf, parallel) combination.
  std::vector<std::uint8_t> down_live_;
  // Per-triple epoch counter, bumped by every fail/restore call. Detection
  // handlers capture the epoch of their call and no-op if a later call
  // superseded them, so overlapping fail/restore sequences (link flaps
  // faster than the detection window) resolve to the last call's state.
  std::vector<std::uint64_t> fault_epoch_;
  telemetry::TraceSink* tele_ = nullptr;
};

}  // namespace conga::net
