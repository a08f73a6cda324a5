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
#include <string>
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
  Link* down_link(int spine, int leaf, int parallel) {
    return spine_pair(leaf, spine, parallel).down;
  }
  /// The leaf -> spine link for (leaf, spine, parallel); nullptr if it was
  /// removed at build time or the two are in different pods. The fault
  /// injector drives per-link hooks (rate scale, gray failure, CE
  /// suppression) through this.
  Link* up_link(int leaf, int spine, int parallel) {
    return spine_pair(leaf, spine, parallel).up;
  }
  /// The spine -> core and core -> spine links; nullptr if failed at build.
  Link* spine_to_core(int spine, int core) { return core_pair(spine, core).up; }
  Link* core_to_spine(int core, int spine) {
    return core_pair(spine, core).down;
  }
  /// The host's access links.
  Link* host_to_leaf(HostId h) {
    return host_pairs_[static_cast<std::size_t>(h)].up;
  }
  Link* leaf_to_host(HostId h) {
    return host_pairs_[static_cast<std::size_t>(h)].down;
  }

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
                        sim::TimeNs detection_delay = 0) {
    set_link_state(leaf, spine, parallel, false, detection_delay);
  }

  /// Restores a previously failed link pair (forwarding state is reinstated
  /// after `detection_delay`). Same last-call-wins epoch semantics as
  /// fail_fabric_link().
  void restore_fabric_link(int leaf, int spine, int parallel,
                           sim::TimeNs detection_delay = 0) {
    set_link_state(leaf, spine, parallel, true, detection_delay);
  }

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
  /// One link each way between two tiers: `up` toward the upper tier
  /// (host->leaf, leaf->spine, spine->core), `down` back. Both are null for
  /// a pair that does not exist (failed at build time, or a leaf and a
  /// spine in different pods).
  struct LinkPair {
    Link* up = nullptr;
    Link* down = nullptr;
    /// The leaf's index of `up` in LeafSwitch::uplinks() (leaf-spine tier).
    int uplink = -1;
    /// Control-plane liveness: true iff the pair exists and is not
    /// runtime-failed (post-detection). Flipped by the detection handler of
    /// set_link_state(), so recompute_reachability() reads a flag instead
    /// of scanning a list of failed triples.
    bool live = false;
    /// Bumped by every fail/restore call. A detection handler captures the
    /// epoch of its call and no-ops if a later call superseded it, so
    /// overlapping fail/restore sequences (link flaps faster than the
    /// detection window) resolve to the last call's state.
    std::uint64_t epoch = 0;
  };

  void build();
  /// Builds one link into links_ (whose order is the telemetry interning
  /// order) and connects it to port `port` of `to`.
  Link* add_link(std::string name, const LinkConfig& cfg, Node* to, int port);
  /// The one fail (live = false) / restore (true) transition.
  void set_link_state(int leaf, int spine, int parallel, bool live,
                      sim::TimeNs detection_delay);
  /// Recomputes every leaf's per-destination reachability from the spines'
  /// current downlink state (runtime failures change it). On a pod fabric it
  /// first rebuilds the cores' per-leaf tables from the same state.
  void recompute_reachability();
  LinkPair& spine_pair(int leaf, int spine, int parallel) {
    return spine_pairs_[static_cast<std::size_t>(
        (leaf * cfg_.num_spines + spine) * cfg_.links_per_spine + parallel)];
  }
  LinkPair& core_pair(int spine, int core) {
    return core_pairs_[static_cast<std::size_t>(spine * cfg_.num_cores + core)];
  }
  /// True iff `spine` has a live downlink to `leaf`.
  bool spine_reaches(int spine, int leaf);
  /// Registers the standard probe set with the attached sink.
  void register_probes();

  sim::Scheduler& sched_;
  TopologyConfig cfg_;
  sim::Rng rng_;
  std::vector<LeafId> directory_;
  // Per-switch shared buffer pools (empty when static buffering is used).
  std::vector<std::unique_ptr<SharedBufferPool>> pools_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<LeafSwitch>> leaves_;
  std::vector<std::unique_ptr<SpineSwitch>> spines_;
  std::vector<std::unique_ptr<SpineSwitch>> cores_;  // empty on 2 tiers
  std::vector<std::unique_ptr<Link>> links_;  // owns every link
  std::vector<Link*> fabric_links_;
  // One table per tier: [host], [leaf][spine][parallel] and [spine][core]
  // (empty on 2 tiers).
  std::vector<LinkPair> host_pairs_;
  std::vector<LinkPair> spine_pairs_;
  std::vector<LinkPair> core_pairs_;
  telemetry::TraceSink* tele_ = nullptr;
};

}  // namespace conga::net
