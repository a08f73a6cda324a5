#include "net/fabric.hpp"

#include <cassert>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "telemetry/probes.hpp"
#include "telemetry/telemetry.hpp"

namespace conga::net {

namespace {
/// Finds the override for a (leaf, spine, parallel) triple, if any.
const LinkOverride* find_override(const TopologyConfig& cfg, int leaf,
                                  int spine, int parallel) {
  for (const LinkOverride& o : cfg.overrides) {
    if (o.leaf == leaf && o.spine == spine && o.parallel == parallel) return &o;
  }
  return nullptr;
}

/// Finds the override for a (spine, core) pair, if any.
const CoreLinkOverride* find_core_override(const TopologyConfig& cfg,
                                           int spine, int core) {
  for (const CoreLinkOverride& o : cfg.core_overrides) {
    if (o.spine == spine && o.core == core) return &o;
  }
  return nullptr;
}
}  // namespace

Fabric::Fabric(sim::Scheduler& sched, const TopologyConfig& cfg,
               std::uint64_t seed)
    : sched_(sched), cfg_(cfg), rng_(seed) {
  if (const std::string err = cfg_.validate(); !err.empty()) {
    throw std::invalid_argument("TopologyConfig: " + err);
  }
  build();
}

void Fabric::build() {
  const int L = cfg_.num_leaves;
  const int S = cfg_.num_spines;
  const int H = cfg_.hosts_per_leaf;
  const int P = cfg_.links_per_spine;
  const int Sp = cfg_.spines_per_pod();
  const int C = cfg_.num_cores;

  directory_.resize(static_cast<std::size_t>(L) * H);
  for (int h = 0; h < L * H; ++h) {
    directory_[static_cast<std::size_t>(h)] = h / H;
  }

  // Per-component seeds are keyed streams (component class in the high byte,
  // index below), not sequential engine draws: adding or reordering
  // components never perturbs another component's stream.
  for (int l = 0; l < L; ++l) {
    leaves_.push_back(std::make_unique<LeafSwitch>(
        sched_, l, &directory_,
        rng_.stream_seed((1ULL << 56) | static_cast<std::uint64_t>(l))));
    if (cfg_.shared_buffer_bytes > 0) {
      leaf_pools_.push_back(std::make_unique<SharedBufferPool>(
          cfg_.shared_buffer_bytes, cfg_.shared_buffer_alpha));
    }
  }
  std::vector<int> leaf_to_pod;  // empty on 2 tiers
  if (C > 0) {
    for (int l = 0; l < L; ++l) leaf_to_pod.push_back(cfg_.pod_of_leaf(l));
  }
  for (int s = 0; s < S; ++s) {
    spines_.push_back(std::make_unique<SpineSwitch>(
        s, L, rng_.stream_seed((2ULL << 56) | static_cast<std::uint64_t>(s))));
    if (C > 0) {
      spines_.back()->set_pod_membership(leaf_to_pod, cfg_.pod_of_spine(s));
    }
    if (cfg_.shared_buffer_bytes > 0) {
      spine_pools_.push_back(std::make_unique<SharedBufferPool>(
          cfg_.shared_buffer_bytes, cfg_.shared_buffer_alpha));
    }
  }
  for (int c = 0; c < C; ++c) {
    cores_.push_back(std::make_unique<SpineSwitch>(
        c, L, rng_.stream_seed((4ULL << 56) | static_cast<std::uint64_t>(c)),
        /*core=*/true));
  }
  auto leaf_pool = [&](int l) -> SharedBufferPool* {
    return leaf_pools_.empty() ? nullptr
                               : leaf_pools_[static_cast<std::size_t>(l)].get();
  };
  auto spine_pool = [&](int s) -> SharedBufferPool* {
    return spine_pools_.empty()
               ? nullptr
               : spine_pools_[static_cast<std::size_t>(s)].get();
  };

  // Hosts and access links.
  LinkConfig edge;
  edge.rate_bps = cfg_.host_link_bps;
  edge.propagation_delay = cfg_.host_link_delay;
  edge.queue_capacity_bytes = cfg_.edge_queue_bytes;
  edge.ecn_threshold_bytes = cfg_.ecn_threshold_bytes;
  edge.marks_ce = false;
  edge.dre = cfg_.dre;
  for (int h = 0; h < L * H; ++h) {
    const LeafId l = directory_[static_cast<std::size_t>(h)];
    auto host = std::make_unique<Host>(h, l);

    LinkConfig nic = edge;
    nic.queue_capacity_bytes = cfg_.nic_queue_bytes;
    nic.ecn_threshold_bytes = 0;  // hosts don't CE-mark their own qdisc
    char up_name[48];
    std::snprintf(up_name, sizeof up_name, "host%d->leaf%d", h, l);
    auto up = std::make_unique<Link>(sched_, up_name, nic);
    up->connect_to(leaves_[static_cast<std::size_t>(l)].get(), h);
    host->attach_uplink(up.get());
    host_up_.push_back(up.get());

    LinkConfig down_cfg = edge;
    down_cfg.shared_pool = leaf_pool(l);  // a leaf egress port
    char down_name[48];
    std::snprintf(down_name, sizeof down_name, "leaf%d->host%d", l, h);
    auto down = std::make_unique<Link>(sched_, down_name, down_cfg);
    down->connect_to(host.get(), 0);
    leaves_[static_cast<std::size_t>(l)]->add_host_port(h, down.get());
    host_down_.push_back(down.get());

    hosts_.push_back(std::move(host));
    links_.push_back(std::move(up));
    links_.push_back(std::move(down));
  }

  // Leaf<->spine and spine<->core links share one config, scaled by their
  // override's rate factor.
  auto fabric_link = [&](double rate_factor) {
    LinkConfig fab;
    fab.rate_bps = cfg_.fabric_link_bps * rate_factor;
    fab.propagation_delay = cfg_.fabric_link_delay;
    fab.queue_capacity_bytes = cfg_.fabric_queue_bytes;
    fab.ecn_threshold_bytes = cfg_.ecn_threshold_bytes;
    fab.marks_ce = true;
    fab.ce_sum = cfg_.ce_sum;
    fab.dre = cfg_.dre;
    return fab;
  };

  // Fabric links: for each (leaf, spine, parallel) pair in a pod, one link
  // each way.
  down_live_.assign(static_cast<std::size_t>(S) * static_cast<std::size_t>(L) *
                        static_cast<std::size_t>(P),
                    0);
  fault_epoch_.assign(down_live_.size(), 0);
  down_links_.assign(static_cast<std::size_t>(S),
                     std::vector<std::vector<Link*>>(
                         static_cast<std::size_t>(L),
                         std::vector<Link*>(static_cast<std::size_t>(P),
                                            nullptr)));
  up_links_.assign(static_cast<std::size_t>(L),
                   std::vector<std::vector<Link*>>(
                       static_cast<std::size_t>(S),
                       std::vector<Link*>(static_cast<std::size_t>(P),
                                          nullptr)));
  for (int l = 0; l < L; ++l) {
    const int first_spine = cfg_.pod_of_leaf(l) * Sp;
    for (int s = first_spine; s < first_spine + Sp; ++s) {
      for (int p = 0; p < P; ++p) {
        const LinkOverride* o = find_override(cfg_, l, s, p);
        if (o != nullptr && o->rate_factor == 0.0) continue;  // failed

        LinkConfig fab = fabric_link(o != nullptr ? o->rate_factor : 1.0);
        char up_name[48];
        std::snprintf(up_name, sizeof up_name, "up:l%ds%dp%d", l, s, p);
        char down_name[48];
        std::snprintf(down_name, sizeof down_name, "down:l%ds%dp%d", l, s, p);
        LinkConfig up_cfg = fab;
        up_cfg.shared_pool = leaf_pool(l);  // leaf egress toward the spine
        auto up = std::make_unique<Link>(sched_, up_name, up_cfg);
        up->connect_to(spines_[static_cast<std::size_t>(s)].get(), l);
        leaves_[static_cast<std::size_t>(l)]->add_uplink(up.get(), s);
        up_links_[static_cast<std::size_t>(l)][static_cast<std::size_t>(s)]
                 [static_cast<std::size_t>(p)] = up.get();
        fabric_links_.push_back(up.get());

        fab.shared_pool = spine_pool(s);  // spine egress toward the leaf
        auto down = std::make_unique<Link>(sched_, down_name, fab);
        down->connect_to(leaves_[static_cast<std::size_t>(l)].get(),
                         1000 + s * P + p);
        spines_[static_cast<std::size_t>(s)]->add_downlink(l, down.get());
        down_links_[static_cast<std::size_t>(s)][static_cast<std::size_t>(l)]
                   [static_cast<std::size_t>(p)] = down.get();
        down_live_[live_index(s, l, p)] = 1;
        fabric_links_.push_back(down.get());

        links_.push_back(std::move(up));
        links_.push_back(std::move(down));
      }
    }
  }

  // Core links: every spine to every core, one link each way. The cores'
  // per-leaf tables are filled by route_cores().
  spine_to_core_.assign(
      static_cast<std::size_t>(S) * static_cast<std::size_t>(C), nullptr);
  core_to_spine_.assign(spine_to_core_.size(), nullptr);
  for (int s = 0; s < S; ++s) {
    for (int c = 0; c < C; ++c) {
      const CoreLinkOverride* o = find_core_override(cfg_, s, c);
      if (o != nullptr && o->rate_factor == 0.0) continue;  // failed

      const LinkConfig core_cfg =
          fabric_link(o != nullptr ? o->rate_factor : 1.0);
      char up_name[48];
      std::snprintf(up_name, sizeof up_name, "core-up:s%dc%d", s, c);
      char down_name[48];
      std::snprintf(down_name, sizeof down_name, "core-down:s%dc%d", s, c);
      LinkConfig up_cfg = core_cfg;
      up_cfg.shared_pool = spine_pool(s);  // spine egress toward the core
      auto up = std::make_unique<Link>(sched_, up_name, up_cfg);
      up->connect_to(cores_[static_cast<std::size_t>(c)].get(), s);
      spines_[static_cast<std::size_t>(s)]->add_core_uplink(up.get());
      spine_to_core_[static_cast<std::size_t>(s * C + c)] = up.get();
      fabric_links_.push_back(up.get());

      auto down = std::make_unique<Link>(sched_, down_name, core_cfg);
      down->connect_to(spines_[static_cast<std::size_t>(s)].get(), 2000 + c);
      core_to_spine_[static_cast<std::size_t>(c * S + s)] = down.get();
      fabric_links_.push_back(down.get());

      links_.push_back(std::move(up));
      links_.push_back(std::move(down));
    }
  }

  recompute_reachability();
}

void Fabric::route_cores() {
  const int L = cfg_.num_leaves;
  const int S = cfg_.num_spines;
  const int Sp = cfg_.spines_per_pod();
  const int P = cfg_.links_per_spine;
  for (int d = 0; d < L; ++d) {
    const int first_spine = cfg_.pod_of_leaf(d) * Sp;
    for (std::size_t c = 0; c < cores_.size(); ++c) {
      SpineSwitch& core = *cores_[c];
      core.clear_downlinks(d);
      for (int s = first_spine; s < first_spine + Sp; ++s) {
        Link* down = core_to_spine_[c * static_cast<std::size_t>(S) +
                                    static_cast<std::size_t>(s)];
        if (down == nullptr) continue;
        for (int p = 0; p < P; ++p) {
          if (down_live_[live_index(s, d, p)] != 0) {
            core.add_downlink(d, down);
            break;
          }
        }
      }
    }
  }
}

void Fabric::recompute_reachability() {
  // Routing reachability: an uplink to spine s is a valid next hop for
  // destination leaf d iff s currently has at least one live downlink to d.
  // down_live_ caches control-plane liveness per (spine, leaf, parallel),
  // maintained by the fail/restore detection handlers, so this is a flat
  // flag read rather than a scan over the failed-link list. On a pod
  // fabric, a leaf in another pod is reachable through spine s iff some
  // core that s links to has a route to it (the tables route_cores()
  // rebuilds first).
  const int L = cfg_.num_leaves;
  const int P = cfg_.links_per_spine;
  const std::size_t C = cores_.size();
  if (C > 0) route_cores();
  auto via_core = [&](int s, int d) {
    if (cfg_.pod_of_leaf(d) == cfg_.pod_of_spine(s)) return false;
    for (std::size_t c = 0; c < C; ++c) {
      if (spine_to_core_[static_cast<std::size_t>(s) * C + c] != nullptr &&
          cores_[c]->downlink_count(d) > 0) {
        return true;
      }
    }
    return false;
  };
  for (int l = 0; l < L; ++l) {
    LeafSwitch& lf = *leaves_[static_cast<std::size_t>(l)];
    std::vector<std::vector<bool>> reaches(
        lf.uplinks().size(),
        std::vector<bool>(static_cast<std::size_t>(L), false));
    for (std::size_t u = 0; u < lf.uplinks().size(); ++u) {
      const int s = lf.uplinks()[u].spine;
      for (int d = 0; d < L; ++d) {
        bool ok = false;
        for (int p = 0; p < P && !ok; ++p) {
          ok = down_live_[live_index(s, d, p)] != 0;
        }
        reaches[u][static_cast<std::size_t>(d)] =
            ok || (C > 0 && via_core(s, d));
      }
    }
    lf.set_uplink_reachability(std::move(reaches));
  }
}

int Fabric::uplink_index(int leaf, Link* link) const {
  const auto& ups = leaves_[static_cast<std::size_t>(leaf)]->uplinks();
  for (std::size_t i = 0; i < ups.size(); ++i) {
    if (ups[i].link == link) return static_cast<int>(i);
  }
  return -1;
}

Link* Fabric::up_link(int leaf, int spine, int parallel) {
  return up_links_[static_cast<std::size_t>(leaf)]
                  [static_cast<std::size_t>(spine)]
                  [static_cast<std::size_t>(parallel)];
}

void Fabric::fail_fabric_link(int leaf, int spine, int parallel,
                              sim::TimeNs detection_delay) {
  Link* up = up_link(leaf, spine, parallel);
  Link* down = down_link(spine, leaf, parallel);
  assert(up != nullptr && down != nullptr && "link absent at build time");
  // Dataplane dies immediately...
  up->set_up(false);
  down->set_up(false);
  // ...the control plane notices after the detection window. Only the most
  // recent fail/restore call for this triple gets to apply: a flap faster
  // than the detection window supersedes the earlier handler.
  const std::uint64_t epoch = ++fault_epoch_[live_index(spine, leaf, parallel)];
  sched_.schedule_after(detection_delay, [this, leaf, spine, parallel, up,
                                          down, epoch] {
    const std::size_t idx = live_index(spine, leaf, parallel);
    if (fault_epoch_[idx] != epoch) return;  // superseded by a later call
    if (down_live_[idx] == 0) return;        // already withdrawn
    down_live_[idx] = 0;
    leaves_[static_cast<std::size_t>(leaf)]->set_uplink_live(
        uplink_index(leaf, up), false);
    spines_[static_cast<std::size_t>(spine)]->remove_downlink(leaf, down);
    recompute_reachability();
    if (tele_ != nullptr) {
      const sim::TimeNs now = sched_.now();
      telemetry::emit(tele_, telemetry::EventType::kLinkWithdrawn,
                      tele_->intern_component(up->name()), now,
                      static_cast<std::uint64_t>(spine),
                      static_cast<std::uint64_t>(leaf));
      telemetry::emit(tele_, telemetry::EventType::kLinkWithdrawn,
                      tele_->intern_component(down->name()), now,
                      static_cast<std::uint64_t>(spine),
                      static_cast<std::uint64_t>(leaf));
    }
  });
}

void Fabric::restore_fabric_link(int leaf, int spine, int parallel,
                                 sim::TimeNs detection_delay) {
  Link* up = up_link(leaf, spine, parallel);
  Link* down = down_link(spine, leaf, parallel);
  assert(up != nullptr && down != nullptr);
  up->set_up(true);
  down->set_up(true);
  const std::uint64_t epoch = ++fault_epoch_[live_index(spine, leaf, parallel)];
  sched_.schedule_after(detection_delay, [this, leaf, spine, parallel, up,
                                          down, epoch] {
    const std::size_t idx = live_index(spine, leaf, parallel);
    if (fault_epoch_[idx] != epoch) return;  // superseded by a later call
    if (down_live_[idx] != 0) return;        // already live (fail was
                                             // superseded before applying)
    down_live_[idx] = 1;
    leaves_[static_cast<std::size_t>(leaf)]->set_uplink_live(
        uplink_index(leaf, up), true);
    spines_[static_cast<std::size_t>(spine)]->add_downlink(leaf, down);
    recompute_reachability();
    if (tele_ != nullptr) {
      const sim::TimeNs now = sched_.now();
      telemetry::emit(tele_, telemetry::EventType::kLinkRestored,
                      tele_->intern_component(up->name()), now,
                      static_cast<std::uint64_t>(spine),
                      static_cast<std::uint64_t>(leaf));
      telemetry::emit(tele_, telemetry::EventType::kLinkRestored,
                      tele_->intern_component(down->name()), now,
                      static_cast<std::uint64_t>(spine),
                      static_cast<std::uint64_t>(leaf));
    }
  });
}

void Fabric::install_lb(const LbFactory& factory) {
  for (auto& leaf : leaves_) {
    leaf->set_load_balancer(factory(
        *leaf, cfg_,
        rng_.stream_seed((3ULL << 56) |
                         static_cast<std::uint64_t>(leaf->id()))));
    if (tele_ != nullptr) leaf->load_balancer()->attach_telemetry(tele_);
  }
}

void Fabric::install_spine_lb(const SpineLbFactory& factory) {
  for (auto& spine : spines_) {
    // Class 6 in the keyed-stream namespace (1 leaves, 2 spines, 3 LBs,
    // 4 cores; the fault injector keys 4 flap and 5 gray off its own
    // seed). stream_seed() is a pure derivation, so installing never
    // advances rng_ and cannot perturb other streams.
    spine->set_balancer(
        factory ? factory(cfg_, rng_.stream_seed(
                                    (6ULL << 56) |
                                    static_cast<std::uint64_t>(spine->id())))
                : nullptr);
  }
}

void Fabric::attach_telemetry(telemetry::TraceSink* sink) {
  tele_ = sink;
  // TCP senders and other Scheduler& holders reach the sink ambiently.
  sched_.set_telemetry(sink);
  for (auto& link : links_) link->attach_telemetry(sink);
  for (auto& leaf : leaves_) {
    if (leaf->load_balancer() != nullptr) {
      leaf->load_balancer()->attach_telemetry(sink);
    }
  }
  if (sink == nullptr) return;
  // Build-time degradations are part of the fabric's history too: record
  // them once at attach so a trace is self-describing.
  for (const LinkOverride& o : cfg_.overrides) {
    if (o.rate_factor <= 0.0 || o.rate_factor >= 1.0) continue;
    Link* up = up_link(o.leaf, o.spine, o.parallel);
    if (up == nullptr) continue;
    telemetry::emit(sink, telemetry::EventType::kLinkDegraded,
                    sink->intern_component(up->name()), sched_.now(),
                    static_cast<std::uint64_t>(o.rate_factor * 1000.0));
  }
  for (const CoreLinkOverride& o : cfg_.core_overrides) {
    if (o.rate_factor <= 0.0 || o.rate_factor >= 1.0) continue;
    const Link* up = spine_to_core(o.spine, o.core);
    if (up == nullptr) continue;  // an earlier override failed the pair
    telemetry::emit(sink, telemetry::EventType::kLinkDegraded,
                    sink->intern_component(up->name()), sched_.now(),
                    static_cast<std::uint64_t>(o.rate_factor * 1000.0));
  }
  register_probes();
}

void Fabric::register_probes() {
  telemetry::ProbeRegistry& reg = tele_->probes();
  for (Link* link : fabric_links_) {
    reg.add_gauge(link->name() + "/queue_bytes", [link] {
      return static_cast<double>(link->queue().bytes());
    });
    reg.add_counter(link->name() + "/tx_bytes",
                    [link] { return link->bytes_sent(); });
  }
  for (auto& leaf_ptr : leaves_) {
    LeafSwitch* leaf = leaf_ptr.get();
    reg.add_counter(leaf->name() + "/pkts_to_fabric",
                    [leaf] { return leaf->packets_to_fabric(); });
    reg.add_counter(leaf->name() + "/pkts_from_fabric",
                    [leaf] { return leaf->packets_from_fabric(); });
    // Delivered host bytes per leaf: the hand-rolled per-host accumulation
    // loops the benches used to carry, as one probe.
    std::vector<Host*> members;
    for (auto& host : hosts_) {
      if (host->leaf() == leaf->id()) members.push_back(host.get());
    }
    reg.add_counter(leaf->name() + "/rx_host_bytes", [members] {
      std::uint64_t total = 0;
      for (const Host* h : members) total += h->bytes_received();
      return total;
    });
  }
  // Fabric-wide drop accounting, split by cause. Queue overflow is counted
  // by the queues; the other causes by the links' fault hooks.
  const std::vector<Link*>* fab = &fabric_links_;
  reg.add_counter("fabric/drops_queue", [fab] {
    std::uint64_t n = 0;
    for (const Link* l : *fab) n += l->queue().stats().dropped_pkts;
    return n;
  });
  reg.add_counter("fabric/drops_admin_down", [fab] {
    std::uint64_t n = 0;
    for (const Link* l : *fab) n += l->drop_stats().admin_down_pkts;
    return n;
  });
  reg.add_counter("fabric/drops_gray", [fab] {
    std::uint64_t n = 0;
    for (const Link* l : *fab) n += l->drop_stats().gray_pkts;
    return n;
  });
  reg.add_counter("fabric/drops_corrupt", [fab] {
    std::uint64_t n = 0;
    for (const Link* l : *fab) n += l->drop_stats().corrupt_pkts;
    return n;
  });
  // No-route drops at the switches (all candidate ports withdrawn): the one
  // drop cause that lives above the links.
  reg.add_counter("fabric/drops_no_route", [this] {
    std::uint64_t n = 0;
    for (const auto& l : leaves_) n += l->dropped_no_route();
    for (const auto& s : spines_) n += s->dropped_no_route();
    for (const auto& c : cores_) n += c->dropped_no_route();
    return n;
  });
  sim::Scheduler* sched = &sched_;
  reg.add_counter("sched/events_dispatched",
                  [sched] { return sched->events_dispatched(); });
  reg.add_gauge("sched/pending",
                [sched] { return static_cast<double>(sched->pending()); });
}

Link* Fabric::down_link(int spine, int leaf, int parallel) {
  return down_links_[static_cast<std::size_t>(spine)]
                    [static_cast<std::size_t>(leaf)]
                    [static_cast<std::size_t>(parallel)];
}

sim::TimeNs Fabric::one_way_latency(std::uint32_t bytes) const {
  // host->leaf, leaf->spine, spine->leaf, leaf->host.
  auto ser = [](double rate_bps, std::uint32_t b) {
    return static_cast<sim::TimeNs>(static_cast<double>(b) * 8.0 / rate_bps *
                                    1e9);
  };
  return ser(cfg_.host_link_bps, bytes) + cfg_.host_link_delay +
         2 * (ser(cfg_.fabric_link_bps, bytes + kOverlayHeaderBytes) +
              cfg_.fabric_link_delay) +
         ser(cfg_.host_link_bps, bytes) + cfg_.host_link_delay;
}

sim::TimeNs Fabric::base_rtt(std::uint32_t bytes) const {
  // Data one way, a pure ACK back.
  return one_way_latency(bytes) + one_way_latency(kAckBytes);
}

}  // namespace conga::net
