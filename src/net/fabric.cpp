#include "net/fabric.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

#include "telemetry/probes.hpp"
#include "telemetry/telemetry.hpp"

namespace conga::net {

namespace {
/// The rate factor of the first override that `match` accepts: 1 when none
/// does, 0 for a link failed at build time.
template <class Override, class Match>
double rate_factor(const std::vector<Override>& overrides, Match match) {
  const auto it = std::find_if(overrides.begin(), overrides.end(), match);
  return it == overrides.end() ? 1.0 : it->rate_factor;
}

/// A link name from a printf format; every name fits in 48 bytes.
template <class... Args>
std::string link_name(const char* fmt, Args... args) {
  char buf[48];
  std::snprintf(buf, sizeof buf, fmt, args...);
  return buf;
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

  // Per-switch shared buffer pools (null when static buffering is used).
  auto new_pool = [&]() -> SharedBufferPool* {
    if (cfg_.shared_buffer_bytes == 0) return nullptr;
    pools_.push_back(std::make_unique<SharedBufferPool>(
        cfg_.shared_buffer_bytes, cfg_.shared_buffer_alpha));
    return pools_.back().get();
  };
  std::vector<SharedBufferPool*> leaf_pool;
  std::vector<SharedBufferPool*> spine_pool;

  // Per-component seeds are keyed streams (component class in the high byte,
  // index below), not sequential engine draws: adding or reordering
  // components never perturbs another component's stream.
  for (int l = 0; l < L; ++l) {
    leaves_.push_back(std::make_unique<LeafSwitch>(
        sched_, l, &directory_,
        rng_.stream_seed((1ULL << 56) | static_cast<std::uint64_t>(l))));
    leaf_pool.push_back(new_pool());
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
    spine_pool.push_back(new_pool());
  }
  for (int c = 0; c < C; ++c) {
    cores_.push_back(std::make_unique<SpineSwitch>(
        c, L, rng_.stream_seed((4ULL << 56) | static_cast<std::uint64_t>(c)),
        /*core=*/true));
  }

  // Hosts and access links. Every link queues in the buffer of the switch it
  // leaves; hosts and cores have none.
  LinkConfig edge;
  edge.rate_bps = cfg_.host_link_bps;
  edge.propagation_delay = cfg_.host_link_delay;
  edge.queue_capacity_bytes = cfg_.edge_queue_bytes;
  edge.ecn_threshold_bytes = cfg_.ecn_threshold_bytes;
  edge.marks_ce = false;
  edge.dre = cfg_.dre;
  LinkConfig nic = edge;
  nic.queue_capacity_bytes = cfg_.nic_queue_bytes;
  nic.ecn_threshold_bytes = 0;  // hosts don't CE-mark their own qdisc
  host_pairs_.resize(directory_.size());
  for (int h = 0; h < L * H; ++h) {
    const LeafId l = directory_[static_cast<std::size_t>(h)];
    LeafSwitch& leaf = *leaves_[static_cast<std::size_t>(l)];
    auto host = std::make_unique<Host>(h, l);
    LinkPair& pair = host_pairs_[static_cast<std::size_t>(h)];
    pair.up = add_link(link_name("host%d->leaf%d", h, l), nic, &leaf, h);
    host->attach_uplink(pair.up);
    LinkConfig down_cfg = edge;
    down_cfg.shared_pool = leaf_pool[static_cast<std::size_t>(l)];
    pair.down =
        add_link(link_name("leaf%d->host%d", l, h), down_cfg, host.get(), 0);
    leaf.add_host_port(h, pair.down);
    pair.live = true;
    hosts_.push_back(std::move(host));
  }

  // Leaf<->spine and spine<->core links share one config, scaled by their
  // override's rate factor.
  auto fabric_link = [&](double rate_factor, SharedBufferPool* egress) {
    LinkConfig fab;
    fab.rate_bps = cfg_.fabric_link_bps * rate_factor;
    fab.propagation_delay = cfg_.fabric_link_delay;
    fab.queue_capacity_bytes = cfg_.fabric_queue_bytes;
    fab.ecn_threshold_bytes = cfg_.ecn_threshold_bytes;
    fab.marks_ce = true;
    fab.ce_sum = cfg_.ce_sum;
    fab.dre = cfg_.dre;
    fab.shared_pool = egress;
    return fab;
  };

  // Fabric links: for each (leaf, spine, parallel) pair in a pod, one link
  // each way.
  spine_pairs_.resize(static_cast<std::size_t>(L * S * P));
  for (int l = 0; l < L; ++l) {
    LeafSwitch& leaf = *leaves_[static_cast<std::size_t>(l)];
    SharedBufferPool* leaf_buf = leaf_pool[static_cast<std::size_t>(l)];
    const int first_spine = cfg_.pod_of_leaf(l) * Sp;
    for (int s = first_spine; s < first_spine + Sp; ++s) {
      SpineSwitch& spine = *spines_[static_cast<std::size_t>(s)];
      SharedBufferPool* spine_buf = spine_pool[static_cast<std::size_t>(s)];
      for (int p = 0; p < P; ++p) {
        const double rate =
            rate_factor(cfg_.overrides, [&](const LinkOverride& o) {
              return o.leaf == l && o.spine == s && o.parallel == p;
            });
        if (rate == 0.0) continue;  // failed

        LinkPair& pair = spine_pair(l, s, p);
        pair.up = add_link(link_name("up:l%ds%dp%d", l, s, p),
                           fabric_link(rate, leaf_buf), &spine, l);
        pair.uplink = leaf.add_uplink(pair.up, s);
        pair.down = add_link(link_name("down:l%ds%dp%d", l, s, p),
                             fabric_link(rate, spine_buf), &leaf,
                             1000 + s * P + p);
        spine.add_downlink(l, pair.down);
        pair.live = true;
        fabric_links_.push_back(pair.up);
        fabric_links_.push_back(pair.down);
      }
    }
  }

  // Core links: every spine to every core, one link each way. The cores'
  // per-leaf tables are filled by recompute_reachability().
  core_pairs_.resize(static_cast<std::size_t>(S * C));
  for (int s = 0; s < S; ++s) {
    SpineSwitch& spine = *spines_[static_cast<std::size_t>(s)];
    SharedBufferPool* spine_buf = spine_pool[static_cast<std::size_t>(s)];
    for (int c = 0; c < C; ++c) {
      const double rate =
          rate_factor(cfg_.core_overrides, [&](const CoreLinkOverride& o) {
            return o.spine == s && o.core == c;
          });
      if (rate == 0.0) continue;  // failed

      LinkPair& pair = core_pair(s, c);
      pair.up = add_link(link_name("core-up:s%dc%d", s, c),
                         fabric_link(rate, spine_buf),
                         cores_[static_cast<std::size_t>(c)].get(), s);
      spine.add_core_uplink(pair.up);
      pair.down = add_link(link_name("core-down:s%dc%d", s, c),
                           fabric_link(rate, nullptr), &spine, 2000 + c);
      pair.live = true;
      fabric_links_.push_back(pair.up);
      fabric_links_.push_back(pair.down);
    }
  }

  recompute_reachability();
}

void Fabric::recompute_reachability() {
  // Routing reachability: an uplink to spine s is a valid next hop for
  // destination leaf d iff s currently has at least one live downlink to d.
  // Each leaf-spine pair caches its control-plane liveness, maintained by
  // the fail/restore detection handlers, so this is a flag read rather
  // than a scan over the failed-link list. On a pod fabric, a leaf in
  // another pod is reachable through spine s iff some core that s links to
  // has a route to it, in the core tables rebuilt first.
  const int L = cfg_.num_leaves;
  const int C = cfg_.num_cores;
  const int Sp = cfg_.spines_per_pod();
  // A core's table for leaf d: its links to the spines of d's pod that
  // still have a live downlink to d, in the pod's spine order.
  for (int d = 0; d < L && C > 0; ++d) {
    const int first_spine = cfg_.pod_of_leaf(d) * Sp;
    for (int c = 0; c < C; ++c) {
      SpineSwitch& core = *cores_[static_cast<std::size_t>(c)];
      core.clear_downlinks(d);
      for (int s = first_spine; s < first_spine + Sp; ++s) {
        Link* down = core_to_spine(c, s);
        if (down != nullptr && spine_reaches(s, d)) core.add_downlink(d, down);
      }
    }
  }
  auto via_core = [&](int s, int d) {
    if (cfg_.pod_of_leaf(d) == cfg_.pod_of_spine(s)) return false;
    for (int c = 0; c < C; ++c) {
      if (spine_to_core(s, c) != nullptr &&
          cores_[static_cast<std::size_t>(c)]->downlink_count(d) > 0) {
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
        reaches[u][static_cast<std::size_t>(d)] =
            spine_reaches(s, d) || (C > 0 && via_core(s, d));
      }
    }
    lf.set_uplink_reachability(std::move(reaches));
  }
}

bool Fabric::spine_reaches(int spine, int leaf) {
  for (int p = 0; p < cfg_.links_per_spine; ++p) {
    if (spine_pair(leaf, spine, p).live) return true;
  }
  return false;
}

Link* Fabric::add_link(std::string name, const LinkConfig& cfg, Node* to,
                       int port) {
  links_.push_back(std::make_unique<Link>(sched_, std::move(name), cfg));
  links_.back()->connect_to(to, port);
  return links_.back().get();
}

void Fabric::set_link_state(int leaf, int spine, int parallel, bool live,
                            sim::TimeNs detection_delay) {
  LinkPair& pair = spine_pair(leaf, spine, parallel);
  assert(pair.up != nullptr && "link absent at build time");
  // Dataplane changes immediately...
  pair.up->set_up(live);
  pair.down->set_up(live);
  // ...the control plane notices after the detection window. Only the most
  // recent fail/restore call for this triple gets to apply: a flap faster
  // than the detection window supersedes the earlier handler, and one whose
  // target state is already in place (a fail superseded before it applied,
  // then a restore) does nothing.
  const std::uint64_t epoch = ++pair.epoch;
  sched_.schedule_after(detection_delay, [this, p = &pair, leaf, spine, live,
                                          epoch] {
    if (p->epoch != epoch || p->live == live) return;
    p->live = live;
    leaves_[static_cast<std::size_t>(leaf)]->set_uplink_live(p->uplink,
                                                             live);
    // A restore appends the downlink to the spine's per-leaf list and a fail
    // removes it in place: the ECMP index after a flap depends on that.
    SpineSwitch& sp = *spines_[static_cast<std::size_t>(spine)];
    if (live) {
      sp.add_downlink(leaf, p->down);
    } else {
      sp.remove_downlink(leaf, p->down);
    }
    recompute_reachability();
    if (tele_ != nullptr) {
      const auto type = live ? telemetry::EventType::kLinkRestored
                             : telemetry::EventType::kLinkWithdrawn;
      for (const Link* link : {p->up, p->down}) {
        telemetry::emit(tele_, type, tele_->intern_component(link->name()),
                        sched_.now(), static_cast<std::uint64_t>(spine),
                        static_cast<std::uint64_t>(leaf));
      }
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
  auto degraded = [&](const Link* up, double rate) {
    if (up == nullptr || rate <= 0.0 || rate >= 1.0) return;
    telemetry::emit(sink, telemetry::EventType::kLinkDegraded,
                    sink->intern_component(up->name()), sched_.now(),
                    static_cast<std::uint64_t>(rate * 1000.0));
  };
  for (const LinkOverride& o : cfg_.overrides) {
    degraded(up_link(o.leaf, o.spine, o.parallel), o.rate_factor);
  }
  // A pair that an earlier override failed has no link to report.
  for (const CoreLinkOverride& o : cfg_.core_overrides) {
    degraded(spine_to_core(o.spine, o.core), o.rate_factor);
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
  using DropCount = std::uint64_t (*)(const Link&);
  const std::pair<const char*, DropCount> drop_causes[] = {
      {"fabric/drops_queue",
       [](const Link& l) { return l.queue().stats().dropped_pkts; }},
      {"fabric/drops_admin_down",
       [](const Link& l) { return l.drop_stats().admin_down_pkts; }},
      {"fabric/drops_gray",
       [](const Link& l) { return l.drop_stats().gray_pkts; }},
      {"fabric/drops_corrupt",
       [](const Link& l) { return l.drop_stats().corrupt_pkts; }},
  };
  const std::vector<Link*>* fab = &fabric_links_;
  for (const auto& [name, count] : drop_causes) {
    reg.add_counter(name, [fab, count] {
      std::uint64_t n = 0;
      for (const Link* l : *fab) n += count(*l);
      return n;
    });
  }
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
