#include "workload/hdfs_gen.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace conga::workload {

namespace {
/// Port space of HDFS pipeline flows, disjoint from the other generators'.
constexpr std::uint16_t kBasePort = 40000;
}  // namespace

HdfsJob::HdfsJob(net::Fabric& fabric, tcp::FlowFactory factory,
                 const HdfsConfig& cfg)
    : fabric_(fabric),
      factory_(std::move(factory)),
      cfg_(cfg),
      rng_(cfg.seed) {
  assert(!cfg_.writers.empty());
  assert(cfg_.replicas >= 1);
  for (net::HostId w : cfg_.writers) {
    writers_.push_back(Writer{w, cfg_.bytes_per_writer, 0, {}});
  }
}

net::HostId HdfsJob::pick_replica(net::HostId exclude1, net::HostId exclude2) {
  const int n = fabric_.num_hosts();
  net::HostId h = exclude1;
  while (h == exclude1 || h == exclude2) {
    h = static_cast<net::HostId>(rng_.index(static_cast<std::size_t>(n)));
  }
  return h;
}

void HdfsJob::start() {
  fabric_.scheduler().schedule_after(0, [this] {
    for (std::size_t w = 0; w < writers_.size(); ++w) start_next_block(w);
  });
}

void HdfsJob::start_next_block(std::size_t w) {
  Writer& wr = writers_[w];
  if (wr.remaining == 0) {
    ++writers_done_;
    if (finished()) completion_time_ = fabric_.scheduler().now();
    return;
  }
  const std::uint64_t block = std::min(cfg_.block_bytes, wr.remaining);
  wr.remaining -= block;

  // Replication pipeline: writer -> r1 -> r2 -> ... (replicas-1 transfers;
  // the writer's own copy is local and free).
  std::vector<net::HostId> chain{wr.node};
  for (int r = 1; r < cfg_.replicas; ++r) {
    chain.push_back(pick_replica(chain[static_cast<std::size_t>(r) - 1],
                                 wr.node));
  }

  wr.stage_flows.clear();
  wr.stages_pending = cfg_.replicas - 1;
  if (wr.stages_pending == 0) {
    // Replication factor 1: purely local write, move on immediately.
    fabric_.scheduler().schedule_after(0, [this, w] { start_next_block(w); });
    return;
  }
  for (int s = 0; s + 1 < static_cast<int>(chain.size()); ++s) {
    const net::HostId src = chain[static_cast<std::size_t>(s)];
    const net::HostId dst = chain[static_cast<std::size_t>(s) + 1];
    net::FlowKey key;
    key.src_host = src;
    key.dst_host = dst;
    key.src_port = static_cast<std::uint16_t>(
        kBasePort + (flow_seq_ % 1024) * 16);
    key.dst_port = static_cast<std::uint16_t>(
        kBasePort + 1 + flow_seq_ / 1024);
    ++flow_seq_;
    wr.stage_flows.push_back(
        factory_(fabric_.scheduler(), fabric_.host(src), fabric_.host(dst),
                 key, block,
                 [this, w](tcp::FlowHandle&) { on_stage_complete(w); }));
  }
  for (auto& f : wr.stage_flows) f->start();
}

void HdfsJob::on_stage_complete(std::size_t w) {
  Writer& wr = writers_[w];
  if (--wr.stages_pending > 0) return;
  // Defer the next block so the finished stage flows are not destroyed
  // inside their own completion callbacks.
  fabric_.scheduler().schedule_after(0, [this, w] { start_next_block(w); });
}

}  // namespace conga::workload
