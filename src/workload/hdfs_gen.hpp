// HDFS write-workload model (paper §5.4, Fig 14 — the TestDFSIO benchmark).
//
// Each writer streams a file into "HDFS" as a sequence of blocks; every
// block is replicated over a pipeline of `replicas` hosts chosen uniformly
// at random (first replica may be remote, as for a MapReduce task writing to
// a non-local DataNode). The pipeline is modelled as concurrent transfers
// writer->r1 and r1->r2 (cut-through at the replica, matching HDFS's
// packet-granularity pipelining); the block completes when every stage
// completes, and the writer then starts its next block.
//
// The job-completion time — Fig 14's metric — is when the last writer
// finishes. Disk is deliberately not modelled (the paper found TestDFSIO
// disk-bound and compensated with background traffic; our interest is the
// network component, and the fig14 bench adds the same enterprise background
// traffic).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/fabric.hpp"
#include "sim/random.hpp"
#include "tcp/flow.hpp"

namespace conga::workload {

struct HdfsConfig {
  std::vector<net::HostId> writers;
  std::uint64_t bytes_per_writer = 64 * 1024 * 1024;
  std::uint64_t block_bytes = 8 * 1024 * 1024;
  int replicas = 3;  ///< 3-way replication: writer + 2 pipeline copies
  std::uint64_t seed = 11;
};

class HdfsJob {
 public:
  HdfsJob(net::Fabric& fabric, tcp::FlowFactory factory,
          const HdfsConfig& cfg);

  void start();

  bool finished() const { return writers_done_ == writers_.size(); }
  sim::TimeNs completion_time() const { return completion_time_; }

 private:
  struct Writer {
    net::HostId node;
    std::uint64_t remaining = 0;
    int stages_pending = 0;
    std::vector<std::unique_ptr<tcp::FlowHandle>> stage_flows;
  };

  void start_next_block(std::size_t w);
  void on_stage_complete(std::size_t w);
  net::HostId pick_replica(net::HostId exclude1, net::HostId exclude2);

  net::Fabric& fabric_;
  tcp::FlowFactory factory_;
  HdfsConfig cfg_;
  sim::Rng rng_;
  std::vector<Writer> writers_;
  std::size_t writers_done_ = 0;
  std::uint64_t flow_seq_ = 0;
  sim::TimeNs completion_time_ = -1;
};

}  // namespace conga::workload
