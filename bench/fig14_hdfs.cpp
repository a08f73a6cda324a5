// Figure 14: HDFS IO benchmark (TestDFSIO-style write job, 3-way
// replication) with and without the link failure, plus enterprise background
// traffic (the paper added it because the disks otherwise hid the network).
//
// Paper shape: (a) baseline — ECMP ~= CONGA, MPTCP has high-outlier trials;
// (b) with the failed link — ECMP job times nearly double, CONGA unchanged,
// MPTCP volatile.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "lb/factories.hpp"
#include "net/fabric.hpp"
#include "stats/summary.hpp"
#include "tcp/mptcp_connection.hpp"
#include "workload/hdfs_gen.hpp"
#include "workload/traffic_gen.hpp"

using namespace conga;

namespace {

double run_trial(const net::TopologyConfig& topo,
                 const net::Fabric::LbFactory& lb,
                 const tcp::FlowFactory& transport, std::uint64_t seed,
                 bool full) {
  sim::Scheduler sched;
  net::Fabric fabric(sched, topo, 7);
  fabric.install_lb(lb);

  tcp::TcpConfig t;
  t.min_rto = sim::milliseconds(10);

  // Background enterprise traffic at 40% load, running for the whole job
  // (the paper added background traffic because TestDFSIO alone was
  // disk-bound and did not stress the network).
  workload::TrafficGenConfig bg;
  bg.load = 0.4;
  bg.stop = sim::seconds(30.0);
  bg.seed = seed * 3 + 1;
  workload::TrafficGenerator background(
      fabric, tcp::make_tcp_flow_factory(t), workload::enterprise(), bg);
  background.start();

  workload::HdfsConfig h;
  // One writer per second host, 3-way replication: the replication
  // pipelines themselves load the spine.
  for (int w = 0; w < fabric.num_hosts(); w += 2) h.writers.push_back(w);
  h.bytes_per_writer = full ? 64'000'000 : 24'000'000;
  h.block_bytes = 8'000'000;
  h.replicas = 3;
  h.seed = seed;
  workload::HdfsJob job(fabric, transport, h);
  job.start();

  while (!job.finished() && sched.now() < sim::seconds(30.0)) {
    sched.run_until(sched.now() + sim::milliseconds(10));
  }
  return job.finished() ? sim::to_seconds(job.completion_time()) : -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = bench::read_flags(argc, argv).full;
  bench::print_header("Fig 14 — HDFS write benchmark (TestDFSIO model)", full);

  const int trials = full ? 10 : 3;

  tcp::TcpConfig t;
  t.min_rto = sim::milliseconds(10);
  tcp::MptcpConfig m;
  m.tcp = t;

  struct Scheme {
    const char* name;
    net::Fabric::LbFactory lb;
    tcp::FlowFactory transport;
  };
  const Scheme schemes[] = {
      {"ECMP", lb::ecmp(), tcp::make_tcp_flow_factory(t)},
      {"CONGA", core::conga(), tcp::make_tcp_flow_factory(t)},
      {"MPTCP", lb::ecmp(), tcp::make_mptcp_flow_factory(m)},
  };

  for (const bool failure : {false, true}) {
    net::TopologyConfig topo =
        failure ? net::testbed_link_failure() : net::testbed_baseline();
    if (!full) topo.hosts_per_leaf = 16;
    std::printf("\n===== %s =====\n",
                failure ? "(b) with link failure" : "(a) baseline topology");
    std::printf("%-8s", "trial");
    for (const Scheme& s : schemes) std::printf("%10s", s.name);
    std::printf("   (job completion, seconds)\n");

    std::vector<stats::Summary> sums(3);
    for (int trial = 0; trial < trials; ++trial) {
      std::printf("%-8d", trial);
      for (std::size_t s = 0; s < 3; ++s) {
        const double secs = run_trial(topo, schemes[s].lb,
                                      schemes[s].transport,
                                      100 + static_cast<unsigned>(trial), full);
        sums[s].add(secs);
        std::printf("%10.2f", secs);
      }
      std::printf("\n");
    }
    std::printf("%-8s", "mean");
    for (std::size_t s = 0; s < 3; ++s) std::printf("%10.2f", sums[s].mean());
    std::printf("\n%-8s", "max");
    for (std::size_t s = 0; s < 3; ++s) std::printf("%10.2f", sums[s].max());
    std::printf("\n");
  }
  std::printf("\npaper: failure ~doubles ECMP job times; CONGA unaffected; "
              "MPTCP volatile.\n");
  return 0;
}
