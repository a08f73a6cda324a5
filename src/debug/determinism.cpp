#include "debug/determinism.hpp"

#include "fault/fault_injector.hpp"
#include "stats/digest.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/traffic_gen.hpp"

namespace conga::debug {

RunDigests run_digest_trial(const DigestScenario& s) {
  sim::Scheduler sched;
  stats::TraceDigest trace;
  sched.set_trace_hook([&trace](sim::TimeNs t, std::uint64_t seq) {
    trace.add(static_cast<std::uint64_t>(t));
    trace.add(seq);
  });

  net::Fabric fabric(sched, s.topo, s.fabric_seed);
  fabric.install_lb(s.lb);

  // Small rings: the audit only needs the streaming digest (which covers
  // every event, retained or not), so don't hold event history per link.
  telemetry::TraceSinkConfig sink_cfg;
  sink_cfg.ring_capacity = 64;
  telemetry::TraceSink sink(sink_cfg);
  if (s.telemetry != TelemetryMode::kOff) {
    if (s.telemetry == TelemetryMode::kMasked) sink.set_category_mask(0);
    fabric.attach_telemetry(&sink);
  }

  workload::TrafficGenConfig gc;
  gc.load = s.load;
  gc.stop = s.warmup + s.measure;
  gc.measure_start = s.warmup;
  gc.measure_stop = gc.stop;
  gc.seed = s.traffic_seed;

  tcp::FlowFactory transport =
      s.transport ? s.transport : tcp::make_tcp_flow_factory({});
  workload::TrafficGenerator gen(fabric, transport, s.dist, gc);
  gen.start();

  fault::FaultInjector injector(fabric, s.fault_seed);
  injector.arm(s.faults);

  RunDigests r;
  r.drained = workload::run_with_drain(sched, gen, gc.stop, s.max_drain);
  r.fct = stats::fct_digest(gen.collector());
  r.trace = trace.value();
  r.events = sched.events_dispatched();
  r.flows = gen.collector().count();
  if (s.telemetry != TelemetryMode::kOff) r.telemetry = sink.digest();
  return r;
}

}  // namespace conga::debug
