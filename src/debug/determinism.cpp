#include "debug/determinism.hpp"

#include "stats/digest.hpp"
#include "telemetry/telemetry.hpp"

namespace conga::debug {

RunDigests run_digest_trial(const workload::ExperimentConfig& cfg,
                            bool telemetry) {
  stats::TraceDigest trace;
  std::uint64_t events = 0;

  // Small rings: the audit only needs the streaming digest (which covers
  // every event, retained or not), so don't hold event history per link.
  telemetry::TraceSinkConfig sink_cfg;
  sink_cfg.ring_capacity = 64;
  telemetry::TraceSink sink(sink_cfg);

  workload::ExperimentConfig run = cfg;
  run.fabric_hook = [&](net::Fabric& fabric) {
    fabric.scheduler().set_trace_hook(
        [&trace, &events](sim::TimeNs t, std::uint64_t seq) {
          trace.add(static_cast<std::uint64_t>(t));
          trace.add(seq);
          ++events;
        });
    if (telemetry) fabric.attach_telemetry(&sink);
    if (cfg.fabric_hook) cfg.fabric_hook(fabric);
  };
  const workload::ExperimentResult res = workload::run_fct_experiment(run);

  RunDigests r;
  r.fct = res.fct_digest;
  r.trace = trace.value();
  r.events = events;
  r.flows = res.flows;
  r.drained = res.drained;
  if (telemetry) r.telemetry = sink.digest();
  return r;
}

}  // namespace conga::debug
