#include "debug/determinism.hpp"

#include <utility>

namespace conga::debug {

std::function<void(net::Fabric&)> RunTap::wrap(
    std::function<void(net::Fabric&)> hook, bool telemetry) {
  return [this, hook = std::move(hook), telemetry](net::Fabric& fabric) {
    fabric.scheduler().set_trace_hook([this](sim::TimeNs t,
                                             std::uint64_t seq) {
      trace.add(static_cast<std::uint64_t>(t));
      trace.add(seq);
      ++events;
    });
    if (telemetry) fabric.attach_telemetry(&sink);
    if (hook) hook(fabric);
  };
}

RunDigests run_digest_trial(const workload::ExperimentConfig& cfg,
                            bool telemetry) {
  RunTap tap;
  workload::ExperimentConfig run = cfg;
  run.fabric_hook = tap.wrap(cfg.fabric_hook, telemetry);
  const workload::ExperimentResult res = workload::run_fct_experiment(run);

  RunDigests r;
  r.fct = res.fct_digest;
  r.trace = tap.trace.value();
  r.events = tap.events;
  r.flows = res.flows;
  r.drained = res.drained;
  if (telemetry) r.telemetry = tap.sink.digest();
  return r;
}

}  // namespace conga::debug
