#include "tcp/flow.hpp"

#include <utility>

namespace conga::tcp {

TcpFlow::TcpFlow(sim::Scheduler& sched, net::Host& src, net::Host& dst,
                 const net::FlowKey& key, std::uint64_t size,
                 const TcpConfig& cfg, FlowCompleteFn on_complete)
    : FlowHandle(size, sched.now()),
      sched_(sched),
      source_(size),
      sender_(sched, src, key, source_, cfg),
      sink_(dst, key,
            [this](std::uint64_t /*delta*/) {
              if (!complete() && sink_.delivered() >= this->size()) {
                mark_complete(sched_.now());
                if (on_complete_) on_complete_(*this);
              }
            }),
      on_complete_(std::move(on_complete)) {}

void TcpFlow::start() {
  sink_.start();
  sender_.start();
  if (size() == 0 && !complete()) {
    // Degenerate zero-byte flow: complete instantly.
    mark_complete(sched_.now());
    if (on_complete_) on_complete_(*this);
  }
}

FlowFactory make_tcp_flow_factory(const TcpConfig& cfg) {
  return [cfg](sim::Scheduler& sched, net::Host& src, net::Host& dst,
               const net::FlowKey& key, std::uint64_t size,
               FlowCompleteFn on_complete) -> std::unique_ptr<FlowHandle> {
    return std::make_unique<TcpFlow>(sched, src, dst, key, size, cfg,
                                     std::move(on_complete));
  };
}

}  // namespace conga::tcp
