// Telemetry core: typed event tracing with per-component ring buffers.
//
// Every layer of the simulator (queues, links, DRE, flowlet table, CONGA
// tables, TCP, flows) can publish typed, timestamped events to a TraceSink.
// Recording is double-gated:
//  * compile time — the CONGA_TELEMETRY CMake option (default ON) compiles
//    the emit() helper down to nothing when OFF, so the hot paths carry zero
//    instructions;
//  * run time — a per-category enable mask, so a build with telemetry
//    compiled in still skips disabled categories with one load+test.
//
// Determinism: a TraceSink is strictly passive. It never schedules events,
// never touches simulation state, and assigns its own monotone sequence
// numbers, so attaching one cannot perturb the packet schedule — the FCT and
// event-trace digests of an instrumented run are bit-identical to an
// uninstrumented one. The sink maintains a streaming order-sensitive digest
// over *all* recorded events (including ones later overwritten in a ring),
// which the determinism auditor compares across runs and --jobs counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/sync.hpp"
#include "core/thread_annotations.hpp"
#include "sim/time.hpp"
#include "stats/digest.hpp"

namespace conga::telemetry {

class ProbeRegistry;

/// Event categories, used as bits in the runtime enable mask.
enum class Category : std::uint8_t {
  kQueue = 0,   ///< enqueue / dequeue / drop / ECN mark
  kLink,        ///< up / down / withdraw / restore / degrade
  kDre,         ///< DRE register updates
  kFlowlet,     ///< flowlet create / expire / path change
  kCongaTable,  ///< congestion-to-leaf / from-leaf table updates
  kTcp,         ///< cwnd discontinuities, RTO, retransmits
  kFlow,        ///< flow start / finish / stall reports
  kProbe,       ///< periodic counter / gauge samples
  kFault,       ///< injected fault transitions (src/fault/)
  kCampaign,    ///< retired, nothing emits it; kept: the enum is append-only
  kSupervisor,  ///< retired, nothing emits it; kept: the enum is append-only
  kCount,
};

constexpr std::uint32_t category_bit(Category c) {
  return 1U << static_cast<unsigned>(c);
}
constexpr std::uint32_t kAllCategories =
    (1U << static_cast<unsigned>(Category::kCount)) - 1;

enum class EventType : std::uint8_t {
  // kQueue — a: packet bytes, b: queue bytes after the operation.
  kQueueEnqueue = 0,
  kQueueDequeue,
  kQueueDrop,
  kQueueEcnMark,
  // kLink — dataplane (a: 1 = up after the change) and control plane
  // (withdraw/restore, a: spine, b: leaf). Degrade: a: permille of full rate.
  kLinkUp,
  kLinkDown,
  kLinkWithdrawn,
  kLinkRestored,
  kLinkDegraded,
  // kDre — a: bytes added, b: register value (double bit pattern).
  kDreUpdate,
  // kFlowlet — a: flow hash, b: port (create/path-change: new port).
  kFlowletCreate,
  kFlowletExpire,
  kFlowletPathChange,
  // kCongaTable — a: (leaf << 8) | lbtag, b: metric.
  kCongaToLeafUpdate,
  kCongaFromLeafUpdate,
  // kTcp — a: flow hash, b: cwnd in packets / retransmit count.
  kTcpCwnd,
  kTcpRto,
  kTcpRetransmit,
  // kFlow — a: flow hash, b: flow size / bytes delivered.
  kFlowStart,
  kFlowFinish,
  // kProbe — counter: a value, b delta; gauge: a value (double bit pattern).
  kCounterSample,
  kGaugeSample,
  // Cause-tagged link drops (kLink) — a: packet bytes, b: cause detail
  // (gray: drop probability in ppm; others 0). Queue-overflow drops keep
  // their own kQueueDrop kind, so every drop in a trace names its cause.
  kLinkDropAdminDown,  ///< handed to an administratively-down link
  kLinkDropGray,       ///< injected gray-failure Bernoulli loss
  kLinkDropCorrupt,    ///< transmitted but corrupted on the wire
  // kFault — injected fault transitions, emitted by the FaultInjector.
  // a: 1 = fault asserted / link down, 0 = cleared / link up. b: spec detail
  // (flap: (leaf<<16)|(spine<<8)|parallel; degrade: rate permille;
  // gray: drop ppm in high 32 bits | corrupt ppm low; reboot:
  // (kind<<16)|index; stale feedback: (leaf<<16)|(spine<<8)|parallel).
  kFaultLinkFlap,
  kFaultDegrade,
  kFaultGray,
  kFaultSwitchReboot,
  kFaultStaleFeedback,
  // kFlow — watchdog stall report. a: flow tag, b: bytes delivered so far.
  kFlowStalled,
  // Probe plane (kProbe; src/probe/) — sent: a destination leaf, b uplink;
  // received (request arriving at its target leaf): a origin leaf, b the max
  // path utilization the overlay accumulated; table update (reply back at
  // the origin): a (destination leaf << 8) | uplink, b utilization.
  kProbeSent,
  kProbeReceived,
  kProbeTableUpdate,
  // kFlowlet — Presto flowcell boundary: a flow hash, b the next port.
  kFlowcellRotate,
  // kCampaign — retired with the campaign runner's cache-decision trace;
  // nothing emits these. Kept because EventType is append-only (conga_lint
  // telemetry-enum-drift).
  kCampaignCellHit,
  kCampaignCellMiss,
  kCampaignStoreWrite,
  kCampaignVerifyRecompute,
  // kSupervisor — retired with the campaign supervisor; nothing emits these.
  // Kept for the same reason.
  kSupervisorSpawn,
  kSupervisorExit,
  kSupervisorTimeout,
  kSupervisorRetry,
  kSupervisorQuarantine,
  kTypeCount,
};

constexpr Category category_of(EventType t) {
  switch (t) {
    case EventType::kQueueEnqueue:
    case EventType::kQueueDequeue:
    case EventType::kQueueDrop:
    case EventType::kQueueEcnMark:
      return Category::kQueue;
    case EventType::kLinkUp:
    case EventType::kLinkDown:
    case EventType::kLinkWithdrawn:
    case EventType::kLinkRestored:
    case EventType::kLinkDegraded:
    case EventType::kLinkDropAdminDown:
    case EventType::kLinkDropGray:
    case EventType::kLinkDropCorrupt:
      return Category::kLink;
    case EventType::kDreUpdate:
      return Category::kDre;
    case EventType::kFlowletCreate:
    case EventType::kFlowletExpire:
    case EventType::kFlowletPathChange:
    case EventType::kFlowcellRotate:
      return Category::kFlowlet;
    case EventType::kCongaToLeafUpdate:
    case EventType::kCongaFromLeafUpdate:
      return Category::kCongaTable;
    case EventType::kTcpCwnd:
    case EventType::kTcpRto:
    case EventType::kTcpRetransmit:
      return Category::kTcp;
    case EventType::kFlowStart:
    case EventType::kFlowFinish:
    case EventType::kFlowStalled:
      return Category::kFlow;
    case EventType::kFaultLinkFlap:
    case EventType::kFaultDegrade:
    case EventType::kFaultGray:
    case EventType::kFaultSwitchReboot:
    case EventType::kFaultStaleFeedback:
      return Category::kFault;
    case EventType::kCampaignCellHit:
    case EventType::kCampaignCellMiss:
    case EventType::kCampaignStoreWrite:
    case EventType::kCampaignVerifyRecompute:
      return Category::kCampaign;
    case EventType::kSupervisorSpawn:
    case EventType::kSupervisorExit:
    case EventType::kSupervisorTimeout:
    case EventType::kSupervisorRetry:
    case EventType::kSupervisorQuarantine:
      return Category::kSupervisor;
    default:
      return Category::kProbe;
  }
}

/// Stable wire names, used by the exporter and the conga_trace CLI.
const char* event_type_name(EventType t);
const char* category_name(Category c);
/// Inverse lookups for CLI filters; return false on unknown names.
bool parse_event_type(std::string_view name, EventType& out);
bool parse_category(std::string_view name, Category& out);

/// Identifies a registered component (a link, a flowlet table, ...) within
/// one TraceSink. Dense, assigned in registration order.
using ComponentId = std::uint32_t;
constexpr ComponentId kInvalidComponent = 0xffffffffU;

/// One recorded event. 32 bytes; `a` and `b` are type-dependent payloads
/// (see EventType comments). `seq` is the sink's own monotone counter, so a
/// global ordering of events can be recovered from the per-component rings.
struct Event {
  sim::TimeNs t = 0;
  std::uint64_t seq = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  ComponentId comp = kInvalidComponent;
  EventType type = EventType::kTypeCount;
};

struct TraceSinkConfig {
  /// Per-component ring capacity in events; the ring overwrites its oldest
  /// entries once full (the digest still covers every event ever recorded).
  std::size_t ring_capacity = 8192;
  std::uint32_t category_mask = kAllCategories;
};

class TraceSink {
 public:
  explicit TraceSink(TraceSinkConfig cfg = {});
  ~TraceSink();
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Returns the id for `name`, registering it on first use. Registration
  /// order is deterministic because the simulator is single-threaded.
  ComponentId intern_component(std::string_view name);
  /// Lookup without registering; kInvalidComponent if absent.
  ComponentId find_component(std::string_view name) const;
  std::size_t component_count() const {
    thread_.check();
    return components_.size();
  }
  const std::string& component_name(ComponentId id) const {
    thread_.check();
    return components_[id].name;
  }

  bool enabled(Category c) const {
    return (category_mask_ & category_bit(c)) != 0;
  }
  void set_category_mask(std::uint32_t mask) { category_mask_ = mask; }
  std::uint32_t category_mask() const { return category_mask_; }

  /// Records unconditionally — callers are expected to have checked
  /// enabled() (emit() below does). Never schedules or mutates sim state.
  void record(EventType type, ComponentId comp, sim::TimeNs t,
              std::uint64_t a = 0, std::uint64_t b = 0);

  /// Events still held in `comp`'s ring, oldest first.
  std::vector<Event> events(ComponentId comp) const;
  /// Events of every component merged into global (seq) order.
  std::vector<Event> all_events() const;

  /// Total events recorded / overwritten-by-ring-wrap, across components.
  std::uint64_t total_recorded() const {
    thread_.check();
    return total_recorded_;
  }
  std::uint64_t total_overwritten() const {
    thread_.check();
    return total_overwritten_;
  }
  std::uint64_t recorded(ComponentId comp) const {
    thread_.check();
    return components_[comp].recorded;
  }

  /// Streaming order-sensitive digest over every event ever recorded plus
  /// the component name table. Byte-identical across runs iff the
  /// instrumented run is deterministic.
  std::uint64_t digest() const;

  ProbeRegistry& probes() { return *probes_; }
  const ProbeRegistry& probes() const { return *probes_; }

  const TraceSinkConfig& config() const { return cfg_; }

 private:
  struct Component {
    std::string name;
    std::vector<Event> ring;   ///< circular once `recorded` > capacity
    std::uint64_t recorded = 0;
  };

  // The recording state is thread-confined, not locked: each simulation
  // (parallel-runner cells included) owns its sink on one thread. The
  // ThreadChecker makes that confinement a checkable capability — every
  // method touching the rings asserts it, -Wthread-safety rejects accesses
  // that skip the assert, and invariant builds verify the thread at runtime.
  // cfg_ / category_mask_ are configuration, set before the run; they stay
  // outside the guard so emit()'s mask test stays a bare load.
  TraceSinkConfig cfg_;
  std::uint32_t category_mask_;
  core::ThreadChecker thread_;
  std::vector<Component> components_ CONGA_GUARDED_BY(thread_);
  std::unordered_map<std::string, ComponentId> by_name_
      CONGA_GUARDED_BY(thread_);
  std::uint64_t next_seq_ CONGA_GUARDED_BY(thread_) = 1;
  std::uint64_t total_recorded_ CONGA_GUARDED_BY(thread_) = 0;
  std::uint64_t total_overwritten_ CONGA_GUARDED_BY(thread_) = 0;
  stats::TraceDigest digest_ CONGA_GUARDED_BY(thread_);
  std::unique_ptr<ProbeRegistry> probes_;
};

/// The instrumentation entry point. Compiles to nothing when the
/// CONGA_TELEMETRY gate is off; otherwise one null check + one mask test
/// before anything is written.
inline void emit(TraceSink* sink, EventType type, ComponentId comp,
                 sim::TimeNs t, std::uint64_t a = 0, std::uint64_t b = 0) {
#ifdef CONGA_TELEMETRY
  if (sink != nullptr && sink->enabled(category_of(type))) {
    sink->record(type, comp, t, a, b);
  }
#else
  (void)sink;
  (void)type;
  (void)comp;
  (void)t;
  (void)a;
  (void)b;
#endif
}

/// True when instrumentation call sites are compiled in.
constexpr bool compiled_in() {
#ifdef CONGA_TELEMETRY
  return true;
#else
  return false;
#endif
}

}  // namespace conga::telemetry
