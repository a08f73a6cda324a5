// Runtime invariant checker (correctness tooling).
//
// The simulator's results are only as credible as its internal bookkeeping:
// a queue that leaks bytes or a scheduler that travels back in time corrupts
// every figure silently. This subsystem threads cheap structural checks
// through the hot paths — event-time monotonicity, per-queue byte
// conservation, occupancy bounds, DRE register sanity, flowlet-table expiry
// consistency, and TCP sequence-window ordering — and raises a structured
// report (node, simulated time, invariant class, detail) on violation.
//
// Two layers:
//  * The check functions below are ALWAYS compiled, so tests can exercise
//    each invariant class directly by feeding it violating inputs.
//  * The hook sites inside sim/net/core/tcp are compiled in only under
//    -DCONGA_CHECK_INVARIANTS=1 (CMake option CONGA_CHECK_INVARIANTS=ON), so
//    release builds pay nothing — not even a branch.
//
// The default handler prints the report to stderr and aborts; tests install
// a ScopedViolationCapture to assert that a specific invariant fired.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace conga::debug {

/// One detected violation, naming the offending component and instant.
struct Violation {
  std::string node;       ///< component that detected it, e.g. "leaf0"
  sim::TimeNs time = 0;   ///< simulated time of detection
  std::string invariant;  ///< invariant class, e.g. "queue.byte-conservation"
  std::string detail;     ///< the numbers that broke it
};

using ViolationHandler = std::function<void(const Violation&)>;

/// Replaces the violation handler, returning the previous one. Passing an
/// empty handler restores the default (print to stderr + abort).
ViolationHandler set_violation_handler(ViolationHandler h);

/// Violations reported since process start. Counted before the handler
/// runs, so a non-aborting handler still leaves a tally.
std::uint64_t violation_count();

/// Formats `v` as the single-line structured report the default handler
/// prints: "invariant violation [<invariant>] node=<node> t=<ns>ns: <detail>".
std::string format_violation(const Violation& v);

/// Routes a violation through the current handler (and bumps the counter).
void report(Violation v);

/// RAII handler swap for tests: collects violations instead of aborting.
class ScopedViolationCapture {
 public:
  ScopedViolationCapture();
  ~ScopedViolationCapture();
  ScopedViolationCapture(const ScopedViolationCapture&) = delete;
  ScopedViolationCapture& operator=(const ScopedViolationCapture&) = delete;

  const std::vector<Violation>& violations() const { return captured_; }
  std::size_t count() const { return captured_.size(); }
  /// True if any captured violation belongs to invariant class `invariant`.
  bool fired(std::string_view invariant) const;

 private:
  std::vector<Violation> captured_;
  ViolationHandler prev_;
};

// ---------------------------------------------------------------------------
// Invariant checks. Each returns true when the invariant holds and reports a
// structured violation otherwise. Detail strings are built only on failure.
// ---------------------------------------------------------------------------

/// Scheduler: dispatched event times never regress (event-time monotonicity).
bool check_time_monotonic(std::string_view node, sim::TimeNs now,
                          sim::TimeNs event_time);

/// Queue: every byte ever enqueued is either dequeued or still resident
/// (drops are counted before admission, so they never enter the ledger).
bool check_byte_conservation(std::string_view node, sim::TimeNs now,
                             std::uint64_t enqueued_bytes,
                             std::uint64_t dequeued_bytes,
                             std::uint64_t resident_bytes);

/// Queue: occupancy within [0, capacity] and consistent with emptiness
/// (bytes == 0 exactly when no packets are resident).
bool check_queue_bounds(std::string_view node, sim::TimeNs now,
                        std::uint64_t bytes, std::uint64_t capacity_bytes,
                        std::size_t packets);

/// DRE: the register is non-negative, and decay never increases it
/// (`before` is the register value entering the decay step, `after` leaving).
bool check_dre_register(std::string_view node, sim::TimeNs now, double before,
                        double after);

/// Flowlet table: an entry's liveness bookkeeping is consistent — last_seen
/// never lies in the future, and a hit (returned port >= 0) only happens on a
/// valid entry within the flowlet gap.
bool check_flowlet_entry(std::string_view node, sim::TimeNs now,
                         sim::TimeNs last_seen, sim::TimeNs gap, bool valid,
                         int port_returned);

/// TCP: sequence-window ordering snd_una <= snd_nxt <= snd_max, and the
/// congestion window is non-negative.
bool check_tcp_window(std::string_view node, sim::TimeNs now,
                      std::uint64_t snd_una, std::uint64_t snd_nxt,
                      std::uint64_t snd_max, double cwnd_bytes);

/// Generic structural condition with a caller-supplied invariant class —
/// used by the switch forwarding paths (uplink validity, overlay routing)
/// where the condition is a one-off property of that hop.
bool check_condition(bool ok, std::string_view node, sim::TimeNs now,
                     std::string_view invariant, std::string_view detail);

}  // namespace conga::debug

// Hook-site gate: wraps a check call so that release builds compile it out
// entirely. Usage: CONGA_INVARIANT(check_queue_bounds(name, now, ...));
#if defined(CONGA_CHECK_INVARIANTS) && CONGA_CHECK_INVARIANTS
#define CONGA_INVARIANT(call) \
  do {                        \
    (void)::conga::debug::call; \
  } while (0)
#else
#define CONGA_INVARIANT(call) \
  do {                        \
  } while (0)
#endif
