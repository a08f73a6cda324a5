#include "debug/invariants.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

namespace conga::debug {

namespace {

// Single-threaded simulator: plain globals, no synchronisation needed.
ViolationHandler g_handler;  // empty == default (print + abort)
std::uint64_t g_count = 0;

void default_handler(const Violation& v) {
  std::fprintf(stderr, "%s\n", format_violation(v).c_str());
  std::abort();
}

}  // namespace

ViolationHandler set_violation_handler(ViolationHandler h) {
  ViolationHandler prev = std::move(g_handler);
  g_handler = std::move(h);
  return prev;
}

std::uint64_t violation_count() { return g_count; }

std::string format_violation(const Violation& v) {
  std::ostringstream os;
  os << "invariant violation [" << v.invariant << "] node=" << v.node
     << " t=" << v.time << "ns: " << v.detail;
  return os.str();
}

void report(Violation v) {
  ++g_count;
  if (g_handler) {
    g_handler(v);
  } else {
    default_handler(v);
  }
}

ScopedViolationCapture::ScopedViolationCapture() {
  prev_ = set_violation_handler(
      [this](const Violation& v) { captured_.push_back(v); });
}

ScopedViolationCapture::~ScopedViolationCapture() {
  set_violation_handler(std::move(prev_));
}

bool ScopedViolationCapture::fired(std::string_view invariant) const {
  for (const Violation& v : captured_) {
    if (v.invariant == invariant) return true;
  }
  return false;
}

namespace {

/// Shared failure path: assemble the report from a detail builder.
template <typename DetailFn>
bool fail(std::string_view node, sim::TimeNs now, std::string_view invariant,
          DetailFn&& detail) {
  report(Violation{std::string(node), now, std::string(invariant), detail()});
  return false;
}

}  // namespace

bool check_time_monotonic(std::string_view node, sim::TimeNs now,
                          sim::TimeNs event_time) {
  if (event_time >= now) return true;
  return fail(node, now, "scheduler.time-monotonic", [&] {
    std::ostringstream os;
    os << "event time " << event_time << "ns precedes current time " << now
       << "ns";
    return os.str();
  });
}

bool check_byte_conservation(std::string_view node, sim::TimeNs now,
                             std::uint64_t enqueued_bytes,
                             std::uint64_t dequeued_bytes,
                             std::uint64_t resident_bytes) {
  if (enqueued_bytes == dequeued_bytes + resident_bytes) return true;
  return fail(node, now, "queue.byte-conservation", [&] {
    std::ostringstream os;
    os << "enqueued=" << enqueued_bytes << " != dequeued=" << dequeued_bytes
       << " + resident=" << resident_bytes << " (delta="
       << (static_cast<std::int64_t>(enqueued_bytes) -
           static_cast<std::int64_t>(dequeued_bytes + resident_bytes))
       << ")";
    return os.str();
  });
}

bool check_queue_bounds(std::string_view node, sim::TimeNs now,
                        std::uint64_t bytes, std::uint64_t capacity_bytes,
                        std::size_t packets) {
  const bool within_cap = bytes <= capacity_bytes;
  const bool consistent = (bytes == 0) == (packets == 0);
  if (within_cap && consistent) return true;
  return fail(node, now, "queue.occupancy-bounds", [&] {
    std::ostringstream os;
    os << "bytes=" << bytes << " capacity=" << capacity_bytes
       << " packets=" << packets
       << (within_cap ? "" : " (over capacity)")
       << (consistent ? "" : " (bytes/packets emptiness mismatch)");
    return os.str();
  });
}

bool check_dre_register(std::string_view node, sim::TimeNs now, double before,
                        double after) {
  // Decay multiplies by (1-alpha)^k with k >= 0: never negative, never
  // larger than the value it started from (allow exact equality for k == 0).
  if (after >= 0.0 && after <= before) return true;
  return fail(node, now, "dre.register-bounds", [&] {
    std::ostringstream os;
    os << "register " << before << " -> " << after
       << (after < 0.0 ? " (negative)" : " (decay increased the register)");
    return os.str();
  });
}

bool check_flowlet_entry(std::string_view node, sim::TimeNs now,
                         sim::TimeNs last_seen, sim::TimeNs gap, bool valid,
                         int port_returned) {
  const bool seen_ok = last_seen <= now;
  // A hit must come from a valid entry whose gap has not elapsed. (The age-bit
  // mode can only expire *later* than the timestamp mode, so a timestamp-mode
  // hit bound is safe for both.)
  const bool hit_ok =
      port_returned < 0 || (valid && now - last_seen <= 2 * gap);
  if (seen_ok && hit_ok) return true;
  return fail(node, now, "flowlet.age-consistency", [&] {
    std::ostringstream os;
    os << "last_seen=" << last_seen << "ns gap=" << gap << "ns valid=" << valid
       << " port=" << port_returned
       << (seen_ok ? "" : " (last_seen in the future)")
       << (hit_ok ? "" : " (hit on an expired/invalid entry)");
    return os.str();
  });
}

bool check_tcp_window(std::string_view node, sim::TimeNs now,
                      std::uint64_t snd_una, std::uint64_t snd_nxt,
                      std::uint64_t snd_max, double cwnd_bytes) {
  if (snd_una <= snd_nxt && snd_nxt <= snd_max && cwnd_bytes >= 0.0) {
    return true;
  }
  return fail(node, now, "tcp.sequence-window", [&] {
    std::ostringstream os;
    os << "snd_una=" << snd_una << " snd_nxt=" << snd_nxt
       << " snd_max=" << snd_max << " cwnd=" << cwnd_bytes;
    return os.str();
  });
}

bool check_condition(bool ok, std::string_view node, sim::TimeNs now,
                     std::string_view invariant, std::string_view detail) {
  if (ok) return true;
  return fail(node, now, invariant, [&] { return std::string(detail); });
}

}  // namespace conga::debug
