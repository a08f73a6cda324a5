// Discrete-event scheduler: the heart of the simulator.
//
// Single-threaded and deterministic: events at equal timestamps fire in the
// order they were scheduled (a monotone sequence number breaks ties), so a
// run is exactly reproducible given the same seed.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"

namespace conga::telemetry {
class TraceSink;
}  // namespace conga::telemetry

namespace conga::sim {

/// Handle identifying a scheduled event, usable for cancellation: the
/// event's schedule-order seq, the same number the trace hook reports. Seqs
/// start at 1 and are never reused, so an id that has fired or been
/// cancelled can never name a later event.
using EventId = std::uint64_t;
constexpr EventId kInvalidEventId = 0;

/// A reserved position `(time, seq)` in the dispatch order: the place an event
/// scheduled at that moment would occupy, taken without creating one. A
/// component can record "something happens here" for free and only pay for a
/// queue node if it later needs a callback at exactly that position. The
/// default ticket `(0, 0)` precedes every real position, so it has always
/// passed.
struct Ticket {
  TimeNs time = 0;
  std::uint64_t seq = 0;
};

/// A discrete-event scheduler.
///
/// Usage:
///   Scheduler sched;
///   sched.schedule_after(microseconds(5), [] { ... });
///   sched.run();
///
/// Components hold a `Scheduler&` and schedule callbacks; there is no global
/// singleton, so multiple independent simulations can coexist (which the
/// tests and the parallel experiment runner exploit heavily).
///
/// Implementation: a calendar queue (Brown, CACM 1988) over the unique key
/// `(time, seq)`. Every key scheduled is above the last one removed
/// (schedule_at clamps to now() and takes a fresh seq; a ticket is
/// scheduled only before it passes). The near part is kSlots slots of 8 ns
/// each, covering the window `[cur << 3, (cur + kSlots) << 3)` (about
/// 16.4 us), where `cur` is the slot of the last node removed; a slot is an unordered list
/// of pooled entries, and a two-level occupancy bitmap finds the first
/// non-empty slot circularly from `cur`. A node past the window waits in a
/// far binary min-heap and migrates into its slot once the window reaches
/// it. Pop takes the least key of the first non-empty slot (about one node
/// at fabric density), so a packet hop is filed once and removed once, and
/// a parked timer is moved once. run_until(t) moves `cur` only by removing
/// a key at or before t, and a queue found empty rests `cur` on now()'s
/// slot: a stale pop may have left it past now(), where a later key would
/// land in the wrong lap of the calendar. 24-byte POD nodes carry the key
/// and what to run; callbacks live off the queue in a map keyed by seq.
///
/// cancel() erases the callback from that map, destroying it at once; its
/// node goes stale (a callback node is live exactly while its seq is in the
/// map) and is discarded when it becomes the least key, or earlier: once
/// the queue holds more than 2·pending()+64 nodes, cancel() drops every
/// stale node. Slots are unordered lists and the far heap is rebuilt, and
/// the map is only ever looked up, never iterated, so neither step can
/// change the order. A fired, cancelled or never-issued id is simply absent
/// from the map, so a stray cancel() cannot corrupt the pending-event
/// accounting.
///
/// Tickets (reserve_at / passed / schedule) let a component hold a place in
/// the dispatch order without a queue node — a link's "wire free" instant, a
/// TCP sender's RTO deadline — and turn it into an event only if something
/// must actually run there.
///
/// Typed events (add_target / post_at / post) are the callback-free form for
/// the hot path: a node that names a registered Target and a tag, with no
/// map entry, so it costs no hash lookup and no type-erased call. They take
/// their seq exactly as callback events do, so they interleave with them in
/// the same `(time, seq)` order. A typed event cannot be cancelled; its
/// target must outlive it.
class Scheduler {
 public:
  using Callback = std::function<void()>;

  /// Receiver of typed events. A component whose events only say "this
  /// happened to me" (a link's far-end arrival, its drain) registers once
  /// and is called back with the tag it posted.
  class Target {
   public:
    virtual void on_event(std::uint32_t tag) = 0;

   protected:
    ~Target() = default;
  };
  /// Index of a registered Target, returned by add_target.
  using TargetId = std::uint32_t;

  Scheduler() { heads_.fill(kNil); }
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time. Starts at 0.
  TimeNs now() const { return now_; }

  /// Schedules `cb` at absolute time `t`. Times in the past are clamped to
  /// now() (the event still fires, after currently pending same-time events).
  EventId schedule_at(TimeNs t, Callback cb);

  /// Schedules `cb` after a relative delay `dt` (negative clamps to 0).
  EventId schedule_after(TimeNs dt, Callback cb) {
    return schedule_at(now_ + dt, std::move(cb));
  }

  /// Takes a ticket at absolute time `t` (clamped to now() like
  /// schedule_at). It consumes a sequence number exactly as schedule_at
  /// would, so ties among later events break the same way whether or not the
  /// ticket ever becomes an event.
  Ticket reserve_at(TimeNs t) {
    if (t < now_) t = now_;
    return Ticket{t, next_seq_++};
  }

  /// True once dispatch has reached or gone past `tk`'s position: an event
  /// scheduled on it would already have fired. Also exact between runs —
  /// after run_until(t) every position at or before time t that was handed
  /// out has passed; after stop(), only those up to the last dispatch.
  bool passed(const Ticket& tk) const {
    return tk.time < cursor_.time ||
           (tk.time == cursor_.time && tk.seq <= cursor_.seq);
  }

  /// Schedules `cb` at exactly `tk`'s position and returns `tk.seq` as its
  /// id. `tk` must not have passed (checked as `scheduler.ticket-passed` in
  /// invariant builds) and may hold at most one live callback (checked as
  /// `scheduler.ticket-one-callback`). Consumes no sequence number (the
  /// ticket already did). Scheduling again on a ticket whose event was
  /// cancelled is allowed and gets the same id back.
  EventId schedule(const Ticket& tk, Callback cb);

  /// Registers `target` for typed events and returns its id. Targets are
  /// never unregistered; one must outlive every event posted to it.
  TargetId add_target(Target* target);

  /// Posts a typed event for `target` at absolute time `t`: it takes a seq
  /// and clamps to now() exactly as schedule_at does, and on dispatch calls
  /// `on_event(tag)`. It cannot be cancelled.
  void post_at(TimeNs t, TargetId target, std::uint32_t tag) {
    if (t < now_) t = now_;
    push_typed(t, next_seq_++, target, tag);
  }

  /// Posts a typed event at exactly `tk`'s position, as schedule(tk, cb)
  /// does (same precondition, same invariant). It cannot be cancelled.
  void post(const Ticket& tk, TargetId target, std::uint32_t tag);

  /// Cancels a pending callback event. Cancelling an already-fired,
  /// already-cancelled or invalid id, a typed event's seq or an unscheduled
  /// ticket's seq is a harmless no-op (this makes timer management in TCP
  /// much simpler). Amortized O(1): the callback is destroyed immediately
  /// and its queue node goes stale.
  void cancel(EventId id);

  /// Runs until the event queue is empty or stop() is called.
  void run();

  /// Runs events with timestamp <= `t`, then sets now() to `t`. If stop()
  /// cuts the run short, now() stays at the last dispatched event instead.
  void run_until(TimeNs t);

  /// Stops a run() in progress after the current event returns.
  void stop() { stopped_ = true; }

  /// Number of events dispatched so far (useful for perf reporting).
  std::uint64_t events_dispatched() const { return dispatched_; }

  /// Number of events currently pending (excluding cancelled ones). Exact:
  /// maintained as a live counter, so no amount of redundant cancel() calls
  /// can make it drift (let alone underflow).
  std::size_t pending() const { return live_; }

  /// Observer invoked once per dispatched event with (time, seq), in dispatch
  /// order, where seq is the monotone schedule-order sequence number (1 for
  /// the first event ever scheduled, and so on). Hashing this stream
  /// fingerprints the run's exact interleaving — the determinism auditor's
  /// event-trace digest. Unset (the default) costs one predictable branch
  /// per dispatch.
  using TraceHook = std::function<void(TimeNs, std::uint64_t seq)>;
  void set_trace_hook(TraceHook h) { trace_ = std::move(h); }

  /// Ambient telemetry sink for this simulation, or nullptr (the default).
  /// Components that already hold a `Scheduler&` (TCP senders, generators)
  /// reach the sink through here instead of threading another pointer
  /// through every constructor. The scheduler itself never records; it only
  /// carries the pointer.
  telemetry::TraceSink* telemetry() const { return telemetry_; }
  void set_telemetry(telemetry::TraceSink* sink) { telemetry_ = sink; }

 private:
  /// Node::target of a callback event.
  static constexpr std::uint32_t kCallback = 0xffffffffU;

  /// One pending (or stale) event. Trivially copyable and 24 bytes, so
  /// filing and migration move PODs, not callbacks. A typed event carries
  /// its target id and tag and is never stale; a callback event (target
  /// kCallback) is stale once its seq has left callbacks_.
  struct Node {
    TimeNs time;
    std::uint64_t seq;     ///< schedule-order tie-break; fed to the trace hook
    std::uint32_t target;  ///< registered target id, or kCallback
    std::uint32_t tag;     ///< passed to the target's on_event
  };
  static_assert(sizeof(Node) == 24);

  /// A near node in the entry pool, linked into its slot's list (or, when
  /// free, into the free list).
  struct Entry {
    Node node;
    std::uint32_t next;
  };

  using Callbacks = std::unordered_map<std::uint64_t, Callback>;

  /// Calendar geometry. A 1500 B frame serializes in 1.2 us at 10G and
  /// propagation is 1 us, so every hop event (arrival or drain, at most
  /// ~2.2 us out) lands inside the ~16.4 us window and only timers go far.
  /// The Fig 9 testbed peaks at about 240 pending events, most of them
  /// within those 2.2 us, so an 8 ns slot holds about one node and a pop
  /// scans about one.
  static constexpr unsigned kSlotShift = 3;  ///< 8 ns slots
  static constexpr std::uint64_t kSlots = 2048;
  static constexpr std::uint64_t kMask = kSlots - 1;
  static constexpr unsigned kWords = kSlots / 64;
  static_assert(kWords <= 32, "the summary word covers 32 bitmap words");
  /// End of a slot list or of the free list.
  static constexpr std::uint32_t kNil = 0xffffffffU;

  static std::uint64_t slot(TimeNs t) {
    return static_cast<std::uint64_t>(t) >> kSlotShift;
  }
  /// Dispatch order: (time, seq).
  static bool before(const Node& a, const Node& b) {
    return a.time < b.time || (a.time == b.time && a.seq < b.seq);
  }
  /// Min-heap order for the far heap.
  static bool after(const Node& a, const Node& b) { return before(b, a); }

  /// Inserts a live callback event at (t, seq).
  EventId push(TimeNs t, std::uint64_t seq, Callback&& cb);
  /// Inserts a typed event at (t, seq).
  void push_typed(TimeNs t, std::uint64_t seq, TargetId target,
                  std::uint32_t tag) {
    file(Node{t, seq, target, tag});
    ++nodes_;
    ++live_;
  }
  /// Files `n` in its slot if that lies in the window, else in the far heap.
  void file(const Node& n);
  /// Links `n` into slot list `i` (an index into heads_).
  void file_near(const Node& n, std::uint64_t i);
  /// True when the window covers the far minimum's slot.
  bool far_due() const {
    return !far_.empty() && slot(far_.front().time) < cur_ + kSlots;
  }
  /// Moves every far node whose slot the window now covers into it.
  void migrate();
  /// Index of the first non-empty slot circularly from cur_'s. The near part
  /// must not be empty.
  std::uint64_t first_slot() const;
  /// Removes the earliest live node if its time is at most `limit` and
  /// returns true, with `cb` at its callback for a callback event; otherwise
  /// changes no live node and returns false. Stale minima on the way are
  /// dropped.
  bool pop_next(TimeNs limit, Node& out, Callbacks::iterator& cb);
  /// Dispatches `n`, just taken by pop_next() with callback `cb`.
  void dispatch(const Node& n, Callbacks::iterator cb);
  /// Drops every stale node, near and far.
  void compact();

  TimeNs now_ = 0;
  /// Position of the last dispatch (or, after an unstopped run_until, the
  /// last position handed out at its horizon): passed() compares against it.
  Ticket cursor_;
  TraceHook trace_;
  telemetry::TraceSink* telemetry_ = nullptr;
  std::uint64_t next_seq_ = 1;
  std::uint64_t dispatched_ = 0;
  std::size_t live_ = 0;
  bool stopped_ = false;
  /// Slot of the last node removed (or of now() once the queue is found
  /// empty): no node lies below it, and every near node lies in
  /// `[cur_, cur_ + kSlots)`.
  std::uint64_t cur_ = 0;
  /// Nodes in the queue, near and far, live and stale.
  std::size_t nodes_ = 0;
  /// Head entry of each slot's list, or kNil.
  std::array<std::uint32_t, kSlots> heads_;
  /// Bit i of words_[w] set exactly when slot 64w+i holds nodes; bit w of
  /// summary_ set exactly when words_[w] is non-zero.
  std::array<std::uint64_t, kWords> words_{};
  std::uint32_t summary_ = 0;
  /// Near nodes, and the head of the list of free entries.
  std::vector<Entry> pool_;
  std::uint32_t free_ = kNil;
  /// Nodes past the window, a binary min-heap in (time, seq) order.
  std::vector<Node> far_;
  /// Callbacks of pending callback events, by seq.
  Callbacks callbacks_;
  std::vector<Target*> targets_;
};

}  // namespace conga::sim
