#include "sim/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "debug/invariants.hpp"

namespace conga::sim {

void Scheduler::file(const Node& n) {
  const std::uint64_t s = slot(n.time);
  // Unsigned: a slot below cur_ (only a passed ticket, against schedule()'s
  // precondition) wraps past the window and waits far until the next pop.
  if (s - cur_ < kSlots) {
    file_near(n, s & kMask);
  } else {
    far_.push_back(n);
    std::push_heap(far_.begin(), far_.end(), after);
  }
}

void Scheduler::file_near(const Node& n, std::uint64_t i) {
  std::uint32_t e = free_;
  if (e != kNil) {
    free_ = pool_[e].next;
    pool_[e].node = n;
  } else {
    assert(pool_.size() < kNil);
    e = static_cast<std::uint32_t>(pool_.size());
    pool_.push_back(Entry{n, kNil});
  }
  pool_[e].next = heads_[i];
  heads_[i] = e;
  words_[i >> 6] |= std::uint64_t{1} << (i & 63);
  summary_ |= 1U << (i >> 6);
}

void Scheduler::migrate() {
  // A far node below the window (a passed ticket) joins the window's first
  // slot: it fires late, after at most one other event, but it fires.
  while (far_due()) {
    std::pop_heap(far_.begin(), far_.end(), after);
    const Node n = far_.back();
    far_.pop_back();
    file_near(n, std::max(slot(n.time), cur_) & kMask);
  }
}

std::uint64_t Scheduler::first_slot() const {
  const std::uint64_t from = cur_ & kMask;
  const unsigned w = static_cast<unsigned>(from >> 6);
  const std::uint64_t here = words_[w] & (~std::uint64_t{0} << (from & 63));
  if (here != 0) {
    return (std::uint64_t{w} << 6) |
           static_cast<std::uint64_t>(std::countr_zero(here));
  }
  // The next occupied word above w, else the lowest one: the window wraps,
  // and word w's bits below `from` are the end of the lap.
  const std::uint32_t above = summary_ & (~1U << w);
  const unsigned v = static_cast<unsigned>(
      std::countr_zero(above != 0 ? above : summary_));
  return (std::uint64_t{v} << 6) |
         static_cast<std::uint64_t>(std::countr_zero(words_[v]));
}

bool Scheduler::pop_next(TimeNs limit, Node& out, Callbacks::iterator& cb) {
  for (;;) {
    if (summary_ != 0) {
      // The first occupied slot holds the least key: every far node lies
      // past the window. Scan its list for that key and unlink it.
      const std::uint64_t i = first_slot();
      std::uint32_t* best = &heads_[i];
      for (std::uint32_t* p = &pool_[*best].next; *p != kNil;
           p = &pool_[*p].next) {
        if (before(pool_[*p].node, pool_[*best].node)) best = p;
      }
      const std::uint32_t e = *best;
      if (pool_[e].node.time > limit) return false;
      out = pool_[e].node;
      *best = pool_[e].next;
      pool_[e].next = free_;
      free_ = e;
      if (heads_[i] == kNil) {
        words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
        if (words_[i >> 6] == 0) summary_ &= ~(1U << (i >> 6));
      }
      cur_ += (i - cur_) & kMask;
    } else if (!far_.empty()) {
      // The window is empty: jump it to the far minimum, but only when that
      // key is removed now, so cur_ never passes the limit.
      if (far_.front().time > limit) return false;
      std::pop_heap(far_.begin(), far_.end(), after);
      out = far_.back();
      far_.pop_back();
      cur_ = slot(out.time);
    } else {
      // The queue is empty, and a stale pop may have left cur_ past now():
      // rest it on now()'s slot, at or below every later key.
      cur_ = slot(now_);
      return false;
    }
    --nodes_;
    if (far_due()) migrate();
    if (out.target != kCallback) return true;
    cb = callbacks_.find(out.seq);
    if (cb != callbacks_.end()) return true;
  }
}

EventId Scheduler::push(TimeNs t, std::uint64_t seq, Callback&& cb) {
  // Only a ticket scheduled twice while its first callback is live can
  // find its seq taken; the second callback is then dropped.
  const bool added = callbacks_.try_emplace(seq, std::move(cb)).second;
  CONGA_INVARIANT(check_condition(added, "scheduler", now_,
                                  "scheduler.ticket-one-callback",
                                  "schedule() on a ticket that holds a live "
                                  "callback"));
  assert(added);
  if (!added) return seq;
  file(Node{t, seq, kCallback, 0});
  ++nodes_;
  ++live_;
  return seq;
}

EventId Scheduler::schedule_at(TimeNs t, Callback cb) {
  if (t < now_) t = now_;
  return push(t, next_seq_++, std::move(cb));
}

EventId Scheduler::schedule(const Ticket& tk, Callback cb) {
  // A passed ticket lies at or before the last dispatch, possibly below the
  // calendar's window: its event would fire out of order.
  CONGA_INVARIANT(check_condition(!passed(tk), "scheduler", now_,
                                  "scheduler.ticket-passed",
                                  "schedule() on a ticket that has passed"));
  return push(tk.time, tk.seq, std::move(cb));
}

Scheduler::TargetId Scheduler::add_target(Target* target) {
  assert(targets_.size() < kCallback);
  targets_.push_back(target);
  return static_cast<TargetId>(targets_.size() - 1);
}

void Scheduler::post(const Ticket& tk, TargetId target, std::uint32_t tag) {
  CONGA_INVARIANT(check_condition(!passed(tk), "scheduler", now_,
                                  "scheduler.ticket-passed",
                                  "post() on a ticket that has passed"));
  push_typed(tk.time, tk.seq, target, tag);
}

void Scheduler::cancel(EventId id) {
  // Erasing destroys the callback (and anything it captured) now.
  if (callbacks_.erase(id) == 0) return;
  --live_;
  if (nodes_ > 2 * live_ + 64) compact();
  CONGA_INVARIANT(check_condition(nodes_ <= 2 * live_ + 64, "scheduler",
                                  now_, "scheduler.stale-bound",
                                  "queue nodes exceed 2*pending()+64"));
}

void Scheduler::compact() {
  // Stale nodes outnumber live ones: drop them now rather than carry them
  // until each is the minimum. Slots are unordered and the far heap is
  // rebuilt, so dropping nodes changes no order. A cancelled ticket
  // scheduled again leaves a twin node that looks live until one of the
  // pair is dispatched, so count what is left rather than assume it is
  // live_.
  const auto stale = [this](const Node& n) {
    return n.target == kCallback && !callbacks_.contains(n.seq);
  };
  nodes_ = 0;
  for (unsigned w = 0; w < kWords; ++w) {
    for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
      const std::uint64_t i =
          (std::uint64_t{w} << 6) |
          static_cast<std::uint64_t>(std::countr_zero(bits));
      for (std::uint32_t* p = &heads_[i]; *p != kNil;) {
        const std::uint32_t e = *p;
        if (stale(pool_[e].node)) {
          *p = pool_[e].next;
          pool_[e].next = free_;
          free_ = e;
        } else {
          p = &pool_[e].next;
          ++nodes_;
        }
      }
      if (heads_[i] == kNil) words_[w] &= ~(std::uint64_t{1} << (i & 63));
    }
    if (words_[w] == 0) summary_ &= ~(1U << w);
  }
  std::erase_if(far_, stale);
  std::make_heap(far_.begin(), far_.end(), after);
  nodes_ += far_.size();
}

void Scheduler::dispatch(const Node& n, Callbacks::iterator cb) {
  --live_;
  CONGA_INVARIANT(check_time_monotonic("scheduler", now_, n.time));
  now_ = n.time;
  cursor_ = Ticket{n.time, n.seq};
  ++dispatched_;
  if (trace_) trace_(n.time, n.seq);
  if (n.target != kCallback) {
    targets_[n.target]->on_event(n.tag);
    return;
  }
  const Callback f = std::move(cb->second);
  callbacks_.erase(cb);
  f();
}

void Scheduler::run() {
  stopped_ = false;
  Node n{};
  Callbacks::iterator cb;
  while (!stopped_ &&
         pop_next(std::numeric_limits<TimeNs>::max(), n, cb)) {
    dispatch(n, cb);
  }
}

void Scheduler::run_until(TimeNs t) {
  stopped_ = false;
  Node n{};
  Callbacks::iterator cb;
  while (!stopped_ && pop_next(t, n, cb)) dispatch(n, cb);
  // A stopped run leaves the clock at its last dispatch: events at or
  // before t may still be pending, and the clock must not pass them.
  if (stopped_) return;
  // Every position at or before t handed out so far has now been dispatched
  // or (for tickets) passed over.
  if (t >= cursor_.time) cursor_ = Ticket{t, next_seq_ - 1};
  if (now_ < t) now_ = t;
}

}  // namespace conga::sim
