#include "sim/scheduler.hpp"

#include <bit>
#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

#include "debug/invariants.hpp"

namespace conga::sim {

namespace {

using Key = unsigned __int128;

std::uint64_t high(Key k) { return static_cast<std::uint64_t>(k >> 64); }
std::uint64_t low(Key k) { return static_cast<std::uint64_t>(k); }

/// Index of the lowest set bit of a non-zero mask.
unsigned lowest_bit(Key mask) {
  return low(mask) != 0
             ? static_cast<unsigned>(std::countr_zero(low(mask)))
             : 64U + static_cast<unsigned>(std::countr_zero(high(mask)));
}

}  // namespace

void Scheduler::file(const Node& n) {
  // The bucket is the highest bit in which the key differs from the base.
  // Bucket 0 also takes a key equal to the base: a ticket scheduled again
  // after a cancel leaves a twin node with the same key, either of which
  // may become the base first (or, in violation of schedule()'s
  // precondition, a passed ticket).
  const Key x = n.key() ^ base_;
  const unsigned i =
      high(x) != 0 ? 64U + static_cast<unsigned>(std::bit_width(high(x))) - 1
                   : static_cast<unsigned>(std::bit_width(low(x) | 1)) - 1;
  buckets_[i].push_back(n);
  nonempty_ |= Key{1} << i;
}

bool Scheduler::pop_next(Key limit, Node& out) {
  while (nonempty_ != 0) {
    const unsigned i = lowest_bit(nonempty_);
    std::vector<Node>& b = buckets_[i];
    Node* best = b.data();
    if (b.size() > 1) {
      // Every key in bucket i agrees with the base above bit i and has bit
      // i set (bucket 0 also holds the base itself): a bucket that starts
      // past the limit is rejected unscanned.
      const Key floor =
          i == 0 ? base_ : (base_ >> i >> 1 << 1 << i) | (Key{1} << i);
      if (floor > limit) return false;
      for (Node* n = best + 1; n != b.data() + b.size(); ++n) {
        if (n->key() < best->key()) best = n;
      }
    }
    if (best->key() > limit) return false;
    out = *best;
    *best = b.back();
    b.pop_back();
    --nodes_;
    // The rest of the bucket lies above the new base and agrees with it
    // from bit i up, so each node drops into a lower bucket. A stale node
    // is a key like any other until it is the minimum.
    base_ = out.key();
    nonempty_ &= ~(Key{1} << i);
    if (!b.empty()) {
      for (const Node& n : b) file(n);
      b.clear();
    }
    if (!stale(out)) return true;
  }
  // Only stale nodes were left, and the base may be one of them: with the
  // queue empty, rest it on the last dispatch, below every later key.
  base_ = key_of(cursor_.time, cursor_.seq);
  return false;
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
  // A passed ticket lies at or before the last dispatch: its event would
  // fire out of order, and below the base the radix queue may misfile it.
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
  if (nodes_ > 2 * live_ + 64) {
    // Stale nodes outnumber live ones: drop them now rather than carry them
    // until each is the minimum. Buckets are unordered, so dropping nodes
    // changes no order. A cancelled ticket scheduled again leaves a twin
    // node that looks live until one of the pair is dispatched, so count
    // what is left rather than assume it is live_.
    nodes_ = 0;
    for (unsigned i = 0; i < kBuckets; ++i) {
      std::erase_if(buckets_[i], [this](const Node& n) { return stale(n); });
      if (buckets_[i].empty()) nonempty_ &= ~(Key{1} << i);
      nodes_ += buckets_[i].size();
    }
  }
  CONGA_INVARIANT(check_condition(nodes_ <= 2 * live_ + 64, "scheduler",
                                  now_, "scheduler.stale-bound",
                                  "queue nodes exceed 2*pending()+64"));
}

void Scheduler::dispatch(const Node& n) {
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
  const auto it = callbacks_.find(n.seq);
  const Callback cb = std::move(it->second);
  callbacks_.erase(it);
  cb();
}

void Scheduler::run() {
  stopped_ = false;
  Node n{};
  while (!stopped_ && pop_next(~Key{0}, n)) dispatch(n);
}

void Scheduler::run_until(TimeNs t) {
  stopped_ = false;
  Node n{};
  // Every key at time t is at most (t, max seq); none is at a negative time.
  const Key limit = t < 0 ? Key{0} : key_of(t, ~std::uint64_t{0});
  while (!stopped_ && pop_next(limit, n)) dispatch(n);
  // A stopped run leaves the clock at its last dispatch: events at or
  // before t may still be pending, and the clock must not pass them.
  if (stopped_) return;
  // Every position at or before t handed out so far has now been dispatched
  // or (for tickets) passed over.
  if (t >= cursor_.time) cursor_ = Ticket{t, next_seq_ - 1};
  if (now_ < t) now_ = t;
}

}  // namespace conga::sim
