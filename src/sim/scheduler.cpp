#include "sim/scheduler.hpp"

#include <cassert>
#include <utility>

#include "debug/invariants.hpp"

namespace conga::sim {

std::uint32_t Scheduler::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    slots_[slot].next_free = kNoSlot;
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Scheduler::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.gen += 2;  // stays odd; invalidates outstanding ids and stale heap nodes
  s.next_free = free_head_;
  free_head_ = slot;
}

void Scheduler::sift_up(std::size_t i) {
  const HeapNode node = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(node, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = node;
}

void Scheduler::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const HeapNode node = heap_[i];
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], node)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = node;
}

void Scheduler::pop_top() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

bool Scheduler::settle_top() {
  while (!heap_.empty()) {
    const HeapNode& top = heap_.front();
    if (slots_[top.slot].gen == top.gen) return true;
    pop_top();  // stale: the event was cancelled and its slot released
  }
  return false;
}

EventId Scheduler::push(TimeNs t, std::uint64_t seq, Callback&& cb) {
  const std::uint32_t slot = acquire_slot();
  const std::uint32_t gen = slots_[slot].gen;
  slots_[slot].cb = std::move(cb);
  heap_.push_back(HeapNode{t, seq, slot, gen});
  sift_up(heap_.size() - 1);
  ++live_;
  return make_id(slot, gen);
}

EventId Scheduler::schedule_at(TimeNs t, Callback cb) {
  if (t < now_) t = now_;
  return push(t, next_seq_++, std::move(cb));
}

EventId Scheduler::schedule(const Ticket& tk, Callback cb) {
  assert(!passed(tk) && "ticket already passed");
  return push(tk.time, tk.seq, std::move(cb));
}

void Scheduler::cancel(EventId id) {
  const std::uint32_t slot = static_cast<std::uint32_t>(id >> 32);
  const std::uint32_t gen = static_cast<std::uint32_t>(id);
  // Generations are odd, so kInvalidEventId (gen 0) never matches; a fired
  // or re-cancelled id fails the generation check below.
  if ((gen & 1U) == 0 || slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  if (s.gen != gen) return;
  s.cb = Callback{};  // destroy the payload (e.g. a captured packet) now
  release_slot(slot);
  --live_;
}

void Scheduler::dispatch_top(Callback& cb) {
  const HeapNode top = heap_.front();
  cb = std::move(slots_[top.slot].cb);
  release_slot(top.slot);
  --live_;
  pop_top();
  CONGA_INVARIANT(check_time_monotonic("scheduler", now_, top.time));
  now_ = top.time;
  cursor_ = Ticket{top.time, top.seq};
  ++dispatched_;
  if (trace_) trace_(top.time, top.seq);
  cb();
  cb = Callback{};  // release the payload before the next settle
}

void Scheduler::run() {
  stopped_ = false;
  Callback cb;
  while (!stopped_ && settle_top()) dispatch_top(cb);
}

void Scheduler::run_until(TimeNs t) {
  stopped_ = false;
  Callback cb;
  while (!stopped_ && settle_top() && heap_.front().time <= t) {
    dispatch_top(cb);
  }
  // Unless stopped early, every position at or before t handed out so far
  // has now been dispatched or (for tickets) passed over.
  if (!stopped_ && t >= cursor_.time) cursor_ = Ticket{t, next_seq_ - 1};
  if (now_ < t) now_ = t;
}

}  // namespace conga::sim
