#include "sim/scheduler.hpp"

#include <cassert>
#include <cstddef>
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

namespace {

/// Index of the smallest of the four keys at h[c..c+3], without branches:
/// a two-round tournament of conditional selects.
template <typename Node>
std::size_t min_of_four(const Node* h, std::size_t c) {
  const auto k0 = h[c].key(), k1 = h[c + 1].key();
  const auto k2 = h[c + 2].key(), k3 = h[c + 3].key();
  const bool right1 = k1 < k0, right2 = k3 < k2;
  const auto ka = right1 ? k1 : k0, kb = right2 ? k3 : k2;
  const std::size_t a = c + right1, b = c + 2 + right2;
  return kb < ka ? b : a;
}

}  // namespace

void Scheduler::Heap::sift_up(std::size_t i) {
  HeapNode* const h = nodes_.data();
  const HeapNode node = h[i];
  const Key k = node.key();
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!(k < h[parent].key())) break;
    h[i] = h[parent];
    i = parent;
  }
  h[i] = node;
}

void Scheduler::Heap::sift_down(std::size_t i) {
  const std::size_t n = nodes_.size();
  HeapNode* const h = nodes_.data();
  const HeapNode node = h[i];
  const Key k = node.key();
  for (;;) {
    const std::size_t first = 4 * i + 1;
    std::size_t best;
    if (first + 4 <= n) {
      best = min_of_four(h, first);
    } else if (first < n) {  // the one parent with fewer than four children
      best = first;
      for (std::size_t c = first + 1; c < n; ++c) {
        if (h[c].key() < h[best].key()) best = c;
      }
    } else {
      break;
    }
    if (!(h[best].key() < k)) break;
    h[i] = h[best];
    i = best;
  }
  h[i] = node;
}

void Scheduler::Heap::push(const HeapNode& node) {
  nodes_.push_back(node);
  sift_up(nodes_.size() - 1);
}

void Scheduler::Heap::pop() {
  nodes_.front() = nodes_.back();
  nodes_.pop_back();
  if (!nodes_.empty()) sift_down(0);
}

template <typename Pred>
void Scheduler::Heap::remove_if(Pred stale) {
  std::size_t kept = 0;
  for (const HeapNode& n : nodes_) {
    if (!stale(n)) nodes_[kept++] = n;
  }
  nodes_.resize(kept);
  if (kept < 2) return;
  for (std::size_t i = (kept - 2) / 4 + 1; i-- > 0;) sift_down(i);
}

Scheduler::Heap* Scheduler::next_heap() {
  for (;;) {
    Heap* heap;
    if (far_.empty()) {
      if (near_.empty()) return nullptr;
      heap = &near_;
    } else if (near_.empty()) {
      heap = &far_;
    } else {
      heap = near_.top().key() < far_.top().key() ? &near_ : &far_;
    }
    if (!stale(heap->top())) return heap;
    // Only the root about to dispatch is settled: a stale far root behind a
    // live near one waits for compaction instead of costing a pop now.
    heap->pop();
  }
}

EventId Scheduler::push(TimeNs t, std::uint64_t seq, Callback&& cb) {
  const std::uint32_t slot = acquire_slot();
  const std::uint32_t gen = slots_[slot].gen;
  slots_[slot].cb = std::move(cb);
  (t - now_ > kHorizon ? far_ : near_).push(HeapNode{t, seq, slot, gen});
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
  if (heap_nodes() > 2 * live_ + 64) {
    // Stale nodes outnumber live ones: drop them now rather than sift past
    // them until they surface. Keys are unique, so order is unchanged.
    const auto is_stale = [this](const HeapNode& n) { return stale(n); };
    near_.remove_if(is_stale);
    far_.remove_if(is_stale);
  }
  CONGA_INVARIANT(check_condition(heap_nodes() <= 2 * live_ + 64, "scheduler",
                                  now_, "scheduler.stale-bound",
                                  "heap nodes exceed 2*pending()+64"));
}

void Scheduler::dispatch_top(Heap& heap, Callback& cb) {
  const HeapNode top = heap.top();
  cb = std::move(slots_[top.slot].cb);
  release_slot(top.slot);
  --live_;
  heap.pop();
  CONGA_INVARIANT(check_time_monotonic("scheduler", now_, top.time));
  now_ = top.time;
  cursor_ = Ticket{top.time, top.seq};
  ++dispatched_;
  if (trace_) trace_(top.time, top.seq);
  cb();
  cb = Callback{};  // release the payload before the next dispatch
}

void Scheduler::run() {
  stopped_ = false;
  Callback cb;
  while (!stopped_) {
    Heap* const heap = next_heap();
    if (heap == nullptr) break;
    dispatch_top(*heap, cb);
  }
}

void Scheduler::run_until(TimeNs t) {
  stopped_ = false;
  Callback cb;
  while (!stopped_) {
    Heap* const heap = next_heap();
    if (heap == nullptr || heap->top().time > t) break;
    dispatch_top(*heap, cb);
  }
  // A stopped run leaves the clock at its last dispatch: events at or
  // before t may still be pending, and the clock must not pass them.
  if (stopped_) return;
  // Every position at or before t handed out so far has now been dispatched
  // or (for tickets) passed over.
  if (t >= cursor_.time) cursor_ = Ticket{t, next_seq_ - 1};
  if (now_ < t) now_ = t;
}

}  // namespace conga::sim
