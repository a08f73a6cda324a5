// Tests for the discrete-event scheduler and RNG utilities.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace conga::sim {
namespace {

TEST(Scheduler, StartsAtTimeZero) {
  Scheduler sched;
  EXPECT_EQ(sched.now(), 0);
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(Scheduler, FiresEventsInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(30, [&] { order.push_back(3); });
  sched.schedule_at(10, [&] { order.push_back(1); });
  sched.schedule_at(20, [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 30);
}

TEST(Scheduler, EqualTimestampsFireInScheduleOrder) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  sched.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, NowAdvancesToEventTime) {
  Scheduler sched;
  TimeNs seen = -1;
  sched.schedule_at(123456, [&] { seen = sched.now(); });
  sched.run();
  EXPECT_EQ(seen, 123456);
}

TEST(Scheduler, ScheduleAfterIsRelative) {
  Scheduler sched;
  TimeNs seen = -1;
  sched.schedule_at(100, [&] {
    sched.schedule_after(50, [&] { seen = sched.now(); });
  });
  sched.run();
  EXPECT_EQ(seen, 150);
}

TEST(Scheduler, PastTimesClampToNow) {
  Scheduler sched;
  TimeNs seen = -1;
  sched.schedule_at(100, [&] {
    sched.schedule_at(10, [&] { seen = sched.now(); });  // in the past
  });
  sched.run();
  EXPECT_EQ(seen, 100);
}

TEST(Scheduler, CancelPreventsDispatch) {
  Scheduler sched;
  bool fired = false;
  const EventId id = sched.schedule_at(10, [&] { fired = true; });
  sched.cancel(id);
  sched.run();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, CancelInvalidIdIsNoop) {
  Scheduler sched;
  sched.cancel(kInvalidEventId);
  sched.cancel(9999);  // never allocated
  bool fired = false;
  sched.schedule_at(1, [&] { fired = true; });
  sched.run();
  EXPECT_TRUE(fired);
}

TEST(Scheduler, CancelAfterFireIsNoop) {
  Scheduler sched;
  const EventId id = sched.schedule_at(1, [] {});
  sched.run();
  sched.cancel(id);  // already fired
  SUCCEED();
}

TEST(Scheduler, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Scheduler sched;
  int count = 0;
  sched.schedule_at(10, [&] { ++count; });
  sched.schedule_at(20, [&] { ++count; });
  sched.schedule_at(30, [&] { ++count; });
  sched.run_until(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sched.now(), 20);
  sched.run_until(100);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sched.now(), 100);
}

TEST(Scheduler, StopHaltsRun) {
  Scheduler sched;
  int count = 0;
  sched.schedule_at(1, [&] {
    ++count;
    sched.stop();
  });
  sched.schedule_at(2, [&] { ++count; });
  sched.run();
  EXPECT_EQ(count, 1);
  sched.run();  // resumes
  EXPECT_EQ(count, 2);
}

TEST(Scheduler, StopInsideRunUntilLeavesClockAtLastDispatch) {
  // The clock must not pass an event that is still pending: a stopped
  // run_until does not jump to its horizon.
  Scheduler sched;
  bool fired = false;
  sched.schedule_at(5, [&] { sched.stop(); });
  sched.schedule_at(7, [&] { fired = true; });
  sched.run_until(10);
  EXPECT_EQ(sched.now(), 5);
  EXPECT_FALSE(fired);
  sched.run_until(10);
  EXPECT_TRUE(fired);
  EXPECT_EQ(sched.now(), 10);
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
  Scheduler sched;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sched.schedule_after(1, recurse);
  };
  sched.schedule_at(0, recurse);
  sched.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sched.now(), 99);
}

TEST(Scheduler, DispatchCountTracksEvents) {
  Scheduler sched;
  for (int i = 0; i < 7; ++i) sched.schedule_at(i, [] {});
  sched.run();
  EXPECT_EQ(sched.events_dispatched(), 7u);
}

// Regression: cancel() on an already-fired or never-valid id used to insert
// into the lazy-cancel set forever, so pending() (heap size minus cancelled
// size) underflowed and wrapped to a huge size_t. An id that is not a
// pending callback's seq is absent from the callback map, so such cancels
// are true no-ops on the accounting.
TEST(Scheduler, PendingSurvivesBogusCancels) {
  Scheduler sched;
  const EventId id = sched.schedule_at(1, [] {});
  EXPECT_EQ(sched.pending(), 1u);
  sched.run();
  EXPECT_EQ(sched.pending(), 0u);
  sched.cancel(id);              // already fired
  sched.cancel(id);              // twice
  sched.cancel(kInvalidEventId); // never valid
  sched.cancel(9999);            // forged
  EXPECT_EQ(sched.pending(), 0u);
  sched.schedule_at(2, [] {});
  EXPECT_EQ(sched.pending(), 1u);  // pre-fix: wrapped near SIZE_MAX
  sched.run();
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(Scheduler, DoubleCancelDecrementsPendingOnce) {
  Scheduler sched;
  const EventId a = sched.schedule_at(5, [] {});
  sched.schedule_at(6, [] {});
  EXPECT_EQ(sched.pending(), 2u);
  sched.cancel(a);
  EXPECT_EQ(sched.pending(), 1u);
  sched.cancel(a);  // second cancel of the same event: no-op
  EXPECT_EQ(sched.pending(), 1u);
  sched.run();
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(Scheduler, FiredIdCannotCancelALaterEvent) {
  // An id is its event's seq and seqs are never reused, so the id of an
  // event that fired must not cancel the next one.
  Scheduler sched;
  const EventId first = sched.schedule_at(1, [] {});
  sched.run();
  bool fired = false;
  const EventId second = sched.schedule_at(2, [&] { fired = true; });
  EXPECT_NE(second, first);
  sched.cancel(first);  // already fired
  EXPECT_EQ(sched.pending(), 1u);
  sched.run();
  EXPECT_TRUE(fired);
}

TEST(Scheduler, IdIsTheSeqTheTraceHookReports) {
  Scheduler sched;
  std::vector<std::uint64_t> seqs;
  sched.set_trace_hook(
      [&seqs](TimeNs, std::uint64_t seq) { seqs.push_back(seq); });
  const EventId a = sched.schedule_at(5, [] {});
  const Ticket tk = sched.reserve_at(3);
  const EventId b = sched.schedule(tk, [] {});
  EXPECT_EQ(b, tk.seq);
  sched.run();
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{b, a}));
}

TEST(Scheduler, CancelledTicketScheduledAgainFiresOnce) {
  // Scheduling again on a ticket whose event was cancelled gets the same id
  // back; the first event's node is left behind with the same key, and the
  // event still fires exactly once, at the ticket's place.
  Scheduler sched;
  std::vector<std::uint64_t> seqs;
  sched.set_trace_hook(
      [&seqs](TimeNs, std::uint64_t seq) { seqs.push_back(seq); });
  const Ticket tk = sched.reserve_at(4);
  int first = 0, second = 0;
  const EventId a = sched.schedule(tk, [&] { ++first; });
  sched.cancel(a);
  const EventId b = sched.schedule(tk, [&] { ++second; });
  EXPECT_EQ(a, b);
  EXPECT_EQ(sched.pending(), 1u);
  sched.schedule_at(4, [] {});
  sched.run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{tk.seq, tk.seq + 1}));
  EXPECT_EQ(sched.pending(), 0u);
  EXPECT_EQ(sched.events_dispatched(), 2u);
}

TEST(Scheduler, HeavyCancelChurnKeepsOrderAndAccounting) {
  // Interleaved schedule/cancel churn (the TCP timer pattern) across a
  // backlog: survivors fire in (time, schedule order) and pending() stays
  // exact throughout.
  Scheduler sched;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(sched.schedule_at(100 + (i % 10), [&fired, i] {
      fired.push_back(i);
    }));
  }
  std::size_t expected = 200;
  for (int i = 0; i < 200; i += 2) {  // cancel the even half
    sched.cancel(ids[static_cast<std::size_t>(i)]);
    --expected;
    ASSERT_EQ(sched.pending(), expected);
  }
  sched.run();
  EXPECT_EQ(sched.pending(), 0u);
  ASSERT_EQ(fired.size(), 100u);
  // Survivors (odd i) grouped by time bucket (100 + i%10), schedule order
  // within a bucket.
  std::vector<int> expected_order;
  for (int bucket = 1; bucket < 10; bucket += 2) {
    for (int i = bucket; i < 200; i += 10) expected_order.push_back(i);
  }
  EXPECT_EQ(fired, expected_order);
}

TEST(Scheduler, CancelDestroysPayloadEagerly) {
  // Cancelling an event frees its captured payload immediately (pooled
  // packets must return to the pool without waiting for the node to
  // surface in the heap).
  Scheduler sched;
  auto payload = std::make_shared<int>(7);
  std::weak_ptr<int> watch = payload;
  const EventId id = sched.schedule_at(1000, [p = std::move(payload)] {
    (void)*p;
  });
  EXPECT_FALSE(watch.expired());
  sched.cancel(id);
  EXPECT_TRUE(watch.expired());
  sched.run();
}

TEST(Scheduler, CancelledHeadSkippedByRunUntil) {
  Scheduler sched;
  bool fired_a = false, fired_b = false;
  const EventId a = sched.schedule_at(5, [&] { fired_a = true; });
  sched.schedule_at(10, [&] { fired_b = true; });
  sched.cancel(a);
  sched.run_until(10);
  EXPECT_FALSE(fired_a);
  EXPECT_TRUE(fired_b);
}

TEST(SchedulerTicket, InterleavesWithEventsInTimeSeqOrder) {
  Scheduler sched;
  std::vector<std::pair<TimeNs, std::uint64_t>> fired;
  sched.set_trace_hook(
      [&fired](TimeNs t, std::uint64_t seq) { fired.emplace_back(t, seq); });
  sched.schedule_at(10, [] {});              // seq 1
  const Ticket at10 = sched.reserve_at(10);  // seq 2
  sched.schedule_at(10, [] {});              // seq 3
  const Ticket at5 = sched.reserve_at(5);    // seq 4
  (void)sched.reserve_at(7);                 // seq 5, never scheduled
  sched.schedule_at(7, [] {});               // seq 6
  EXPECT_EQ(sched.pending(), 3u) << "a ticket alone is not an event";
  sched.schedule(at10, [] {});
  sched.schedule(at5, [] {});
  sched.run();
  const std::vector<std::pair<TimeNs, std::uint64_t>> expected = {
      {5, 4}, {7, 6}, {10, 1}, {10, 2}, {10, 3}};
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(sched.events_dispatched(), 5u);
}

TEST(SchedulerTicket, DefaultTicketHasPassedAndPastTimesClamp) {
  Scheduler sched;
  EXPECT_TRUE(sched.passed(Ticket{}));
  sched.run_until(100);
  const Ticket past = sched.reserve_at(10);
  EXPECT_EQ(past.time, 100);
  EXPECT_FALSE(sched.passed(past));
}

TEST(SchedulerTicket, PassedIsExactDuringDispatch) {
  Scheduler sched;
  std::vector<bool> seen;
  auto probe = [&sched, &seen](const Ticket* tk) {
    return [&sched, &seen, tk] { seen.push_back(sched.passed(*tk)); };
  };
  Ticket tk;
  sched.schedule_at(9, probe(&tk));   // earlier time
  sched.schedule_at(10, probe(&tk));  // same time, earlier seq
  tk = sched.reserve_at(10);
  sched.schedule_at(10, probe(&tk));  // same time, later seq
  sched.schedule_at(11, probe(&tk));  // later time
  sched.run();
  EXPECT_EQ(seen, (std::vector<bool>{false, false, true, true}));
}

TEST(SchedulerTicket, PassedAfterRunUntil) {
  Scheduler sched;
  const Ticket at20 = sched.reserve_at(20);
  const Ticket at21 = sched.reserve_at(21);
  sched.schedule_at(5, [] {});
  sched.run_until(20);  // last dispatch at 5; the clock then moves to 20
  EXPECT_TRUE(sched.passed(at20));
  EXPECT_FALSE(sched.passed(at21));
  // A position handed out after the run, at the horizon itself, is still
  // ahead: it fires on the next run.
  const Ticket fresh = sched.reserve_at(20);
  EXPECT_FALSE(sched.passed(fresh));
  bool fired = false;
  sched.schedule(fresh, [&] { fired = true; });
  sched.run_until(20);
  EXPECT_TRUE(fired);
  EXPECT_TRUE(sched.passed(fresh));
  EXPECT_FALSE(sched.passed(at21));
  sched.run_until(21);
  EXPECT_TRUE(sched.passed(at21));
}

TEST(SchedulerTicket, PassedAfterStop) {
  Scheduler sched;
  const Ticket before = sched.reserve_at(5);
  sched.schedule_at(5, [&] { sched.stop(); });
  const Ticket after = sched.reserve_at(5);
  const Ticket later = sched.reserve_at(8);
  sched.run();
  EXPECT_TRUE(sched.passed(before));
  EXPECT_FALSE(sched.passed(after)) << "stop() halts dispatch right there";
  EXPECT_FALSE(sched.passed(later));
  std::vector<int> order;
  sched.schedule(later, [&] { order.push_back(2); });
  sched.schedule(after, [&] { order.push_back(1); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_TRUE(sched.passed(later));
}

TEST(SchedulerTicket, ScheduledTicketCanBeCancelled) {
  Scheduler sched;
  const Ticket tk = sched.reserve_at(3);
  bool fired = false;
  const EventId id = sched.schedule(tk, [&] { fired = true; });
  EXPECT_EQ(sched.pending(), 1u);
  sched.cancel(id);
  sched.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sched.pending(), 0u);
}

// Differential harness for the scheduler: a seeded random mix of every
// operation, checked against a std::set model of the pending (time, seq)
// keys. Each dispatch must be the model's smallest key; pending(), now() and
// passed() must agree with the model after every step. Typed events (posted
// to one of three targets, fresh or on a ticket) mix with callback events
// and must reach the right target with the right tag. With `window_bands`,
// times and run_until horizons also probe the calendar's window edge (see
// pick_time() and step()); without it the random stream is unchanged.
class SchedulerChurn {
 public:
  explicit SchedulerChurn(std::uint64_t seed, bool window_bands = false)
      : rng_(seed), window_bands_(window_bands) {
    sched_.set_trace_hook(
        [this](TimeNs t, std::uint64_t seq) { on_dispatch({t, seq}); });
    for (std::uint32_t i = 0; i < kProbes; ++i) {
      probes_[i].churn = this;
      probes_[i].index = i;
      probe_ids_[i] = sched_.add_target(&probes_[i]);
    }
  }

  void step() {
    const double r = rng_.uniform();
    if (r < 0.20) {
      schedule_at(pick_time());
    } else if (r < 0.30) {
      post_at(pick_time());
    } else if (r < 0.40) {
      tickets_.push_back(sched_.reserve_at(pick_time()));
      ++next_seq_;
    } else if (r < 0.50) {
      schedule_ticket();
    } else if (r < 0.72) {
      cancel_issued();
    } else if (r < 0.76) {
      cancel_bogus();
    } else if (r < 0.77) {
      park_and_cancel_burst();
    } else if (r < 0.97) {
      // With window_bands, half the horizons jump 1 to 6 windows (16.4 us
      // each) at nanosecond grain.
      run_until(window_bands_ && rng_.chance(0.5)
                    ? now_ + rng_.uniform_int(16'000, 100'000)
                    : now_ + rng_.uniform_int(-1'000, 400'000));
    } else {
      run();
    }
    check_state();
  }

  void run() {
    stopped_ = false;
    sched_.run();
    if (!stopped_) {
      EXPECT_TRUE(model_.empty());
    }
  }

  /// Runs until nothing is pending, however many stop()s cut it short.
  void drain() {
    while (sched_.pending() > 0) run();
    EXPECT_TRUE(model_.empty());
    EXPECT_TRUE(typed_.empty());
  }

  void check_state() {
    ASSERT_EQ(mismatches_, 0u);
    EXPECT_EQ(sched_.pending(), model_.size());
    EXPECT_EQ(sched_.now(), now_);
    EXPECT_EQ(sched_.events_dispatched(), dispatched_);
  }

  std::uint64_t dispatched() const { return dispatched_; }
  std::uint64_t typed_dispatched() const { return typed_dispatched_; }

 private:
  using Key = std::pair<TimeNs, std::uint64_t>;

  static constexpr std::uint32_t kProbes = 3;

  /// A typed-event target that reports back to the harness.
  struct Probe final : Scheduler::Target {
    void on_event(std::uint32_t tag) override { churn->on_typed(index, tag); }
    SchedulerChurn* churn = nullptr;
    std::uint32_t index = 0;
  };

  // Zero, short (a link hop: near) and long (a parked timer: far) delays,
  // on a coarse grid so same-time ties across the two kinds are common. A
  // grid point below now() exercises the clamp. With window_bands, half the
  // zero delays instead straddle the calendar's window edge (15 to 18 us,
  // at nanosecond grain), so keys land just inside and just past it.
  TimeNs pick_time() {
    const double r = rng_.uniform();
    TimeNs d = 0;
    if (r < 0.4) {
      d = rng_.uniform_int(1, 7'000);
    } else if (r < 0.8) {
      d = rng_.uniform_int(100'000, 3'000'000);
    } else if (window_bands_ && r < 0.9) {
      return now_ + rng_.uniform_int(15'000, 18'000);
    }
    return (now_ + d) / 500 * 500;
  }

  Key clamp(TimeNs t) const { return {t < now_ ? now_ : t, next_seq_}; }

  void schedule_at(TimeNs t) {
    const Key key = clamp(t);
    ++next_seq_;
    track(sched_.schedule_at(t, callback()), key);
  }

  void post_at(TimeNs t) {
    const Key key = clamp(t);
    ++next_seq_;
    const auto [probe, tag] = pick_typed(key);
    sched_.post_at(t, probe_ids_[probe], tag);
  }

  /// A random target and tag for a typed event at `key`, entered in the
  /// model.
  std::pair<std::uint32_t, std::uint32_t> pick_typed(const Key& key) {
    const auto probe = static_cast<std::uint32_t>(rng_.index(kProbes));
    const auto tag =
        static_cast<std::uint32_t>(rng_.uniform_int(0, 0xffffffffLL));
    model_.insert(key);
    typed_[key] = {probe, tag};
    return {probe, tag};
  }

  void schedule_ticket() {
    if (tickets_.empty()) return;
    const std::size_t i = rng_.index(tickets_.size());
    const Ticket tk = tickets_[i];
    tickets_[i] = tickets_.back();
    tickets_.pop_back();
    const Key key{tk.time, tk.seq};
    const bool passed = key <= cursor_;
    EXPECT_EQ(sched_.passed(tk), passed);
    if (passed) return;
    if (rng_.chance(0.4)) {
      const auto [probe, tag] = pick_typed(key);
      sched_.post(tk, probe_ids_[probe], tag);
    } else {
      track(sched_.schedule(tk, callback()), key);
    }
  }

  // Any id ever issued, weighted toward recent (likely still live) ones:
  // live ids cancel, fired and cancelled ids are no-ops.
  void cancel_issued() {
    if (issued_.empty()) return;
    const std::size_t n = issued_.size();
    const std::size_t i = rng_.chance(0.5)
                              ? n - 1 - rng_.index(n < 32 ? n : 32)
                              : rng_.index(n);
    sched_.cancel(issued_[i].first);
    model_.erase(issued_[i].second);
  }

  // Ids that name no pending callback: the seq of a pending typed event,
  // the seq of a reserved but unscheduled ticket, and ids never issued.
  void cancel_bogus() {
    const double r = rng_.uniform();
    if (r < 0.35 && !typed_.empty()) {
      auto it = typed_.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng_.index(
                           typed_.size() < 16 ? typed_.size() : 16)));
      sched_.cancel(it->first.second);
    } else if (r < 0.7 && !tickets_.empty()) {
      sched_.cancel(tickets_[rng_.index(tickets_.size())].seq);
    } else {
      sched_.cancel(rng_.chance(0.5) ? kInvalidEventId : ~EventId{0});
    }
  }

  // The TCP pattern at scale: many parked timers, almost all cancelled,
  // so stale nodes pile up past the compaction bound.
  void park_and_cancel_burst() {
    const std::size_t first = issued_.size();
    for (int i = 0; i < 300; ++i) {
      schedule_at(now_ + rng_.uniform_int(100'000, 3'000'000));
    }
    for (std::size_t i = first; i < issued_.size(); ++i) {
      if (rng_.chance(0.95)) {
        sched_.cancel(issued_[i].first);
        model_.erase(issued_[i].second);
      }
    }
  }

  void run_until(TimeNs t) {
    stopped_ = false;
    sched_.run_until(t);
    if (stopped_) return;  // the clock stays at the last dispatch
    EXPECT_TRUE(model_.empty() || model_.begin()->first > t);
    if (t >= cursor_.first) cursor_ = {t, next_seq_ - 1};
    if (now_ < t) now_ = t;
  }

  Scheduler::Callback callback() {
    return [this] { on_fire(); };
  }

  void track(EventId id, Key key) {
    issued_.emplace_back(id, key);
    model_.insert(key);
  }

  void on_dispatch(Key key) {
    if (model_.empty() || *model_.begin() != key) {
      ++mismatches_;
      ADD_FAILURE() << "dispatched (" << key.first << ", " << key.second
                    << ") but the model expected "
                    << (model_.empty() ? "nothing" : "another key");
      return;
    }
    model_.erase(model_.begin());
    now_ = key.first;
    cursor_ = key;
    ++dispatched_;
  }

  // Events act during dispatch too: some schedule a follow-up (classified
  // against the advanced clock), a few stop the run.
  void on_fire() {
    EXPECT_EQ(typed_.count(cursor_), 0u) << "typed event ran a callback";
    act();
  }

  void on_typed(std::uint32_t probe, std::uint32_t tag) {
    const auto it = typed_.find(cursor_);
    if (it == typed_.end()) {
      ADD_FAILURE() << "callback event reached target " << probe;
    } else {
      EXPECT_EQ(it->second, std::make_pair(probe, tag));
      typed_.erase(it);
    }
    ++typed_dispatched_;
    act();
  }

  void act() {
    const double r = rng_.uniform();
    if (r < 0.15) {
      schedule_at(pick_time());
    } else if (r < 0.3) {
      post_at(pick_time());
    }
    if (rng_.chance(0.02)) {
      sched_.stop();
      stopped_ = true;
    }
  }

  Scheduler sched_;
  Rng rng_;
  bool window_bands_;
  std::array<Probe, kProbes> probes_;
  std::array<Scheduler::TargetId, kProbes> probe_ids_{};
  std::set<Key> model_;
  /// Pending typed events: key -> (probe, tag).
  std::map<Key, std::pair<std::uint32_t, std::uint32_t>> typed_;
  std::vector<std::pair<EventId, Key>> issued_;
  std::vector<Ticket> tickets_;
  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 1;
  Key cursor_{0, 0};
  std::uint64_t dispatched_ = 0;
  std::uint64_t typed_dispatched_ = 0;
  std::uint64_t mismatches_ = 0;
  bool stopped_ = false;
};

TEST(Scheduler, MatchesReferenceOrderUnderRandomChurn) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    SchedulerChurn churn(seed);
    for (int i = 0; i < 5'000; ++i) {
      churn.step();
      if (::testing::Test::HasFatalFailure()) return;
    }
    churn.drain();
    churn.check_state();
    EXPECT_GT(churn.dispatched(), 2'000u);
    EXPECT_GT(churn.typed_dispatched(), 500u);
  }
}

TEST(Scheduler, MatchesReferenceOrderAcrossTheCalendarWindowEdge) {
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    SCOPED_TRACE(seed);
    SchedulerChurn churn(seed, /*window_bands=*/true);
    for (int i = 0; i < 5'000; ++i) {
      churn.step();
      if (::testing::Test::HasFatalFailure()) return;
    }
    churn.drain();
    churn.check_state();
    EXPECT_GT(churn.dispatched(), 2'000u);
    EXPECT_GT(churn.typed_dispatched(), 500u);
  }
}

// A stale pop moves the calendar's window: here the cancelled event at
// 10 us is removed after the one at 100 ns fires, and then the queue is
// empty. The window must come back to now() (100 ns); left at 10 us, the
// events at 200 ns and 5 us would be filed a lap late and fire after the
// one at 12 us.
TEST(SchedulerCalendar, StalePopRestsTheWindowOnNow) {
  Scheduler sched;
  std::vector<TimeNs> fired;
  const auto log = [&] { fired.push_back(sched.now()); };
  sched.schedule_at(100, log);
  sched.cancel(sched.schedule_at(10'000, log));
  sched.run();
  ASSERT_EQ(fired, std::vector<TimeNs>{100});
  for (const TimeNs t : {12'000, 200, 5'000}) sched.schedule_at(t, log);
  sched.run();
  EXPECT_EQ(fired, (std::vector<TimeNs>{100, 200, 5'000, 12'000}));
  EXPECT_EQ(sched.pending(), 0u);
}

// With 8 ns slots and a 2048-slot window, an event up to 2047 slots after
// the last dispatch is filed in the window, where it may land in the same
// bitmap word as the window's start, below it: the search for the next
// slot must wrap around to it. Two slots later it waits far instead. Each
// case is a chain of lone events, each `ahead` slots after the last and
// in its last nanosecond, starting from slots with different offsets in
// their word.
TEST(SchedulerCalendar, LoneEventAtTheWindowsFarEndFires) {
  for (const TimeNs start : {0, 1, 10, 62, 63}) {
    for (const TimeNs ahead : {1, 1984, 2040, 2047, 2048, 2049, 4100}) {
      SCOPED_TRACE(testing::Message() << start << " " << ahead);
      Scheduler sched;
      std::vector<TimeNs> fired;
      std::function<void()> hop = [&] {
        fired.push_back(sched.now());
        if (fired.size() < 8) {
          sched.schedule_at(sched.now() / 8 * 8 + 8 * ahead + 7, hop);
        }
      };
      const TimeNs first = 8 * (64 * 5 + start);
      sched.schedule_at(first, hop);
      sched.run();
      std::vector<TimeNs> expected{first};
      while (expected.size() < 8) {
        expected.push_back(expected.back() / 8 * 8 + 8 * ahead + 7);
      }
      EXPECT_EQ(fired, expected);
      EXPECT_EQ(sched.pending(), 0u);
    }
  }
}

// A timer 50 us out starts past the window and migrates in while a 1 us
// ticker walks the window forward. At its nanosecond two events are filed
// straight into the window: one on a ticket reserved before the timer
// (lower seq) and one scheduled fresh (higher seq). All three fire in seq
// order, and the whole run in (time, seq) order.
TEST(SchedulerCalendar, MigratedTimerTiesWithNearEventsBySeq) {
  Scheduler sched;
  std::vector<std::pair<TimeNs, std::uint64_t>> keys;
  sched.set_trace_hook(
      [&keys](TimeNs t, std::uint64_t seq) { keys.emplace_back(t, seq); });
  std::vector<int> order;
  const Ticket early = sched.reserve_at(50'000);
  const EventId timer =
      sched.schedule_at(50'000, [&] { order.push_back(1); });
  ASSERT_GT(timer, early.seq);
  std::function<void()> tick = [&] {
    if (sched.now() < 60'000) sched.schedule_after(1'000, tick);
  };
  sched.schedule_at(1'000, tick);
  sched.schedule_at(45'000, [&] {
    sched.schedule(early, [&] { order.push_back(0); });
    sched.schedule_at(50'000, [&] { order.push_back(2); });
  });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(keys.size(), 60u + 1u + 3u);
}

// Compaction drops stale nodes from the window's slots and from the far
// heap alike: survivors on both sides, and events scheduled afterwards at
// their times, still fire in (time, seq) order with pending() exact. One
// group of near events is cancelled whole, so compaction empties the
// bitmap words that held it.
TEST(SchedulerCalendar, CompactionNearAndFarKeepsOrderAndPending) {
  Scheduler sched;
  std::vector<std::pair<TimeNs, std::uint64_t>> keys;
  sched.set_trace_hook(
      [&keys](TimeNs t, std::uint64_t seq) { keys.emplace_back(t, seq); });
  // Group 0: near, 100 to 290 ns (the window's first bitmap word). Group 1:
  // near, 1.0 to 1.39 us (its next two words), all cancelled. Group 2: far,
  // 1 to 2 ms out.
  const auto time_of = [](int i) -> TimeNs {
    switch (i % 3) {
      case 0: return 100 + 10 * (i % 20);
      case 1: return 1'000 + 10 * (i % 40);
      default: return 1'000'000 + 5'000 * (i % 20);
    }
  };
  std::vector<int> fired;
  std::vector<EventId> ids;
  std::vector<TimeNs> times;
  for (int i = 0; i < 240; ++i) {
    times.push_back(time_of(i));
    ids.push_back(
        sched.schedule_at(times.back(), [&fired, i] { fired.push_back(i); }));
  }
  std::size_t live = 240;
  for (int i = 1; i < 240; i += 3) {
    sched.cancel(ids[static_cast<std::size_t>(i)]);
    ASSERT_EQ(sched.pending(), --live);
  }
  std::vector<int> survivors;
  for (int i = 0; i < 240; ++i) {
    if (i % 3 == 1) continue;
    if (i % 10 == 3 || i % 10 == 4) {
      survivors.push_back(i);
      continue;
    }
    sched.cancel(ids[static_cast<std::size_t>(i)]);
    ASSERT_EQ(sched.pending(), --live);
  }
  // 32 live of 240 nodes: the bound 2*pending()+64 was crossed after the
  // whole of group 1 was cancelled, so the queue compacted. Ties scheduled
  // now come after the survivors at their times.
  const std::size_t old_survivors = survivors.size();
  for (std::size_t k = 0; k < old_survivors; ++k) {
    const int i = 240 + static_cast<int>(k);
    times.push_back(times[static_cast<std::size_t>(survivors[k])]);
    sched.schedule_at(times.back(), [&fired, i] { fired.push_back(i); });
    survivors.push_back(i);
  }
  EXPECT_EQ(sched.pending(), survivors.size());
  sched.run();
  EXPECT_EQ(sched.pending(), 0u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  std::stable_sort(survivors.begin(), survivors.end(), [&](int a, int b) {
    return times[static_cast<std::size_t>(a)] <
           times[static_cast<std::size_t>(b)];
  });
  EXPECT_EQ(fired, survivors);
}

/// Records the tags it receives, with the clock at each.
struct TagLog final : Scheduler::Target {
  explicit TagLog(const Scheduler& s) : sched(s) {}
  void on_event(std::uint32_t tag) override {
    got.emplace_back(sched.now(), tag);
  }
  const Scheduler& sched;
  std::vector<std::pair<TimeNs, std::uint32_t>> got;
};

TEST(Scheduler, TypedEventsCountAsPendingAndDispatched) {
  Scheduler sched;
  TagLog log(sched);
  const Scheduler::TargetId id = sched.add_target(&log);
  sched.post_at(20, id, 7);
  const Ticket tk = sched.reserve_at(10);
  sched.post(tk, id, 9);
  sched.schedule_at(15, [] {});
  EXPECT_EQ(sched.pending(), 3u);
  sched.run_until(12);
  EXPECT_EQ(sched.pending(), 2u);
  EXPECT_EQ(sched.events_dispatched(), 1u);
  sched.run();
  EXPECT_EQ(sched.pending(), 0u);
  EXPECT_EQ(sched.events_dispatched(), 3u);
  EXPECT_EQ(log.got, (std::vector<std::pair<TimeNs, std::uint32_t>>{
                         {10, 9}, {20, 7}}));
}

TEST(Scheduler, TypedEventsTieWithCallbacksBySeqAndClampToNow) {
  Scheduler sched;
  TagLog log(sched);
  const Scheduler::TargetId id = sched.add_target(&log);
  std::vector<std::uint64_t> seqs;
  sched.set_trace_hook(
      [&seqs](TimeNs, std::uint64_t seq) { seqs.push_back(seq); });
  sched.schedule_at(50, [&] {
    sched.post_at(10, id, 1);  // in the past: clamps to 50
    sched.schedule_at(50, [&] { log.got.emplace_back(sched.now(), 99); });
  });
  sched.post_at(50, id, 2);
  sched.run();
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{1, 2, 3, 4}));
  EXPECT_EQ(log.got, (std::vector<std::pair<TimeNs, std::uint32_t>>{
                         {50, 2}, {50, 1}, {50, 99}}));
}

TEST(Scheduler, CancelIgnoresTypedAndTicketSeqs) {
  // Only a pending callback's seq cancels anything: a typed event's seq, an
  // unscheduled ticket's seq and ids never handed out are no-ops.
  Scheduler sched;
  TagLog log(sched);
  const Scheduler::TargetId id = sched.add_target(&log);
  bool fired = false;
  sched.schedule_at(10, [&] { fired = true; });  // seq 1
  sched.post_at(10, id, 7);                      // seq 2
  const Ticket unscheduled = sched.reserve_at(10);
  const Ticket posted = sched.reserve_at(10);
  sched.post(posted, id, 8);
  for (const EventId bogus :
       {EventId{2}, unscheduled.seq, posted.seq, EventId{5}, ~EventId{0}}) {
    sched.cancel(bogus);
  }
  EXPECT_EQ(sched.pending(), 3u);
  sched.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(log.got, (std::vector<std::pair<TimeNs, std::uint32_t>>{
                         {10, 7}, {10, 8}}));
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(Rng, DeterministicWithSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform_int(0, 1 << 30) == b.uniform_int(0, 1 << 30)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, IndexCoversRange) {
  Rng rng(13);
  std::vector<int> hits(10, 0);
  for (int i = 0; i < 10000; ++i) ++hits[rng.index(10)];
  for (int h : hits) EXPECT_GT(h, 800);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(5);
  Rng child = parent.fork();
  // The child stream should not replicate the parent stream.
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (parent.uniform_int(0, 1 << 30) == child.uniform_int(0, 1 << 30)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, StreamSeedIsDrawOrderIndependent) {
  // Keyed streams are a pure function of (seed, key): consuming draws from
  // the parent must not change them — unlike fork().
  Rng fresh(42);
  Rng consumed(42);
  for (int i = 0; i < 100; ++i) (void)consumed.uniform();
  for (std::uint64_t key : {0ULL, 1ULL, (1ULL << 56) | 3ULL, ~0ULL}) {
    EXPECT_EQ(fresh.stream_seed(key), consumed.stream_seed(key));
  }
}

TEST(Rng, StreamSeedSeparatesKeysAndSeeds) {
  Rng rng(42);
  EXPECT_NE(rng.stream_seed(1), rng.stream_seed(2));
  EXPECT_NE(rng.stream_seed((1ULL << 56) | 0ULL),
            rng.stream_seed((2ULL << 56) | 0ULL));
  Rng other(43);
  EXPECT_NE(rng.stream_seed(1), other.stream_seed(1));
}

TEST(Rng, StreamProducesIndependentReproducibleChildren) {
  Rng parent(7);
  Rng a = parent.stream(5);
  Rng b = parent.stream(5);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.uniform(), b.uniform());
  Rng c = parent.stream(6);
  int same = 0;
  Rng d = parent.stream(5);
  for (int i = 0; i < 16; ++i) same += (d.uniform() == c.uniform());
  EXPECT_LT(same, 3);
}

TEST(Shuffle, PermutesAllElements) {
  Rng rng(17);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  shuffle(v, rng);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

}  // namespace
}  // namespace conga::sim
